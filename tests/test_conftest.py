"""The test session reports every failure: a failing hypothesis test must not
stop the run before the tests after it are reported."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_leaves_the_run_going(tmp_path):
    # The probe runs under the project's own settings and root conftest.
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copy(ROOT / "conftest.py", tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
