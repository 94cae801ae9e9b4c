"""The benchmark workloads' seed-0 outputs, pinned.

Each workload's cases are built from seed 0 and run once, and their output
bytes are hashed as ``perfbench/worker.py`` hashes a run's first outputs, so
these are the SHA-256 values ``perfbench/run.py`` prints at seed 0.  The
benchmark itself only checks that repeated runs agree with each other.
"""

import sys
from pathlib import Path

import pytest

from scaledq.core import SaturationCounter

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402

SEED0_SHA256 = {
    "conv": "c39d3af3e35692f656a8527d94c114d37bd1cc3e61025fc4cb93a4a96d6aedda",
    "encoder": "1c96fd925f10305b4582104ea19cd894209e1c1608737de72c79532b7c4cc7ca",
    "norm": "0fd755f606dd27e51343c2abe74245f71d13843ad3edecce092c96cb91f28ee2",
    "suite": "7c702bc81dcb566c62b488581d40f1b82c70aad0f9caaa1fb4625d9e3fb9ff93",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed0_output_sha256(name):
    wl = workloads.WORKLOADS[name]
    outputs = [wl.to_bytes(wl.run(case, SaturationCounter())) for case in wl.setup(0)]
    assert workloads.sha256(b"\0".join(outputs)) == SEED0_SHA256[name]
