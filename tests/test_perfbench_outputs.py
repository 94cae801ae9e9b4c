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
    "encoder": "1aa3d32c569b4051d6b14c865a44e7674ee9b1479fe46037bede382b770b165e",
    "norm": "f0ed75e8d014ab1f5f1973af8cc03de53a4bbe8e0a79871963bf9602e359672d",
    "suite": "7c702bc81dcb566c62b488581d40f1b82c70aad0f9caaa1fb4625d9e3fb9ff93",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed0_output_sha256(name):
    wl = workloads.WORKLOADS[name]
    outputs = [wl.to_bytes(wl.run(case, SaturationCounter())) for case in wl.setup(0)]
    assert workloads.sha256(b"\0".join(outputs)) == SEED0_SHA256[name]
