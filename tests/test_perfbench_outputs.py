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
    "conv": "a55edb1a5df7959dd23e740f1e0f0b538eb6423eaf6aad60c15f294e1b357be3",
    "encoder": "3155493d089e6d515ea440dec982cb9af9f8098db311ff079e2c78e656638f93",
    "norm": "d36d97e5d7612b22456748ef4f96d0279e301334ec582527343cedd20c359481",
    "suite": "c0035f16306c213e6acd4d945581e2f5119062250ec1b022ba26399508f0bd49",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed0_output_sha256(name):
    wl = workloads.WORKLOADS[name]
    outputs = [wl.to_bytes(wl.run(case, SaturationCounter())) for case in wl.setup(0)]
    assert workloads.sha256(b"\0".join(outputs)) == SEED0_SHA256[name]
