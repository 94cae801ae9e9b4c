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
    "conv": "5afe203f910614247d9daa4270cec69a65fe93e4d43f3967b0f629699186022a",
    "encoder": "b801295d8364beec4d88806fec1734d7c75bc8cc8cd6432d1a0f2dbcad6a1892",
    "norm": "242ad9d7ec9fb49f8c17eaa5430948aca322128c366057f27a5f7a705811baa8",
    "suite": "277e0b9cb6fb6413960b780f33b3aba0fdedcbb4e399a1ba8237a1cf08884d1e",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed0_output_sha256(name):
    wl = workloads.WORKLOADS[name]
    outputs = [wl.to_bytes(wl.run(case, SaturationCounter())) for case in wl.setup(0)]
    assert workloads.sha256(b"\0".join(outputs)) == SEED0_SHA256[name]
