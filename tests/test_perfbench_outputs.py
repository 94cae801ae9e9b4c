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
    "encoder": "e2994ede58f30a9f91dd17c7cfb242a0965ef40657d5f132c810efcb5d70efec",
    "norm": "3e630d6cf266334d1819e0f156509e54f46b5385b30d95554330cfe1d508f04d",
    "suite": "2f2afbd5422cd082c8003f0650dc2761aba02e67f7d24eca84f4dbe33c486b58",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed0_output_sha256(name):
    wl = workloads.WORKLOADS[name]
    outputs = [wl.to_bytes(wl.run(case, SaturationCounter())) for case in wl.setup(0)]
    assert workloads.sha256(b"\0".join(outputs)) == SEED0_SHA256[name]
