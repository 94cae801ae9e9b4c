"""Tests of the benchmark's own machinery: span self time, the tracer's
patching and restoring, and the command's argument errors.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

from scaledq import core, newton, ops

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CFG = core.ScaleConfig()


def test_self_times_on_hand_built_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]; counted
    # time recorded directly inside root is 0.5 and inside b is 1.0.
    spans = [
        ("root", 0.0, 10.0, -1, 1, 0.5),
        ("a", 1.0, 4.0, 0, 1, 0.0),
        ("c", 2.0, 3.0, 1, 1, 0.0),
        ("b", 5.0, 9.0, 0, 1, 1.0),
    ]
    assert tracing.self_times(spans) == [10 - 3 - 4 - 0.5, 3 - 1, 1, 4 - 1.0]


def test_newton_progress_counts_iterations_to_the_fixed_point():
    x = core.quantize(15.25, CFG)
    _, settled = newton.newton_inv_sqrt(x, core.ScaledInt(1, 6), 20, CFG)
    useful, unsettled = tracing.newton_progress(settled)
    assert 0 < useful < 20 and not unsettled
    _, short = newton.newton_inv_sqrt(x, core.ScaledInt(1, 6), 3, CFG)
    assert tracing.newton_progress(short) == (3, True)


def _q(shape, amplitude):
    return ops.QTensor(shape, tuple(core.quantize(amplitude * ((i % 7) - 3) / 4, CFG)
                                    for i in range(math.prod(shape))))


def _tiny_pass():
    """A small pass over conv2d, linear, layer_norm and attention."""
    sat = core.SaturationCounter()
    x = _q((1, 2, 4, 4), 0.9)
    ops.conv2d(x, _q((2, 2, 3, 3), 0.5), _q((2,), 0.25), ops.ConvSpec(2, 2, 3), CFG, sat)
    t = _q((4, 8), 1.1)
    h = ops.layer_norm(t, ops.LayerNormParams(_q((8,), 1.0), _q((8,), 0.1)), CFG, sat)
    h = ops.linear(h, _q((8, 8), 0.3), _q((8,), 0.2), CFG, sat)
    ops.attention(h, h, h, 8, CFG, sat)


def traced_counts() -> dict:
    """Call counts of one traced ``_tiny_pass``."""
    with tracing.Tracer() as tr:
        _tiny_pass()
    counts = {k: v[0] for k, v in tr.counted.items()}
    for span in tr.spans:
        counts[span[0]] = counts.get(span[0], 0) + 1
    return counts


def _attributes():
    return {(m.__name__, k): v for m in tracing.MODULES for k, v in vars(m).items()}


def test_tracer_restores_every_attribute_and_leaves_no_wrapper():
    before = _attributes()
    tr = tracing.Tracer()
    with tr:
        assert ops.scale_mul is not before[("scaledq.ops", "scale_mul")]
        assert newton.handle_overflow is not before[("scaledq.newton", "handle_overflow")]
        assert tr.installed()
    after = _attributes()
    assert tr.installed() == []
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_after_an_exception():
    before = _attributes()
    try:
        with tracing.Tracer():
            raise KeyError("boom")
    except KeyError:
        pass
    after = _attributes()
    assert all(after[k] is before[k] for k in before)


def test_untraced_pass_after_traced_one_counts_like_a_fresh_process():
    first = tracing.Tracer()
    with first:
        _tiny_pass()
    recorded = (len(first.spans), {k: v[0] for k, v in first.counted.items()})
    _tiny_pass()  # untraced: nothing may reach the first tracer
    assert (len(first.spans), {k: v[0] for k, v in first.counted.items()}) == recorded
    again = traced_counts()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import json, test_perfbench as t; print(json.dumps(t.traced_counts()))"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(fresh.stdout) == again
    assert again["core.scale_mul"] > 0 and again["newton"] == 5
    assert again["ops.conv2d"] == 1 and again["ops.attention"] == 1


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=60)


def test_bad_arguments_exit_nonzero_with_one_line():
    for args, needle in ((["--workload", "nope"], "unknown workload"),
                         (["--workload", "conv", "--seed", "x1"], "--seed must be an integer"),
                         (["--workload", "conv", "--trace", "2"], "--trace must be 0 or 1"),
                         (["--seed", "1"], "required")):
        proc = _run(args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and needle in lines[0], proc.stderr


def test_without_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "norm", "--seed", "0", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
