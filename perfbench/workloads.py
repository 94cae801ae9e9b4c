"""The four benchmark workloads and their FP64 twins.

Each workload builds its inputs from a seed, already quantized, and hands
them to the integer path through the public functions of ``scaledq``.
Every call goes through a module attribute (``ops.linear``, not a name
imported into this module), so the tracer's patches see it.

A workload's inputs are a list of cases (images, token sequences, suite
rows); a pass runs every case once, and each case is timed on its own, next
to a calibration block that shares the machine's load at that moment.
Pooling the error over several cases evens out what one draw of inputs
would decide.

A ``Workload`` holds:

- ``setup(seed)``: the cases, each with its quantized tensors and the
  dequantized tensors its FP64 twin reads;
- ``run(case, sat)``: one case, returning its outputs;
- ``check(outputs)``: why a case's outputs are malformed, or ``None``;
- ``score(cases, outputs)``: ``(mse, max_abs_err)`` against the twin over
  every case, given each case's outputs;
- ``saturations(outputs, sat)``: floor saturations in one case;
- ``to_bytes(outputs)``: canonical bytes of one case's outputs.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
from dataclasses import dataclass
from typing import Any, Callable

from scaledq import bench, core, ops
from scaledq import reference as ref

CFG = core.ScaleConfig()


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], list]
    run: Callable[[Any, core.SaturationCounter], Any]
    check: Callable[[Any], str | None]
    score: Callable[[list, list], tuple[float, float]]
    saturations: Callable[[Any, core.SaturationCounter], int]
    to_bytes: Callable[[Any], bytes]


def quantize_tensor(shape: tuple[int, ...], values: list[float]) -> ops.QTensor:
    """Float values to a scaled tensor; the benchmark's quantize boundary."""
    return ops.QTensor(shape, tuple(core.quantize(v, CFG) for v in values))


def _stratified(rng: random.Random, n: int, low: float, high: float) -> list[float]:
    """``n`` uniform draws from [low, high), one in each of ``n`` equal strata,
    in random order.  Stratifying keeps the sums and spreads that set the
    rounding error close from seed to seed, so error metrics stay steady."""
    width = (high - low) / n
    values = [low + width * (k + rng.random()) for k in range(n)]
    rng.shuffle(values)
    return values


def _tensor(rng, shape, low, high):
    """Quantized tensor drawn stratified-uniform per leading index (one
    filter, one weight row, one token), and its dequantized FP64 twin input."""
    group = math.prod(shape[1:]) if len(shape) > 1 else shape[0]
    values = []
    for _ in range(math.prod(shape) // group):
        values.extend(_stratified(rng, group, low, high))
    q = quantize_tensor(shape, values)
    return q, ref.dequantize_tensor(q)


def tensor_bytes(outputs: list[ops.QTensor]) -> bytes:
    """Canonical bytes of output tensors: shape, then ``signed,scale`` pairs."""
    return "\n".join(
        f"{t.shape}:" + ";".join(f"{e.signed_magnitude},{e.scale}" for e in t.data)
        for t in outputs).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_tensors(shapes: list[tuple[int, ...]]):
    def check(outputs) -> str | None:
        got = [t.shape for t in outputs]
        if got != shapes:
            return f"output shapes {got} != {shapes}"
        for t in outputs:
            if not all(math.isfinite(core.dequantize(e)) for e in t.data):
                return "non-finite dequantized output"
        return None
    return check


def _score_tensors(twin: Callable[[Any], list[ref.FTensor]]):
    """MSE pooled over every output element of every case, and the median
    over cases of each case's largest abs error, using ``reference.mse`` and
    ``reference.max_abs_error`` as the one error path.  The largest error
    over all cases is one extreme draw and swung by a tenth from seed to
    seed; the median case's largest error is steady."""
    def score(cases: list, outputs: list) -> tuple[float, float]:
        sq, n, worst = 0.0, 0, []
        for case, outs in zip(cases, outputs):
            refs = twin(case)
            sq += sum(ref.mse(q, r) * r.size for q, r in zip(outs, refs))
            n += sum(r.size for r in refs)
            worst.append(max(ref.max_abs_error(q, r) for q, r in zip(outs, refs)))
        return sq / n, statistics.median(worst)
    return score


def _sat_count(_outputs, sat: core.SaturationCounter) -> int:
    return sat.count


# --- conv: dense 3->9 channel 3x3 convolutions over eight 32x32 images ----

CONV_SPEC = ops.ConvSpec(3, 9, 3, padding=1)
CONV_SHAPE = (1, 3, 32, 32)
# Each image has its own filter bank: with one bank per seed, the bank
# decided the error metrics, which then swung by a tenth from seed to seed.
IMAGES = 8


def conv_setup(seed: int) -> list[dict]:
    rng = random.Random(seed)
    cases = []
    for _ in range(IMAGES):
        w, wf = _tensor(rng, (9, 3, 3, 3), -1.0, 1.0)
        b, bf = _tensor(rng, (9,), -1.0, 1.0)
        x, xf = _tensor(rng, CONV_SHAPE, 0.0, 1.0)
        cases.append({"q": (x, w, b), "f": (xf, wf, bf)})
    return cases


def conv_run(case: dict, sat: core.SaturationCounter) -> list[ops.QTensor]:
    x, w, b = case["q"]
    return [ops.conv2d(x, w, b, CONV_SPEC, CFG, sat)]


def conv_twin(case: dict) -> list[ref.FTensor]:
    xf, wf, bf = case["f"]
    return [ref.ref_conv2d(xf, wf, bf, CONV_SPEC)]


# --- encoder: pre-LN block, T=64 tokens, d=16, MLP width 64 ---------------

T, D, MLP = 64, 16, 64
SEQUENCES = 4
# The block's weights are the model: drawn once from this fixed seed, while
# --seed draws the token sequences.  With weights drawn per seed, the error
# metrics swung by a quarter from seed to seed; four sequences through one
# fixed model keep them within a tenth.  (Fixing the conv filters instead
# made conv's max_abs_err swing more, so conv draws them per seed.)
MODEL_SEED = 2303


def _ln_params(rng) -> tuple[ops.LayerNormParams, tuple]:
    gamma, gf = _tensor(rng, (D,), 0.5, 1.5)
    beta, bf = _tensor(rng, (D,), -0.25, 0.25)
    params = ops.LayerNormParams(gamma, beta)
    return params, (gf.data, bf.data, core.dequantize(params.eps))


def _dense(rng, out_f: int, in_f: int):
    a = 1.0 / math.sqrt(in_f)
    w, wf = _tensor(rng, (out_f, in_f), -a, a)
    b, bf = _tensor(rng, (out_f,), -a, a)
    return (w, b), (wf, bf)


def encoder_setup(seed: int) -> list[dict]:
    model = random.Random(MODEL_SEED)
    q, f = {}, {}
    for name in ("ln1", "ln2"):
        q[name], f[name] = _ln_params(model)
    for name, out_f, in_f in (("wq", D, D), ("wk", D, D), ("wv", D, D),
                              ("wo", D, D), ("w1", MLP, D), ("w2", D, MLP)):
        q[name], f[name] = _dense(model, out_f, in_f)
    rng = random.Random(seed)
    cases = []
    for _ in range(SEQUENCES):
        x, xf = _tensor(rng, (T, D), -1.0, 1.0)
        cases.append({"q": dict(q, x=x), "f": dict(f, x=xf)})
    return cases


def _residual(a: ops.QTensor, b: ops.QTensor, sat) -> ops.QTensor:
    return ops.QTensor(a.shape, tuple(core.scale_add(x, y, CFG, sat)
                                      for x, y in zip(a.data, b.data)))


def encoder_run(case: dict, sat: core.SaturationCounter) -> list[ops.QTensor]:
    p = case["q"]
    x = p["x"]
    h = ops.layer_norm(x, p["ln1"], CFG, sat)
    q, k, v = (ops.linear(h, *p[n], CFG, sat) for n in ("wq", "wk", "wv"))
    a = ops.attention(q, k, v, D, CFG, sat)
    r = _residual(x, ops.linear(a, *p["wo"], CFG, sat), sat)
    h = ops.layer_norm(r, p["ln2"], CFG, sat)
    m = ops.gelu_map(ops.linear(h, *p["w1"], CFG, sat), CFG, sat)
    return [_residual(r, ops.linear(m, *p["w2"], CFG, sat), sat)]


def _fadd(a: ref.FTensor, b: ref.FTensor) -> ref.FTensor:
    return ref.FTensor(a.shape, tuple(x + y for x, y in zip(a.data, b.data)))


def encoder_twin(case: dict) -> list[ref.FTensor]:
    """The same block in FP64 from the ``ref_*`` functions, with the series
    softmax and GELU the integer path evaluates, so the error is rounding."""
    p = case["f"]
    x = p["x"]
    h = ref.ref_layer_norm(x, *p["ln1"])
    q, k, v = (ref.ref_linear(h, *p[n]) for n in ("wq", "wk", "wv"))
    a = ref.ref_attention(q, k, v, D)
    r = _fadd(x, ref.ref_linear(a, *p["wo"]))
    h = ref.ref_layer_norm(r, *p["ln2"])
    m1 = ref.ref_linear(h, *p["w1"])
    m = ref.FTensor(m1.shape, tuple(ref.ref_gelu_series(e, CFG.gelu_variant)
                                    for e in m1.data))
    return [_fadd(r, ref.ref_linear(m, *p["w2"]))]


# --- norm: layer_norm and softmax over rows of widely varying spread ------

ROWS, WIDTH = 1024, 16


def norm_setup(seed: int) -> list[dict]:
    rng = random.Random(seed)
    values = []
    means = _stratified(rng, ROWS, -1.0, 1.0)
    for mean, log_spread in zip(means, _stratified(rng, ROWS, -8.0, 2.0)):
        spread = 2.0 ** log_spread
        values.extend(mean + spread * u for u in _stratified(rng, WIDTH, -1.0, 1.0))
    x = quantize_tensor((ROWS, WIDTH), values)
    params = ops.LayerNormParams(quantize_tensor((WIDTH,), [1.0] * WIDTH),
                                 quantize_tensor((WIDTH,), [0.0] * WIDTH))
    f = (ref.dequantize_tensor(x), ref.dequantize_tensor(params.gamma).data,
         ref.dequantize_tensor(params.beta).data, core.dequantize(params.eps))
    return [{"q": (x, params), "f": f}]


def norm_run(case: dict, sat: core.SaturationCounter) -> list[ops.QTensor]:
    x, params = case["q"]
    return [ops.layer_norm(x, params, CFG, sat), ops.softmax_tensor(x, CFG, sat)]


def softmax_rows(x: ref.FTensor) -> ref.FTensor:
    """Row-wise FP64 series softmax over the trailing axis."""
    n = x.shape[-1]
    out = []
    for r in range(x.size // n):
        out.extend(ref.ref_softmax_series(x.data[r * n:(r + 1) * n]))
    return ref.FTensor(x.shape, tuple(out))


def norm_twin(case: dict) -> list[ref.FTensor]:
    xf, gamma, beta, eps = case["f"]
    return [ref.ref_layer_norm(xf, gamma, beta, eps), softmax_rows(xf)]


# --- suite: the twelve regression rows as `scaledq bench suite` runs them -

SUITE_TRIALS, SUITE_SIDE = 25, 16

# Per-row MSE limits of acceptance criterion 3 (tests/test_acceptance.py).
SUITE_LIMITS = {
    "conv2d(3,3)": 7.64e-4, "conv2d(3,9)": 6.63e-4, "conv2d(3,1)": 6.89e-4,
    "layer-norm(1,1)": 1.5e-2,
    "depthwise-conv2d(3,3)": 2.8e-4, "depthwise-conv2d(3,9)": 5.9e-2,
    "linear(3,9)": 3.31e-4, "linear(3,1)": 1.79e-4, "linear(3,3)": 3.45e-4,
    "softmax(1,1)": 1.79e-4,
    "gelu[series-cubed](1,1)": 6.6e-2, "gelu[series-linear](1,1)": 2e-3,
}


def _row_key(r: bench.BenchReport) -> str:
    return f"{r.operator_label}({r.spec.i},{r.spec.o})"


def suite_setup(seed: int) -> list[tuple[bench.ExperimentSpec, str | None]]:
    return bench.suite_specs(seed, trials=SUITE_TRIALS, side=SUITE_SIDE)


def suite_run(case, _sat) -> list[bench.BenchReport]:
    spec, variant = case
    return [bench.run_bench(spec, CFG, gelu_variant=variant)]


def suite_check(reports: list[bench.BenchReport]) -> str | None:
    key = _row_key(reports[0])
    if key not in SUITE_LIMITS:
        return f"suite row {key} is not in the regression suite"
    if not reports[0].mse <= SUITE_LIMITS[key]:
        return f"MSE above the criterion-3 limit in {key}"
    return None


def suite_score(_cases, outputs: list) -> tuple[float, float]:
    """Mean of the row MSEs and the largest row max abs error."""
    reports = [r for out in outputs for r in out]
    return (sum(r.mse for r in reports) / len(reports),
            max(r.max_abs_err for r in reports))


def _dq(t: ops.QTensor) -> ref.FTensor:
    return ref.dequantize_tensor(t)


# FP64 op for each per-stage scored op, given the op's bound arguments.
STAGE_TWINS = {
    "layer_norm": lambda a: ref.ref_layer_norm(
        _dq(a["x"]), _dq(a["params"].gamma).data, _dq(a["params"].beta).data,
        core.dequantize(a["params"].eps)),
    "softmax_tensor": lambda a: softmax_rows(_dq(a["x"])),
    "linear": lambda a: ref.ref_linear(
        _dq(a["x"]), _dq(a["weight"]), None if a["bias"] is None else _dq(a["bias"])),
    "attention": lambda a: ref.ref_attention(_dq(a["q"]), _dq(a["k"]), _dq(a["v"]), a["d_m"]),
    "gelu_map": lambda a: ref.FTensor(a["x"].shape, tuple(
        ref.ref_gelu_series(v, a["variant"] or a["cfg"].gelu_variant)
        for v in _dq(a["x"]).data)),
}


def stage_error(name: str, calls: list) -> float:
    """Largest abs error of a stage's outputs against its FP64 op applied to
    the stage's own dequantized input, over every captured call."""
    return max((ref.max_abs_error(out, STAGE_TWINS[name](args)) for args, out in calls),
               default=0.0)


WORKLOADS = {
    "conv": Workload("conv", conv_setup, conv_run,
                     _check_tensors([(1, 9, 32, 32)]), _score_tensors(conv_twin),
                     _sat_count, tensor_bytes),
    "encoder": Workload("encoder", encoder_setup, encoder_run,
                        _check_tensors([(T, D)]), _score_tensors(encoder_twin),
                        _sat_count, tensor_bytes),
    "norm": Workload("norm", norm_setup, norm_run,
                     _check_tensors([(ROWS, WIDTH), (ROWS, WIDTH)]),
                     _score_tensors(norm_twin), _sat_count, tensor_bytes),
    "suite": Workload("suite", suite_setup, suite_run, suite_check, suite_score,
                      lambda reports, _sat: reports[0].saturations,
                      lambda reports: bench.reports_to_csv(reports).encode()),
}
