"""Benchmark harness: seeded experiments, error sweeps and report plumbing.

Experiments draw fresh FP64 inputs in [0, 1) and weights/biases in [-1, 1)
per trial, quantize them, run the quantized operator, and score it against
the matching FP64 reference evaluated on the dequantized operands (so the
reported error is the operator's own rounding, not input encoding noise).
Trial ``t`` of an experiment seeded ``s`` uses ``s * 1_000_003 + t``, which
keeps trials independent yet byte-reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    GELU_SERIES_CUBED,
    GELU_SERIES_LINEAR,
    ONE,
    ZERO,
    RangeError,
    SaturationCounter,
    ScaleConfig,
    ScaledInt,
    box,
    dequantize,
    quantize,
    quotient,
)
from .ops import (
    ConvSpec,
    LayerNormParams,
    QTensor,
    ShapeError,
    conv2d,
    gelu_map,
    linear,
    layer_norm,
    softmax_tensor,
)
from . import reference as ref
from .reference import FTensor


class UsageError(ValueError):
    """Bad experiment description or file contents."""


INPUT_LOW, INPUT_HIGH = 0.0, 1.0
WEIGHT_LOW, WEIGHT_HIGH = -1.0, 1.0
# Largest tensor a bench row or ``save-tensor`` may build, and the most
# elements a bench row may build over all its trials; checked on the
# dimensions and the trial count before anything is allocated.
MAX_ELEMENTS = 1 << 24


@dataclass(frozen=True)
class _Operator:
    """One bench operator.

    ``shapes(spec)`` are the shapes of the tensors the row builds, the input
    tensor's first, so a spec is bounded before anything is allocated;
    ``operands(spec, cfg, rng, x)`` draws the rest of the quantized
    arguments around ``x``; ``quantized(args, cfg, sat, variant)`` runs the
    integer op on them and ``fp64(fargs)`` its FP64 mirror on the same
    arguments with every tensor dequantized.  The ops are looked up by name
    at call time, so patching a module attribute takes effect.
    """

    shapes: Callable[["ExperimentSpec"], tuple[tuple[int, ...], ...]]
    operands: Callable[..., tuple]
    quantized: Callable[..., QTensor]
    fp64: Callable[[tuple], FTensor]
    reads: tuple[str, ...] = ()


def _random_tensor(rng: random.Random, shape: tuple[int, ...], cfg: ScaleConfig,
                   low: float = WEIGHT_LOW, high: float = WEIGHT_HIGH) -> QTensor:
    """Quantized uniform draws, in the weight range unless told otherwise."""
    span = high - low
    return _qtensor(shape, [low + span * rng.random() for _ in range(math.prod(shape))], cfg)


def _conv(depthwise: bool) -> _Operator:
    def shapes(s):
        # input, weights and output; the output is at most (b, o, h, w), since
        # the rows run at stride 1 without padding
        return ((s.b, s.i, s.h, s.w), (s.o, 1 if depthwise else s.i, s.k, s.k),
                (s.b, s.o, s.h, s.w))

    def operands(spec, cfg, rng, x):
        w = _random_tensor(rng, shapes(spec)[1], cfg)
        bias = _random_tensor(rng, (spec.o,), cfg)
        return x, w, bias, ConvSpec(spec.i, spec.o, spec.k, depthwise=depthwise)
    return _Operator(shapes, operands,
                     lambda a, cfg, sat, v: conv2d(*a, cfg, sat),
                     lambda f: ref.ref_conv2d(*f),
                     ("batch", "in_channels", "out_channels", "kernel"))


def _linear_operands(spec, cfg, rng, x):
    if spec.weight_mode == "identity":
        eye = tuple(ONE if r == c else ZERO for r in range(spec.o) for c in range(spec.i))
        return x, QTensor((spec.o, spec.i), eye), QTensor((spec.o,), (ZERO,) * spec.o)
    w = _random_tensor(rng, (spec.o, spec.i), cfg)
    return x, w, _random_tensor(rng, (spec.o,), cfg)


def _unit_norm_operands(spec, cfg, rng, x):
    n = x.size
    gamma = QTensor((n,), (quantize(1.0, cfg),) * n)
    return x, LayerNormParams(gamma, QTensor((n,), (ZERO,) * n), ScaledInt(1, cfg.scale_max))


def _flat_shapes(s):
    return ((s.h * s.w,),)


def _input_only(spec, cfg, rng, x):
    return (x,)


_OPERATORS = {
    "conv2d": _conv(depthwise=False),
    "depthwise-conv2d": _conv(depthwise=True),
    "linear": _Operator(
        lambda s: ((s.h * s.w, s.i), (s.o, s.i), (s.h * s.w, s.o)), _linear_operands,
        lambda a, cfg, sat, v: linear(*a, cfg, sat),
        lambda f: ref.ref_linear(*f), ("in_channels", "out_channels", "weight_mode")),
    "layer-norm": _Operator(
        _flat_shapes, _unit_norm_operands,
        lambda a, cfg, sat, v: layer_norm(*a, cfg, sat),
        lambda f: ref.ref_layer_norm(f[0], [1.0] * f[0].size, [0.0] * f[0].size,
                                     dequantize(f[1].eps))),
    "softmax": _Operator(
        _flat_shapes, _input_only,
        lambda a, cfg, sat, v: softmax_tensor(*a, cfg, sat),
        lambda f: FTensor(f[0].shape, tuple(ref.ref_softmax_series(f[0].data)))),
    "gelu": _Operator(
        _flat_shapes, _input_only,
        lambda a, cfg, sat, v: gelu_map(*a, cfg, sat, v),
        lambda f: FTensor(f[0].shape, tuple(ref.ref_gelu_exact(v) for v in f[0].data)),
        ("gelu_variant",)),
}

OPERATORS = tuple(_OPERATORS)

# Bench settings (CLI flag dests) every row reads; a row adds ``_Operator.reads``.
_EVERY_ROW_READS = ("height", "width", "trials", "input_file",
                    "seed", "config", "p_bits", "scale_bits")
READS = {name: _EVERY_ROW_READS + op.reads for name, op in _OPERATORS.items()}
READS["suite"] = ("height", "trials", "seed", "config", "p_bits", "scale_bits")


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark row: operator, geometry, trial count and seeding."""

    operator: str
    b: int = 1
    i: int = 3
    o: int = 3
    k: int = 1
    h: int = 16
    w: int = 16
    trials: int = 25
    seed: int = 0
    weight_mode: str = "random"
    label: str = ""

    def __post_init__(self):
        if self.operator not in OPERATORS:
            raise UsageError(f"unknown operator {self.operator!r}; choose from {OPERATORS}")
        if min(self.b, self.i, self.o, self.k, self.h, self.w) < 1:
            raise UsageError("all dimensions must be positive")
        if self.trials < 1:
            raise UsageError("trials must be >= 1")
        # Each trial builds its tensors afresh, so the trial count scales the
        # work the same way the largest tensor does.
        largest = max(map(math.prod, _OPERATORS[self.operator].shapes(self)))
        if self.trials * largest > MAX_ELEMENTS:
            raise UsageError(f"dimensions and trials give {self.trials} x {largest} "
                             f"elements, above {MAX_ELEMENTS}")
        if self.weight_mode not in ("random", "identity"):
            raise UsageError(f"weight_mode must be 'random' or 'identity', "
                             f"got {self.weight_mode!r}")
        if self.operator.endswith("conv2d") and self.k > min(self.h, self.w):
            raise UsageError(f"kernel {self.k} does not fit the {self.h}x{self.w} input")
        if self.operator == "depthwise-conv2d" and self.o % self.i:
            raise UsageError(f"depthwise out_channels {self.o} is no multiple of {self.i}")
        if self.operator == "linear" and self.weight_mode == "identity" and self.o != self.i:
            raise UsageError(f"identity weights need matching input/output sizes, "
                             f"got {self.i} in and {self.o} out")


@dataclass(frozen=True)
class BenchReport:
    """One result row.  ``wall_time_s``, the whole row's time, and ``op_s``,
    the integer op's own time summed over the trials, are excluded from CSV
    so reports stay byte-identical across runs."""

    spec: ExperimentSpec
    mse: float
    max_abs_err: float
    saturations: int
    bits_per_element: int
    reduction_factor: float
    wall_time_s: float
    op_s: float

    @property
    def operator_label(self) -> str:
        return self.spec.label or self.spec.operator

    def row(self) -> dict:
        """The CSV columns, in order."""
        s = self.spec
        return {
            "operator": self.operator_label,
            "B": s.b, "I": s.i, "O": s.o, "K": s.k, "H": s.h, "W": s.w,
            "trials": s.trials,
            "mse": self.mse,
            "max_abs_err": self.max_abs_err,
            "saturations": self.saturations,
            "bits_per_element": self.bits_per_element,
            "reduction_factor": self.reduction_factor,
        }


def to_csv(rows: Iterable[dict]) -> Iterator[str]:
    """CSV lines, lazily: a header of the first row's keys, then one line per
    row.  ``str`` of a float is its shortest round-trip ``repr``, so every
    report is byte-reproducible."""
    for n, row in enumerate(rows):
        if n == 0:
            yield ",".join(row) + "\n"
        yield ",".join(map(str, row.values())) + "\n"


def reports_to_csv(reports: list[BenchReport]) -> str:
    return "".join(to_csv(r.row() for r in reports))


def _trial_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def _qtensor(shape: tuple[int, ...], values: Sequence[float], cfg: ScaleConfig) -> QTensor:
    return QTensor(shape, tuple(map(quantize, values, repeat(cfg))))


def run_bench(spec: ExperimentSpec, cfg: ScaleConfig,
              fixed_input: FTensor | None = None,
              gelu_variant: str | None = None) -> BenchReport:
    """Run one experiment, pooling squared error over all trials."""
    start = time.perf_counter()
    op = _OPERATORS[spec.operator]
    shape = op.shapes(spec)[0]
    # Elementwise rows take the file's elements in order, whatever its shape.
    if fixed_input is not None:
        if fixed_input.shape != shape and (len(shape) > 1 or fixed_input.size != shape[0]):
            raise UsageError(f"input file shape {fixed_input.shape} does not fit {shape}")
        fixed = _qtensor(shape, fixed_input.data, cfg)
    variant = gelu_variant or cfg.gelu_variant
    sat = SaturationCounter()
    sq_sum = worst = op_s = 0.0
    count = 0
    for t in range(spec.trials):
        rng = random.Random(_trial_seed(spec.seed, t))
        x = fixed if fixed_input is not None else _random_tensor(
            rng, shape, cfg, INPUT_LOW, INPUT_HIGH)
        args = op.operands(spec, cfg, rng, x)
        op_start = time.perf_counter()
        q_out = op.quantized(args, cfg, sat, variant)
        op_s += time.perf_counter() - op_start
        f_out = op.fp64(tuple(ref.dequantize_tensor(a) if isinstance(a, QTensor) else a
                              for a in args))
        sq_sum, worst = ref.error_sums(q_out, f_out, sq_sum, worst)
        count += f_out.size
    return BenchReport(
        spec=spec,
        mse=sq_sum / count,
        max_abs_err=worst,
        saturations=sat.count,
        bits_per_element=cfg.bits_per_element,
        reduction_factor=cfg.reduction_factor,
        wall_time_s=time.perf_counter() - start,
        op_s=op_s,
    )


def suite_specs(seed: int = 0, trials: int = 25, side: int = 16) -> list[tuple[ExperimentSpec, str | None]]:
    """Desk-scale MSE regression rows (operator spec, gelu variant override)."""
    base = dict(b=1, k=1, h=side, w=side, trials=trials, seed=seed)
    rows: list[tuple[ExperimentSpec, str | None]] = [
        (ExperimentSpec("conv2d", i=3, o=3, **base), None),
        (ExperimentSpec("conv2d", i=3, o=9, **base), None),
        (ExperimentSpec("conv2d", i=3, o=1, **base), None),
        (ExperimentSpec("layer-norm", i=1, o=1, **base), None),
        (ExperimentSpec("depthwise-conv2d", i=3, o=3, **base), None),
        (ExperimentSpec("depthwise-conv2d", i=3, o=9, **base), None),
        (ExperimentSpec("linear", i=3, o=9, **base), None),
        (ExperimentSpec("linear", i=3, o=1, **base), None),
        (ExperimentSpec("linear", i=3, o=3, **base), None),
        (ExperimentSpec("softmax", i=1, o=1, **base), None),
        (ExperimentSpec("gelu", i=1, o=1, label="gelu[series-cubed]", **base),
         GELU_SERIES_CUBED),
        (ExperimentSpec("gelu", i=1, o=1, label="gelu[series-linear]", **base),
         GELU_SERIES_LINEAR),
    ]
    return rows


def run_suite(cfg: ScaleConfig, seed: int = 0, trials: int = 25,
              side: int = 16) -> list[BenchReport]:
    return [run_bench(spec, cfg, gelu_variant=variant)
            for spec, variant in suite_specs(seed, trials, side)]


@dataclass(frozen=True)
class DivSweepReport:
    pairs: int
    exact: int
    divisible_inexact: int
    max_rel_err: float
    mean_rel_err: float
    worst_dividend: int
    worst_divisor: int


def div_sweep(cfg: ScaleConfig) -> DivSweepReport:
    """Exhaustive quotient check over every magnitude pair at scale 0,
    scored with exact rational arithmetic.  Refused above ``MAX_ELEMENTS``
    pairs, before the first division."""
    top = cfg.max_magnitude
    if top * top > MAX_ELEMENTS:
        raise UsageError(f"p_bits={cfg.p_bits} gives {top * top} division pairs, "
                         f"above {MAX_ELEMENTS}")
    worst = Fraction(0)
    worst_pair = (1, 1)
    total = Fraction(0)
    exact = 0
    divisible_inexact = 0
    pairs = 0
    for a in range(1, top + 1):
        for b in range(1, top + 1):
            # a quotient of P-bit magnitudes is below 2**P, so its scale is >= 0
            magnitude, scale = quotient(a, b, 0, cfg)
            got = Fraction(magnitude, 1 << scale)
            truth = Fraction(a, b)
            rel = abs(truth - got) / truth
            pairs += 1
            total += rel
            if rel == 0:
                exact += 1
            elif a % b == 0:
                divisible_inexact += 1
            if rel > worst:
                worst = rel
                worst_pair = (a, b)
    return DivSweepReport(
        pairs=pairs,
        exact=exact,
        divisible_inexact=divisible_inexact,
        max_rel_err=float(worst),
        mean_rel_err=float(total / pairs),
        worst_dividend=worst_pair[0],
        worst_divisor=worst_pair[1],
    )


def save_tensor(path: str, tensor: FTensor | QTensor) -> None:
    """Write a tensor file: ``{"shape": [...], "kind": "f64"|"scaled", "data": [...]}``
    where scaled data holds ``[signed_int, scale]`` pairs.  A path that
    cannot be opened for writing raises ``UsageError``, and so does a
    non-finite f64 entry, which JSON cannot hold, before the file is opened."""
    if isinstance(tensor, QTensor):
        payload = {
            "shape": list(tensor.shape),
            "kind": "scaled",
            "data": [[e.signed_magnitude, e.scale] for e in tensor.data],
        }
    else:
        if not all(map(math.isfinite, tensor.data)):
            raise UsageError("f64 tensor entries must be finite; JSON holds no inf or nan")
        payload = {"shape": list(tensor.shape), "kind": "f64", "data": list(tensor.data)}
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write tensor file {path}: {exc.strerror}") from exc
    with fh:
        json.dump(payload, fh, allow_nan=False)
        fh.write("\n")


def load_tensor(path: str, cfg: ScaleConfig) -> FTensor | QTensor:
    """Read a tensor file.  Malformed contents, including a shape dim or a
    scaled pair that is not a JSON integer and an f64 entry that is not a
    JSON number or is past FP64's range, raise ``UsageError``; a scaled
    entry outside the configured format raises ``RangeError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        shape = tuple(payload["shape"])
        kind = payload["kind"]
        data = tuple(payload["data"])
        if kind == "scaled":
            pairs = [(value, scale) for value, scale in data]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"cannot read tensor file {path}: {exc}") from exc
    # Exact JSON types, converting nothing: ``type(v) is int`` refuses
    # floats, strings and bools alike.
    if any(type(d) is not int for d in shape):
        raise UsageError(f"bad tensor file {path}: shape {list(shape)} must hold integers")
    if kind == "f64":
        if any(type(v) not in (int, float) for v in data):
            raise UsageError(f"bad tensor file {path}: f64 data must be numbers")
        tensor_type = FTensor
        try:
            elements = tuple(float(v) for v in data)
        except OverflowError as exc:
            raise UsageError(f"bad tensor file {path}: f64 entry past FP64's range") from exc
    elif kind == "scaled":
        for value, scale in pairs:
            if type(value) is not int or type(scale) is not int:
                raise UsageError(f"bad tensor file {path}: scaled entry "
                                 f"{[value, scale]} is not two integers")
            if abs(value) > cfg.max_magnitude:
                raise RangeError(f"stored integer {value} exceeds +/-{cfg.max_magnitude}")
            if not cfg.scale_min <= scale <= cfg.scale_max:
                raise RangeError(f"scale {scale} outside [{cfg.scale_min}, {cfg.scale_max}]")
        tensor_type = QTensor
        elements = tuple(box(pair, cfg) for pair in pairs)
    else:
        raise UsageError(f"unknown tensor kind {kind!r}")
    try:
        return tensor_type(shape, elements)
    except ShapeError as exc:
        raise UsageError(f"bad tensor file {path}: {exc}") from exc


def memory_report(cfg: ScaleConfig) -> dict:
    return {**dataclasses.asdict(cfg), "bits_per_element": cfg.bits_per_element,
            "reduction_factor": cfg.reduction_factor}
