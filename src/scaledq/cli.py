"""Command-line harness.

Subcommands: ``bench`` (one MSE experiment row, or the whole regression
suite), ``invsqrt`` (side-by-side quantized and FP64 Newton traces),
``div-sweep`` (exhaustive quotient error sweep), ``quantize`` (inspect one
encoding), ``gelu-curve`` (sampled activation CSV) and ``info`` (format and
memory accounting).

Exit codes: 0 success, 1 usage or configuration error, 2 numeric domain
error in supplied data.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from typing import Iterable

from .core import (
    DivisionByZero,
    DomainError,
    GELU_VARIANTS,
    MAX_NEWTON_ITERS,
    RangeError,
    ScaleConfig,
    ScaledInt,
    dequantize,
    quantize,
)
from .newton import default_seed, newton_inv_sqrt
from .ops import ShapeError, gelu
from .bench import (
    MAX_ELEMENTS,
    ExperimentSpec,
    OPERATORS,
    READS,
    UsageError,
    div_sweep,
    load_tensor,
    memory_report,
    run_bench,
    run_suite,
    save_tensor,
    suite_specs,
    to_csv,
)
from .reference import FTensor, dequantize_tensor, ref_gelu_exact, ref_newton_inv_sqrt


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this harness reserves 2 for
    # numeric domain errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(p: argparse.ArgumentParser, *keys: str):
    """Add ``--config`` and a flag for each config key in ``keys``, the keys
    the command reads.  A config file may hold every key on every command."""
    p.add_argument("--config", help="JSON config file")
    for key in keys:
        kind = {"choices": GELU_VARIANTS} if key == "gelu_variant" else {"type": int}
        p.add_argument("--" + key.replace("_", "-"), **kind)


def _build_config(args) -> tuple[ScaleConfig, int]:
    defaults = {f.name: f.default for f in dataclasses.fields(ScaleConfig)}
    defaults["seed"] = 0
    values = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                values = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(values, dict):
            raise UsageError(f"config file must hold a JSON object, "
                             f"got {type(values).__name__}")
        unknown = sorted(set(values) - set(defaults))
        if unknown:
            raise UsageError(f"unknown config keys: {unknown}")
        for key, value in values.items():
            if type(value) is not type(defaults[key]):
                raise UsageError(f"config key {key} must be "
                                 f"{type(defaults[key]).__name__}, got {value!r}")
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    seed = values.pop("seed", 0)
    try:
        return ScaleConfig(**values), seed
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scaledq",
                     description="Scaled-integer quantization benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run one MSE experiment (or 'suite' for all rows)",
                       parents=[], add_help=True)
    b.add_argument("operator", choices=OPERATORS + ("suite",))
    b.add_argument("--batch", type=int)
    b.add_argument("--in-channels", type=int)
    b.add_argument("--out-channels", type=int)
    b.add_argument("--kernel", type=int)
    b.add_argument("--height", type=int)
    b.add_argument("--width", type=int)
    b.add_argument("--trials", type=int)
    b.add_argument("--weight-mode", choices=("random", "identity"))
    b.add_argument("--input-file", help="fixed input tensor (JSON), reused every trial")
    b.add_argument("--json", action="store_true", dest="as_json")
    b.add_argument("--out", help="write report to this path instead of stdout")
    _add_config_flags(b, "p_bits", "scale_bits", "newton_iters", "gelu_variant", "seed")

    iv = sub.add_parser("invsqrt", help="quantized vs FP64 inverse square root trace")
    iv.add_argument("value", type=float)
    iv.add_argument("--int", type=int, dest="int_", help="stored magnitude (default: quantize VALUE)")
    iv.add_argument("--scale", type=int, help="stored scale for --int")
    iv.add_argument("--y0-int", type=int, help="seed magnitude (default: the Newton default seed)")
    iv.add_argument("--y0-scale", type=int, help="seed scale (default: the Newton default seed)")
    iv.add_argument("--iters", type=int)
    iv.add_argument("--json", action="store_true", dest="as_json")
    _add_config_flags(iv, "p_bits", "scale_bits")

    dv = sub.add_parser("div-sweep", help="exhaustive scaled-division error sweep")
    dv.add_argument("--json", action="store_true", dest="as_json")
    _add_config_flags(dv, "p_bits", "scale_bits")

    qz = sub.add_parser("quantize", help="show the encoding of one value")
    qz.add_argument("value", type=float)
    qz.add_argument("--json", action="store_true", dest="as_json")
    _add_config_flags(qz, "p_bits", "scale_bits")

    gc = sub.add_parser("gelu-curve", help="CSV of x, quantized and exact activation values")
    gc.add_argument("--start", type=float, default=-4.0)
    gc.add_argument("--stop", type=float, default=4.0)
    gc.add_argument("--steps", type=int, default=81)
    gc.add_argument("--variant", choices=GELU_VARIANTS)
    _add_config_flags(gc, "p_bits", "scale_bits")

    info = sub.add_parser("info", help="format parameters and memory accounting")
    info.add_argument("--json", action="store_true", dest="as_json")
    _add_config_flags(info, "p_bits", "scale_bits", "newton_iters", "gelu_variant")

    st = sub.add_parser("save-tensor", help="generate and store a random f64 tensor")
    st.add_argument("path")
    st.add_argument("--shape", required=True, help="comma-separated dims, e.g. 1,3,16,16")
    st.add_argument("--low", type=float, default=0.0)
    st.add_argument("--high", type=float, default=1.0)
    _add_config_flags(st, "seed")

    return parser


def _emit(args, out, rows: Iterable[dict], doc) -> int:
    """Write ``rows`` as CSV, or ``doc`` as JSON under ``--json``, to ``out``.
    CSV is written as the rows come, so a generator of rows is never held
    whole."""
    if getattr(args, "as_json", False):
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        out.writelines(to_csv(rows))
    return 0


def _open_out(path: str | None, out):
    """``path`` opened for the report, or ``out`` when no path is given.
    Called before any work, so a path that cannot be written costs none."""
    if not path:
        return contextlib.nullcontext(out)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


# bench flag dest -> the ExperimentSpec field it sets.  These flags have no
# argparse default, so an unset one leaves the spec's default and ``bench``
# can tell which ones were given.
_SPEC_FIELDS = {"batch": "b", "in_channels": "i", "out_channels": "o", "kernel": "k",
                "height": "h", "width": "w", "trials": "trials", "weight_mode": "weight_mode"}


def _cmd_bench(args, out) -> int:
    reads, flag = READS[args.operator], {d: "--" + d.replace("_", "-") for d in vars(args)}
    unread = [flag[d] for d, v in vars(args).items() if v is not None
              and d not in (*reads, "command", "operator", "as_json", "out")]
    if unread:
        raise UsageError(f"bench {args.operator} reads only "
                         f"{', '.join(flag[d] for d in reads)}, not {', '.join(unread)}")
    cfg, seed = _build_config(args)
    if args.operator == "suite":
        sizes = {k: v for k, v in (("side", args.height), ("trials", args.trials))
                 if v is not None}
        suite_specs(seed, **sizes)  # refuses a bad size before --out is opened
    else:
        spec = ExperimentSpec(args.operator, seed=seed,
                              **{f: getattr(args, d) for d, f in _SPEC_FIELDS.items()
                                 if getattr(args, d) is not None})
        fixed = None
        if args.input_file:
            fixed = load_tensor(args.input_file, cfg)
            if not isinstance(fixed, FTensor):
                fixed = dequantize_tensor(fixed)
    with _open_out(args.out, out) as sink:
        if args.operator == "suite":
            reports = run_suite(cfg, seed=seed, **sizes)
        else:
            reports = [run_bench(spec, cfg, fixed_input=fixed)]
        rows = [r.row() for r in reports]
        docs = [{**row, "wall_time_s": r.wall_time_s} for row, r in zip(rows, reports)]
        return _emit(args, sink, rows, docs if args.operator == "suite" else docs[0])


def _stored(prefix: str, magnitude: int, scale: int, cfg: ScaleConfig) -> ScaledInt:
    """A stored value given as ``--{prefix}int``/``--{prefix}scale``, refused
    unless it is in the configured format."""
    if not 0 <= magnitude <= cfg.max_magnitude:
        raise UsageError(f"--{prefix}int {magnitude} is outside [0, {cfg.max_magnitude}]")
    if not cfg.scale_min <= scale <= cfg.scale_max:
        raise UsageError(f"--{prefix}scale {scale} is outside "
                         f"[{cfg.scale_min}, {cfg.scale_max}]")
    return ScaledInt(magnitude, scale)


def _cmd_invsqrt(args, out) -> int:
    cfg, _ = _build_config(args)
    if (args.int_ is None) != (args.scale is None):
        raise UsageError("--int and --scale must be given together")
    if args.int_ is not None:
        if args.int_ <= 0:
            raise DomainError("--int must be positive")
        x = _stored("", args.int_, args.scale, cfg)
        if dequantize(x) != args.value:
            raise UsageError(f"VALUE {args.value!r} is not --int {args.int_} / "
                             f"2**{args.scale} = {dequantize(x)!r}")
    else:
        x = quantize(args.value, cfg)
    seed = default_seed(cfg)
    y0 = _stored("y0-", seed.magnitude if args.y0_int is None else args.y0_int,
                 seed.scale if args.y0_scale is None else args.y0_scale, cfg)
    iters = args.iters if args.iters is not None else cfg.newton_iters
    if not 0 <= iters <= MAX_NEWTON_ITERS:
        raise UsageError(f"--iters {iters} is outside [0, {MAX_NEWTON_ITERS}]")
    final, trace = newton_inv_sqrt(x, y0, iters, cfg)
    try:
        _, fp_seq = ref_newton_inv_sqrt(args.value, dequantize(y0), iters)
    except OverflowError:
        fp_seq = [math.inf]
    if not all(map(math.isfinite, fp_seq)):
        raise UsageError(f"the FP64 iteration diverges from seed {dequantize(y0)!r}; "
                         f"it reaches 1/sqrt(x) only from seeds below sqrt(3 / x)")
    rows = [{"iteration": j, "fp64": fp_seq[j], "int": y.magnitude,
             "scale": y.scale, "quantized": dequantize(y)}
            for j, y in trace.entries]
    return _emit(args, out, rows, {"rows": rows, "final": dequantize(final)})


def _cmd_div_sweep(args, out) -> int:
    cfg, _ = _build_config(args)
    row = dataclasses.asdict(div_sweep(cfg))
    return _emit(args, out, [row], row)


def _cmd_quantize(args, out) -> int:
    cfg, _ = _build_config(args)
    q = quantize(args.value, cfg)
    back = dequantize(q)
    row = {"value": args.value, "int": q.signed_magnitude, "scale": q.scale,
           "dequantized": back, "abs_err": abs(back - args.value)}
    return _emit(args, out, [row], row)


def _cmd_gelu_curve(args, out) -> int:
    cfg, _ = _build_config(args)
    if not 2 <= args.steps <= MAX_ELEMENTS:
        raise UsageError(f"--steps {args.steps} is outside [2, {MAX_ELEMENTS}]")
    variant = args.variant or cfg.gelu_variant
    step = (args.stop - args.start) / (args.steps - 1)
    xs = (args.start + step * i for i in range(args.steps))
    rows = ({"x": x, "quantized": dequantize(gelu(quantize(x, cfg), cfg, variant=variant)),
             "exact": ref_gelu_exact(x)} for x in xs)
    return _emit(args, out, rows, None)


def _cmd_info(args, out) -> int:
    cfg, _ = _build_config(args)
    report = memory_report(cfg)
    return _emit(args, out, [report], report)


def _cmd_save_tensor(args, out) -> int:
    import random as _random

    cfg, seed = _build_config(args)
    try:
        shape = tuple(int(d) for d in args.shape.split(","))
    except ValueError as exc:
        raise UsageError(f"bad shape {args.shape!r}") from exc
    if any(d < 1 for d in shape):
        raise UsageError(f"shape dims must be positive, got {args.shape}")
    n = math.prod(shape)
    if n > MAX_ELEMENTS:
        raise UsageError(f"shape {shape} has {n} elements, above {MAX_ELEMENTS}")
    rng = _random.Random(seed)
    span = args.high - args.low
    data = tuple(args.low + span * rng.random() for _ in range(n))
    save_tensor(args.path, FTensor(shape, data))
    out.write(f"wrote {args.path}\n")
    return 0


_COMMANDS = {
    "bench": _cmd_bench,
    "invsqrt": _cmd_invsqrt,
    "div-sweep": _cmd_div_sweep,
    "quantize": _cmd_quantize,
    "gelu-curve": _cmd_gelu_curve,
    "info": _cmd_info,
    "save-tensor": _cmd_save_tensor,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except UsageError as exc:
        print(f"scaledq: error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, DivisionByZero, RangeError, ShapeError) as exc:
        print(f"scaledq: numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
