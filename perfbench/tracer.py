"""Per-layer tracing for the benchmark's traced run.

``Tracer`` replaces public functions of ``scaledq`` with wrappers through the
module attributes their callers look up (``scaledq.ops.scale_mul``,
``scaledq.newton.handle_overflow`` and so on), and puts every original back
when its ``with`` block ends.

- Functions at the ``ops``, ``newton``, ``reference`` and ``bench``
  boundaries record one span per call:
  ``(name, start, end, parent, pass_id, counted_s)``, where ``parent`` is the
  index of the enclosing span (-1 at the top) and ``counted_s`` the time of
  the counted primitives called directly inside it.
- The microsecond-scale primitives (the ``core`` functions and
  ``ops.sum_aligned``) are counted instead: a call count and their self time.

Nothing in ``scaledq`` imports this module.
"""

from __future__ import annotations

import inspect
import sys
import time
from types import ModuleType
from typing import Callable

from scaledq import bench, core, newton, ops, reference
import scaledq

CORE = ("scale_mul", "scale_add", "scale_sub", "scale_div", "shift_scale",
        "handle_overflow", "quantize", "dequantize")
OPS = ("conv2d", "linear", "matmul", "transpose", "layer_norm",
       "softmax_tensor", "gelu_map", "attention")
# Ops whose output is scored, per call, against the FP64 op on its input.
SCORED = ("layer_norm", "softmax_tensor", "linear", "attention", "gelu_map")
COUNTED = tuple(f"core.{name}" for name in CORE) + ("ops.sum_aligned",)
MODULES = (scaledq, core, newton, ops, reference, bench)

_clock = time.perf_counter


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of each span: its duration, less the part of it that its
    child spans cover, less the counted time recorded directly inside it."""
    out = [end - start - counted_s for _, start, end, _, _, counted_s in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            _, p_start, p_end, _, _, _ = spans[parent]
            out[parent] -= max(0.0, min(end, p_end) - max(start, p_start))
    return out


def newton_progress(trace) -> tuple[int, bool]:
    """Iterations run before the trace reaches its final value for good, and
    whether its last two entries differ (the iteration had not settled)."""
    values = [y for _, y in trace.entries]
    useful = len(values) - 1
    while useful > 0 and values[useful - 1] == values[-1]:
        useful -= 1
    return useful, len(values) > 1 and values[-1] != values[-2]


class Tracer:
    """Context manager that installs the wrappers and records into itself.

    ``pass_id`` tags every span and counter snapshot; set it through
    :meth:`begin`.  While ``capture`` is true, the arguments and result of
    every call to a ``SCORED`` op are kept for per-stage scoring.
    """

    def __init__(self, extra_spans: dict[Callable, str] | None = None):
        """``extra_spans`` maps more functions to span names; they are
        patched in their own modules as well as in ``scaledq``."""
        extra_spans = extra_spans or {}
        self.spans: list[tuple | None] = []
        self.counted = {name: [0, 0.0] for name in COUNTED}
        # calls, iterations, useful iterations, unconverged calls
        self.newton = [0, 0, 0, 0]
        self.sum_terms = [0]
        self.captures: dict[str, list] = {name: [] for name in SCORED}
        self.capture = False
        self.pass_id = 0
        self.snapshots: dict[int, dict] = {}
        self._modules = MODULES + tuple(
            dict.fromkeys(sys.modules[fn.__module__] for fn in extra_spans))
        self._stack = [[0.0, -1]]
        self._saved: list[tuple[ModuleType, str, object]] = []
        self._wrappers: dict[int, Callable] = {}
        for name in CORE:
            fn = getattr(core, name)
            self._add(fn, self._counted_wrapper(f"core.{name}", fn))
        self._add(ops.sum_aligned, self._counted_wrapper(
            "ops.sum_aligned", ops.sum_aligned, self.sum_terms))
        for name in OPS:
            fn = getattr(ops, name)
            hook = self._capture_hook(name, fn) if name in SCORED else None
            self._add(fn, self._span_wrapper(f"ops.{name}", fn, hook))
        self._add(newton.newton_inv_sqrt, self._span_wrapper(
            "newton", newton.newton_inv_sqrt, self._newton_hook))
        for name, fn in vars(reference).items():
            if inspect.isfunction(fn) and fn.__module__ == reference.__name__:
                self._add(fn, self._span_wrapper(f"reference.{name}", fn))
        for name in ("run_suite", "run_bench"):
            fn = getattr(bench, name)
            self._add(fn, self._span_wrapper(f"bench.{name}", fn))
        for fn, name in extra_spans.items():
            self._add(fn, self._span_wrapper(name, fn))

    def _add(self, fn: Callable, wrapper: Callable):
        wrapper.__wrapped__ = fn
        self._wrappers[id(fn)] = wrapper

    # --- installing and restoring -------------------------------------

    def __enter__(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for mod in self._modules:
                for attr, value in list(vars(mod).items()):
                    wrapper = self._wrappers.get(id(value))
                    if wrapper is not None:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self):
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)

    def installed(self) -> list[tuple[str, str]]:
        """Every ``(module, attribute)`` that still holds one of this
        tracer's wrappers."""
        live = {id(w) for w in self._wrappers.values()}
        return [(mod.__name__, attr) for mod in self._modules
                for attr, value in vars(mod).items() if id(value) in live]

    def begin(self, pass_id: int):
        """Close the counters of the current phase and start ``pass_id``."""
        self.snapshots[self.pass_id] = {
            "counted": {k: tuple(v) for k, v in self.counted.items()},
            "newton": tuple(self.newton), "sum_terms": self.sum_terms[0]}
        self.pass_id = pass_id

    # --- wrappers ----------------------------------------------------

    def _counted_wrapper(self, name: str, fn: Callable,
                         terms: list[int] | None = None) -> Callable:
        stat, stack = self.counted[name], self._stack

        def wrapper(*args, **kwargs):
            if terms is not None:
                terms[0] += len(args[0] if args else kwargs["terms"])
            frame = [0.0, -1]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = _clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += took - frame[0]
                stack[-1][0] += took
        return wrapper

    def _span_wrapper(self, name: str, fn: Callable,
                      hook: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][1]
            frame = [0.0, index]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.pass_id, frame[0])
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    def _newton_hook(self, _args, _kwargs, result):
        useful, unsettled = newton_progress(result[1])
        stats = self.newton
        stats[0] += 1
        stats[1] += result[1].iters
        stats[2] += useful
        stats[3] += unsettled

    def _capture_hook(self, name: str, fn: Callable) -> Callable:
        signature = inspect.signature(fn)

        def hook(args, kwargs, result):
            if self.capture:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.captures[name].append((bound.arguments, result))
        return hook
