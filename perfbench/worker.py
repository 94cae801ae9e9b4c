"""One workload in one fresh process; started by ``run.py``.

Usage: ``worker.py WORKLOAD SEED SECONDS MODE`` with MODE one of

- ``setup``: build the inputs, print the monotonic time they were ready and
  the calibration scale measured right after;
- ``0``: untraced passes for SECONDS, then score against the FP64 twin;
- ``1``: untraced passes for a third of SECONDS, then the set-up and
  passes again under the tracer for the rest, and per-layer metrics.

A pass runs each of the workload's cases once; only whole passes are run.

Prints one JSON object on its last line.  ``run.py`` validates the arguments.
"""

from __future__ import annotations

import csv
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from scaledq import core

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".perfbench"

# On a 2-vCPU virtual machine shared with other tenants, their load slowed
# runs by up to 1.6x, in bursts from milliseconds to minutes, and raw wall
# times moved by up to a quarter between runs.  So every timed case is
# divided by the mean time of the fixed calibration block run just before
# and just after it, which shares the load, and scaled back to seconds by
# CAL_REF_S: the block's fastest time on that machine when unloaded.
CAL_STEPS = 100_000
CAL_REF_S = 0.034


def _cal_step(a: int, b: int) -> tuple[int, int, bool]:
    m = a * b
    k = m.bit_length() - 8
    if k > 0:
        m >>= k
    return m, k, a < b


def calibration() -> float:
    """Wall seconds of a fixed block of pure-Python integer work shaped like
    the scalar path (multiply, bit_length, shift, compare, small tuples).
    It uses nothing from ``scaledq``, so a change there cannot move it."""
    start = time.perf_counter()
    x, out = 12345, []
    for _ in range(CAL_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        out.append(_cal_step(x & 255, (x >> 8) & 255))
        if len(out) == 1024:  # churn memory like the scalar path, hold little
            out.clear()
    return time.perf_counter() - start


class Passes:
    """Runs passes over a workload's cases, timing each case on its own, and
    checks every output against the first output of the same case."""

    def __init__(self, workload: workloads.Workload, cases: int):
        self.wl = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.first: list = [None] * cases
        self.first_bytes: list[bytes | None] = [None] * cases
        self.saturations: list[int] = []

    def run(self, cases: list, seconds: float, before=None, after=None) -> tuple[list, list]:
        """Passes over every case until ``seconds`` have gone by (at least
        one pass).  Returns, per case, the wall time of each run of it that
        did not fail, and the same at reference speed (see ``CAL_REF_S``).
        ``before`` and ``after`` are called around each case, outside its
        timed region."""
        times: list[list[float]] = [[] for _ in cases]
        scaled: list[list[float]] = [[] for _ in cases]
        deadline = time.perf_counter() + seconds
        cal_before = calibration()
        n = 0
        while n == 0 or n % len(cases) or time.perf_counter() < deadline:
            i = n % len(cases)
            n += 1
            self.attempted += 1
            if before is not None:
                before()
            sat = core.SaturationCounter()
            start = time.perf_counter()
            try:
                out = self.wl.run(cases[i], sat)
            except Exception as exc:  # a failed case is counted, not fatal
                self.failures.append(f"raised {type(exc).__name__}: {exc}")
                continue
            finally:
                took = time.perf_counter() - start
                if after is not None:
                    after()
                cal_after = calibration()
                cal, cal_before = (cal_before + cal_after) / 2, cal_after
            reason = self.wl.check(out)
            data = self.wl.to_bytes(out)
            if reason is None and self.first_bytes[i] not in (None, data):
                reason = "output bytes differ from the case's first run"
            if reason is not None:
                self.failures.append(reason)
                continue
            if self.first[i] is None:
                self.first[i], self.first_bytes[i] = out, data
            self.saturations.append(self.wl.saturations(out, sat))
            times[i].append(took)
            scaled[i].append(took * CAL_REF_S / cal)
        return times, scaled

    def summary(self) -> dict:
        data = b"\0".join(b or b"" for b in self.first_bytes)
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": sorted(set(self.failures)), "sha256": workloads.sha256(data)}


def _phase_values(tr: tracing.Tracer) -> list[dict]:
    """Counts and self times of each phase (set-up first, then each pass);
    phases with a negative id hold the output checks and are left out."""
    self_s = tracing.self_times(tr.spans)
    by_phase: dict[int, dict[str, float]] = {p: {} for p in tr.snapshots}
    for span, own in zip(tr.spans, self_s):
        name, pass_id = span[0], span[4]
        if name.startswith("reference."):
            name = "reference"
        values = by_phase.setdefault(pass_id, {})
        values[f"{name}.calls"] = values.get(f"{name}.calls", 0) + 1
        values[f"{name}.self_s"] = values.get(f"{name}.self_s", 0.0) + own
    phases, prev = [], None
    for pass_id, snap in tr.snapshots.items():
        values = by_phase[pass_id]
        for name, (calls, own) in snap["counted"].items():
            before = prev["counted"][name] if prev else (0, 0.0)
            values[f"{name}.calls"] = calls - before[0]
            values[f"{name}.self_s"] = own - before[1]
        before = prev["newton"] if prev else (0, 0, 0, 0)
        for key, now, then in zip(("calls", "iters", "useful", "unconverged"),
                                  snap["newton"], before):
            values[f"newton.{key}"] = now - then
        values["ops.sum_aligned.terms"] = snap["sum_terms"] - (prev["sum_terms"] if prev else 0)
        if pass_id >= 0:
            phases.append(values)
        prev = snap
    return phases


def layer_metrics(tr: tracing.Tracer, cases: int, saturations: int) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one pass over every case: the
    set-up phase's values plus the traced cases' totals per pass.
    ``saturations`` is the total over the traced cases."""
    setup, *runs = _phase_values(tr)
    passes = len(runs) / cases
    keys = set(setup).union(*runs)
    v = {k: setup.get(k, 0) + sum(r.get(k, 0) for r in runs) / passes for k in keys}
    saturations /= passes
    get = lambda k: v.get(k, 0)  # noqa: E731
    out = {}
    for name in tracing.CORE:
        out[f"core.{name}.calls"] = get(f"core.{name}.calls")
        out[f"core.{name}.self_s"] = get(f"core.{name}.self_s")
    out["core.saturations"] = saturations
    calls = get("core.handle_overflow.calls")
    out["core.saturation_ratio"] = saturations / calls if calls else 0.0
    for name in ("sum_aligned",) + tracing.OPS:
        out[f"ops.{name}.calls"] = get(f"ops.{name}.calls")
        out[f"ops.{name}.self_s"] = get(f"ops.{name}.self_s")
    calls = get("ops.sum_aligned.calls")
    out["ops.sum_aligned.terms_per_call"] = get("ops.sum_aligned.terms") / calls if calls else 0.0
    for key in ("calls", "iters", "unconverged", "self_s"):
        out[f"newton.{key}"] = get(f"newton.{key}")
    iters = get("newton.iters")
    out["newton.useful_ratio"] = get("newton.useful") / iters if iters else 0.0
    out["reference.self_s"] = get("reference.self_s")
    out["bench.quantize_s"] = get("bench.quantize.self_s") + get("core.quantize.self_s")
    return out


def write_spans(tr: tracing.Tracer, path: Path):
    path.parent.mkdir(exist_ok=True)
    origin = min((s[1] for s in tr.spans), default=0.0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(("name", "start_s", "end_s", "parent", "pass_id", "counted_s", "self_s"))
        for span, own in zip(tr.spans, tracing.self_times(tr.spans)):
            name, start, end, parent, pass_id, counted_s = span
            out.writerow((name, f"{start - origin:.9f}", f"{end - origin:.9f}",
                          parent, pass_id, f"{counted_s:.9f}", f"{own:.9f}"))


def traced(wl: workloads.Workload, seed: int, seconds: float, passes: Passes) -> dict:
    tr = tracing.Tracer({workloads.quantize_tensor: "bench.quantize"})
    state = {"n": 0}

    def next_case():
        state["n"] += 1
        tr.begin(state["n"])
        tr.capture = state["n"] <= len(passes.first)

    def checks():
        tr.begin(-state["n"])
        tr.capture = False

    sats_before = len(passes.saturations)
    with tr:
        cases = wl.setup(seed)
        times, scaled = passes.run(cases, seconds, next_case, checks)
    leftover = tr.installed()
    if leftover:
        raise RuntimeError(f"wrappers left installed: {leftover}")
    metrics = layer_metrics(tr, len(cases), sum(passes.saturations[sats_before:]))
    for name in tracing.SCORED:
        metrics[f"ops.{name}.max_abs_err"] = workloads.stage_error(name, tr.captures[name])
    write_spans(tr, TRACE_DIR / f"trace-{wl.name}-seed{seed}.csv")
    return {"traced_case_s": times, "traced_case_ref_s": scaled, "layers": metrics}


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[1], int(argv[2]), float(argv[3]), argv[4]
    wl = workloads.WORKLOADS[name]
    cases = wl.setup(seed)
    result = {"ready": time.monotonic()}
    result["cal_scale"] = CAL_REF_S / statistics.median(calibration() for _ in range(3))
    if mode != "setup":
        passes = Passes(wl, len(cases))
        untraced_s = seconds if mode == "0" else seconds / 3
        start = time.perf_counter()
        result["case_s"], result["case_ref_s"] = passes.run(cases, untraced_s)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if mode == "1":
            left = seconds - (time.perf_counter() - start)
            result.update(traced(wl, seed, left, passes))
        elif None not in passes.first:
            result["mse"], result["max_abs_err"] = wl.score(cases, passes.first)
        result.update(passes.summary())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
