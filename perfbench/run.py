"""scaledq benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload conv --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the integer path is imported from
``src/scaledq`` there.  Every workload runs in fresh single-threaded worker
processes (``worker.py``): with ``--trace 0``, eight that only set up (for the
median set-up time) and one that runs passes for ``--seconds`` and scores the
output against the workload's FP64 twin; with ``--trace 1``, one that runs
untraced passes and then traced ones.  Times are reported at a reference
machine speed: each is scaled by a calibration block timed next to it (see
``worker.CAL_REF_S``).  The metric names and their bounds are
in ``BENCHMARK.json``; what each one means is in ``perfbench/README.md``.

Prints a readable report, then one JSON line:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Exits 2 with a one-line message on bad arguments or a missing source tree,
and 1 if a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("conv", "encoder", "norm", "suite")
SETUP_PROBES = 8
RUN_LIMIT_S = 170

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MiB",
              "mse": "sq_err", "max_abs_err": "abs_err"}


class UsageError(Exception):
    pass


class WorkerError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = _Parser(prog="perfbench/run.py", add_help=False)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", default="0")
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0")
    args = p.parse_args(argv)
    if args.workload not in WORKLOADS:
        raise UsageError(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    for flag in ("seed", "seconds"):
        try:
            setattr(args, flag, int(getattr(args, flag)))
        except ValueError:
            raise UsageError(f"--{flag} must be an integer, got {getattr(args, flag)!r}") from None
    if not 1 <= args.seconds <= 60:
        raise UsageError(f"--seconds must be from 1 to 60, got {args.seconds}")
    if args.trace not in ("0", "1"):
        raise UsageError(f"--trace must be 0 or 1, got {args.trace!r}")
    return args


def worker(args: argparse.Namespace, mode: str, deadline: float) -> tuple[float, dict]:
    """Start one worker, wait for it (at most until ``deadline`` on the
    monotonic clock), return its spawn time and its result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), mode]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"run did not finish within {RUN_LIMIT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise WorkerError(f"worker exited {proc.returncode}: {last}")
    try:
        return spawned, json.loads(lines[-1])
    except ValueError:
        raise WorkerError(f"worker printed no result: {lines[-1][:200]}") from None


def pass_time(case_s: list[list[float]], pick=statistics.median) -> float | None:
    """Seconds per pass: a pass runs every case once, so this sums ``pick``
    (by default the median) of each case's timed runs."""
    if not all(case_s):
        return None
    return sum(pick(times) for times in case_s)


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_PROBES):
        spawned, probe = worker(args, "setup", deadline)
        setups.append((probe["ready"] - spawned) * probe["cal_scale"])
    spawned, res = worker(args, "0", deadline)
    setups.append((res["ready"] - spawned) * res["cal_scale"])
    if "mse" not in res:
        return res, {}
    return res, {"setup_s": statistics.median(setups),
                 "pass_s": pass_time(res["case_ref_s"]),
                 "peak_rss_mb": res["peak_rss_mb"],
                 "mse": res["mse"], "max_abs_err": res["max_abs_err"]}


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    _, res = worker(args, "1", deadline)
    traced, untraced = pass_time(res["traced_case_ref_s"]), pass_time(res["case_ref_s"])
    if traced is None or untraced is None:
        return res, {}
    return res, dict(res["layers"], **{"trace.overhead": traced / untraced})


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "trace.overhead":
        return "ratio"
    if name.endswith("max_abs_err"):
        return "abs_err"
    if name.endswith("terms_per_call"):
        return "terms/call"
    return "count"


def main(argv: list[str]) -> int:
    try:
        args = parse_args(argv)
        if not (ROOT / "src" / "scaledq" / "__init__.py").is_file():
            raise UsageError(f"no scaledq sources under {ROOT / 'src'}; run from a checkout")
        deadline = time.monotonic() + RUN_LIMIT_S
        res, metrics = (per_layer if args.trace == "1" else end_to_end)(args, deadline)
    except UsageError as exc:
        print(f"perfbench/run.py: error: {exc}", file=sys.stderr)
        return 2
    except WorkerError as exc:
        print(f"perfbench/run.py: error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"output sha256 {res['sha256']}")
    if all(res["case_s"]):
        print(f"  untraced: {len(res['case_s'])} cases, {min(map(len, res['case_s']))} "
              f"passes; raw wall s per pass from each case's fastest "
              f"{pass_time(res['case_s'], min):.4f}, median {pass_time(res['case_s']):.4f}, "
              f"slowest {pass_time(res['case_s'], max):.4f}; at reference speed, median "
              f"{pass_time(res['case_ref_s']):.4f}")
    for reason in res["failures"]:
        print(f"  failure: {reason}")
    print(f"  fail_ratio {failed / attempted:.6g} ({failed}/{attempted} case runs)")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {unit(name)}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
