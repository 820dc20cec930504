"""One workload process: set-up, the timed closed loop, or the traced passes.

    python3 bench/worker.py --workload NAME --seed N --mode setup|measure|trace
                            [--seconds S] [--smoke]

``setup`` times building the workload's inputs (importing heishardy and
constructing the spaces, queries and constants) in this fresh interpreter,
and prints the raw and adjusted seconds.

``measure`` runs whole rounds, one operation at a time (closed loop, one
client), for about ``--seconds`` and at least the workload's ``min_ops``
operations.  Latencies are adjusted for the host's speed while
they were taken (see hostspeed.py; a cli operation's child process times
itself, see clihook.py); the raw figures go to the detail record.

``trace`` runs the workload's fixed trace operations four times: untraced,
traced twice, untraced again, and checks that the counters of the traced
passes and the outputs of all passes agree.

Outputs are checked after the timed passes (see workloads.py).  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from hostspeed import HostSpeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
TAIL_BEYOND = 10  # the tail percentile keeps at least this many operations beyond it


@dataclass
class Result:
    """One execution of one operation."""

    op: Any
    latency: float  # host-speed adjusted
    raw: float
    kept: Any = None  # the (reduced) output, until it is checked
    error: str | None = None
    failed: bool = False
    incorrect: bool = False
    covered: int = 0
    coverable: int = 0
    record: str = ""


def execute(op, speed: HostSpeed) -> Result:
    """Run one operation while ``speed`` samples the host."""
    t0, busy0 = time.perf_counter(), speed.busy
    error = None
    try:
        out = op.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        error = f"{op.label}: {type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    raw = t1 - t0 - (speed.busy - busy0)
    res = Result(op, raw * speed.speed(t0, t1), raw, error=error)
    if error is None and hasattr(out, "seconds"):  # a child process that timed itself
        res.raw, res.latency = out.seconds
    if error is None:
        try:
            res.kept = op.reduce(out) if op.reduce else out
        except Exception:  # a malformed output is a missed check
            res.error = f"{op.label}: reduce raised\n{traceback.format_exc()}"
            res.incorrect = True
    return res


def check(res: Result) -> None:
    """Fill in the verdict of one execution; needs the workload's references."""
    if res.error is not None:
        res.failed, res.record = True, res.error
        return
    try:
        outcome = res.op.check(res.kept)
    except Exception:  # a malformed output is a missed check
        res.failed = res.incorrect = True
        res.error = f"{res.op.label}: check raised\n{traceback.format_exc()}"
        res.record = f"{res.op.label}: unchecked"
        return
    res.kept = None
    res.covered, res.coverable, res.record = outcome.covered, outcome.coverable, outcome.record
    if not outcome.ok:
        res.failed = res.incorrect = True
        res.error = f"{res.op.label}: output check missed: {outcome.record[:400]}"


def digest(results: list[Result]) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(res.record.encode())
        h.update(b"\0")
    return h.hexdigest()


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def latency_stats(lat: list[float], failed: int, min_ops: int) -> dict:
    """Throughput, median and tail of one run's latencies.

    The tail percentile is the highest with TAIL_BEYOND operations beyond
    it in a run of min_ops operations, so it is the same in every run (the
    maximum in a smoke run, which is shorter than that).
    """
    lat = sorted(lat)
    pct = 1.0 - TAIL_BEYOND / min_ops if min_ops > TAIL_BEYOND else 1.0
    return {
        "ops_per_s": (len(lat) - failed) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": lat[math.ceil(pct * len(lat)) - 1],
        "tail_percentile": 100.0 * pct,
    }


def measure(wl, seconds: float) -> dict:
    speed = HostSpeed(enabled=not wl.in_children)
    results, rounds = [], 0
    with speed:
        start = time.perf_counter()
        # whole rounds, as many as end closest to `seconds` after the start
        while len(results) < wl.min_ops or (
                (time.perf_counter() - start) * (1.0 + 0.5 / rounds) < seconds):
            results += [execute(op, speed) for op in wl.round(rounds)]
            if rounds == 0:
                round0 = len(results)
            rounds += 1
        wall = time.perf_counter() - start
    peak_mb = peak_rss_mb(wl.in_children)  # before the references are loaded
    wl.prepare_checks()
    for res in results:
        check(res)

    n = len(results)
    failed = sum(r.failed for r in results)
    stats = latency_stats([r.latency for r in results], failed, wl.min_ops)
    covered = sum(r.covered for r in results)
    coverable = sum(r.coverable for r in results)
    return {
        "metrics": {
            "ops_per_s": (stats["ops_per_s"], "1/s"),
            "op_p50_s": (stats["op_p50_s"], "s"),
            "op_tail_s": (stats["op_tail_s"], "s"),
            "success_frac": ((n - failed) / n, "fraction"),
            "err_cover_frac": (covered / coverable if coverable else 0.0, "fraction"),
            "peak_rss_mb": (peak_mb, "MB"),
        },
        "attempted": n,
        "failed": failed,
        "correct": not any(r.incorrect for r in results),
        "detail": {
            "rounds": rounds,
            "wall_s": wall,
            "fail_frac": failed / n,
            "tail_percentile": stats["tail_percentile"],
            "tail_samples": n,
            "raw": latency_stats([r.raw for r in results], failed, wl.min_ops),
            "host_speed": speed.summary(),
            "covered": covered,
            "coverable": coverable,
            "digest_round0": digest(results[:round0]),
            "errors": [r.error for r in results if r.error][:20],
        },
    }


def run_pass(wl, ops, speed: HostSpeed, tracer=None) -> tuple[list[Result], float, float]:
    """Run ops once; return results and their adjusted and raw total seconds."""
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        results.append(execute(op, speed))
    return results, sum(r.latency for r in results), sum(r.raw for r in results)


def traced_pass(wl, ops, speed: HostSpeed):
    """Run ops under the tracer; return (results, adjusted seconds, summary, spans)."""
    from tracer import Tracer, merge_summaries

    if wl.in_children:  # the tracer runs inside each CLI process
        wl.trace_sink, wl.invocations, wl.exit_unexpected = [], 0, 0
        results, adjusted, raw = run_pass(wl, ops, speed)
        summary = merge_summaries(wl.trace_sink)
        summary["counts"]["cli.invocations"] = wl.invocations
        summary["counts"]["cli.exit_unexpected"] = wl.exit_unexpected
        wl.trace_sink = None
        spans = []
    else:
        tracer = Tracer(clock=speed.clock)
        tracer.install()
        try:
            results, adjusted, raw = run_pass(wl, ops, speed, tracer)
        finally:
            tracer.uninstall()
        summary, spans = tracer.summary(), tracer.spans
    # self times are in raw program seconds; adjust them by the pass's host speed
    summary["self_s"] = {k: v * adjusted / raw for k, v in summary["self_s"].items()}
    return results, adjusted, summary, spans


def trace(wl, out_name: str) -> dict:
    from tracer import layer_metrics

    ops = wl.trace_ops()
    speed = HostSpeed(enabled=not wl.in_children)
    # untraced passes before and after the traced ones, so that warm-up
    # costs do not land on either side of the overhead ratio
    with speed:
        base, untraced, _ = run_pass(wl, ops, speed)
        first, traced, summary, spans = traced_pass(wl, ops, speed)
        second, traced2, summary2, _ = traced_pass(wl, ops, speed)
        last, untraced2, _ = run_pass(wl, ops, speed)

    wl.prepare_checks()
    passes = (base, first, second, last)
    for res in base + first + second + last:
        check(res)
    problems = []
    if summary["counts"] != summary2["counts"]:
        keys = sorted(set(summary["counts"]) | set(summary2["counts"]))
        diff = {k: (summary["counts"].get(k), summary2["counts"].get(k)) for k in keys
                if summary["counts"].get(k) != summary2["counts"].get(k)}
        problems.append(f"counters differ between traced passes: {diff}")
    if len({digest(p) for p in passes}) != 1:
        problems.append("outputs differ between the untraced and traced passes")

    metrics = layer_metrics(summary)
    metrics["trace.overhead_frac"] = ((traced + traced2) / (untraced + untraced2) - 1.0, "fraction")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{out_name}.spans.json", "w") as fh:
        json.dump({"fields": ["id", "parent", "op", "name", "start", "end"], "spans": spans}, fh)
    return {
        "metrics": metrics,
        "attempted": len(ops),
        "failed": sum(any(p[i].failed for p in passes) for i in range(len(ops))),
        "correct": not problems and not any(r.incorrect for p in passes for r in p),
        "detail": {
            "trace_ops": len(ops),
            "untraced_s": [untraced, untraced2],
            "traced_s": [traced, traced2],
            "host_speed": speed.summary(),
            "counts": summary["counts"],
            "absent": summary["absent"],
            "spans": summary["spans"],
            "problems": problems,
            "digest": digest(first),
            "errors": [r.error for r in first if r.error][:20],
        },
    }


def time_build(build) -> dict:
    speed = HostSpeed()
    with speed:
        for _ in range(3):  # so that the short interval has samples on both sides
            speed.sample()
        t0, busy0 = time.perf_counter(), speed.busy
        build()
        t1 = time.perf_counter()
        raw = t1 - t0 - (speed.busy - busy0)
        for _ in range(3):
            speed.sample()
    return {"raw": raw, "adjusted": raw * speed.speed(t0, t1)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.mode == "setup":
        print(json.dumps(time_build(lambda: WORKLOADS[args.workload](ROOT, args.seed, args.smoke))))
        return 0
    wl = WORKLOADS[args.workload](ROOT, args.seed, args.smoke)
    if args.mode == "measure":
        result = measure(wl, args.seconds)
    else:
        smoke = "-smoke" if args.smoke else ""
        result = trace(wl, f"trace-{args.workload}-seed{args.seed}{smoke}")
    import numpy

    result["env"] = {"numpy": numpy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
