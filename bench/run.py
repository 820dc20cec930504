"""Layered benchmark of heishardy's sharp-constant verification.

    python3 bench/run.py --workload extremal|probe|sampling|cli --seed N
                         --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout (src/ and tests/ next to bench/);
elsewhere it exits with status 2 and prints no result.  Every child process
gets one BLAS/OpenMP thread, and at most one workload process runs at a time.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s         median time, over several fresh interpreters, to import
                  heishardy and build the workload's inputs (numpy is loaded
                  already); for cli, of a whole `heishardy --version` process
  ops_per_s       successful operations per second of operation time
  op_p50_s        median operation latency
  op_tail_s       latency at the highest percentile with >= 10 operations
                  beyond it (percentile and sample count in the detail line)
  success_frac    1 - fail_frac; a failure is an exception, an unexpected exit
                  code or a missed output check
  err_cover_frac  share of reported error bars that cover the deviation from
                  an independent reference
  peak_rss_mb     peak resident memory of the workload process (of the CLI
                  processes, for cli)
Times are adjusted to a reference host speed (see hostspeed.py); the raw
ones are in the detail line.
--trace 1 runs the workload's fixed trace operations untraced and then twice
traced, and reports the per-layer counters, self times and the tracing
overhead; the counters of the two traced passes must agree exactly.

--smoke shrinks every workload to a few seconds; bench/tests use it.
The last line of standard output is the JSON result; the line before it,
prefixed "detail ", holds the environment record, digests and diagnostics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clihook

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("extremal", "probe", "sampling", "cli")
SETUP_REPEATS = 9
DEADLINE_S = 170.0  # the whole run, including set-up timing, ends before this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("HH_SEED", None)  # the CLI would read it as its default seed
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def time_setup(args, env: dict, deadline: float) -> tuple[float, list[float]]:
    """Median adjusted set-up seconds over fresh interpreters, and the raw ones.

    A library workload times its own set-up inside a fresh worker process;
    for cli, set-up is a whole `heishardy --version` process (see clihook.py).
    """
    cli = args.workload == "cli"
    if cli:
        cmd = [sys.executable, str(BENCH / "clihook.py"), "--version"]
    else:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--mode", "setup"] + (["--smoke"] if args.smoke else [])
    times, adjusted = [], []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        end = time.perf_counter()
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed ({proc.returncode}):\n{proc.stderr}")
        if cli:
            raw, adj = clihook.child_seconds(end - start, clihook.split_report(proc.stderr)[0])
            times.append(raw)
            adjusted.append(adj)
        else:
            timed = json.loads(proc.stdout.strip().splitlines()[-1])
            times.append(timed["raw"])
            adjusted.append(timed["adjusted"])
    return statistics.median(adjusted), times


def run_worker(args, env: dict, deadline: float) -> dict:
    mode = "trace" if args.trace else "measure"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise BenchError(f"workload process exceeded the deadline: {exc}") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process failed ({proc.returncode}):\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in ("src/heishardy/__init__.py", "tests/_oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a heishardy source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    # one core for this process and every child, so that runs do not
    # depend on which core the scheduler picks
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = child_env()
    try:
        metrics = {}
        setup_times = None
        if not args.trace:
            setup_s, setup_times = time_setup(args, env, deadline)
            metrics["setup_s"] = (setup_s, "s")
        result = run_worker(args, env, deadline)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    metrics.update(result["metrics"])

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": {
            "git_sha": git_sha(),
            "src_sha256": src_digest(),
            "python": platform.python_version(),
            "numpy": result["env"]["numpy"],
            "nproc": os.cpu_count(),
            "pinned_cpu": cpu,
        },
        "setup_runs_s": setup_times,
        **result["detail"],
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
