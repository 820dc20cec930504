"""Run the heishardy CLI in a child process that times itself.

    python3 bench/clihook.py [--trace] ARGS...    # same as `heishardy ARGS...`

Standard output and the exit code are the CLI's own.  From importing
heishardy to the end of `heishardy.cli.main`, the host-speed kernel samples
this process (see hostspeed.py); with --trace the layer tracer is installed
too.  One line on standard error, starting with MARKER, reports that
interval, raw and adjusted, and the trace summary.  The parent combines it
with its own wall time in ``child_seconds``.
"""

import json
import sys
import time

from hostspeed import HostSpeed

MARKER = "@@heishardy-bench "


def split_report(stderr: str) -> tuple[dict | None, str]:
    """The child's report and the rest of its standard error."""
    report, kept = None, []
    for line in stderr.splitlines(keepends=True):
        if line.startswith(MARKER):
            report = json.loads(line[len(MARKER):])
        else:
            kept.append(line)
    return report, "".join(kept)


def child_seconds(wall: float, report: dict | None) -> tuple[float, float]:
    """Raw and adjusted seconds of one child process that the parent timed as ``wall``.

    The child's kernel time is left out; only the interval the child sampled
    is adjusted, interpreter start-up and exit stay raw.
    """
    if report is None:  # the child died before reporting
        return wall, wall
    raw = wall - report["busy"]
    return raw, raw - report["raw"] + report["adjusted"]


def main() -> int:
    args = sys.argv[1:]
    tracer = None
    speed = HostSpeed()
    with speed:
        t0, busy0 = time.perf_counter(), speed.busy
        try:
            if args[:1] == ["--trace"]:
                from tracer import Tracer

                args = args[1:]
                tracer = Tracer(clock=speed.clock)
                tracer.install()
            import heishardy.cli

            code = heishardy.cli.main(args)
        except SystemExit as exc:  # argparse exits for --version and usage errors
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        finally:
            sys.stdout.flush()
            t1, busy1 = time.perf_counter(), speed.busy
            if tracer is not None:
                tracer.uninstall()
    raw = t1 - t0 - (busy1 - busy0)
    report = {
        "raw": raw,
        "adjusted": raw * speed.speed(t0, t1),
        "busy": speed.busy,
        "trace": tracer.summary() if tracer is not None else None,
    }
    print(MARKER + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
