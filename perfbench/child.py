"""One measured wproj CLI invocation in a fresh interpreter.

Usage: python child.py SPAWN_TIME [--trace SPANS_PATH|-] [--cpu N] -- ARGV...

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started
this process (the clock is shared between processes).  The child
imports ``wproj.cli`` from ``src/`` of the benchmark's checkout, calls
``wproj.cli.main(ARGV)`` with stdout captured, copies the captured
output to its stdout, and writes one ``PERFBENCH_RESULT {json}`` line to
stderr with its timings and peak RSS.  Right before and right after
``main()`` it times a fixed calibration loop, so that the parent can
rescale its timings to a reference machine speed.  With ``--trace`` it first
installs the span wrappers and adds per-layer aggregates to the result;
with ``--cpu`` it runs on that CPU only.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def calibrate() -> float:
    """Seconds for a fixed Fraction-and-dict loop.

    On a shared machine the speed of a core changes with its neighbours'
    load; this loop allocates like wproj does, and its time tracks
    wproj's slowdowns (correlation 0.88-0.96 on the 2-core VM the
    benchmark was written on).
    """
    from fractions import Fraction

    t0 = time.perf_counter()
    table = {}
    for i in range(15_000):
        # a bounded table, so that the loop leaves peak RSS alone
        table[i % 512] = (i, Fraction(i, i + 7) + Fraction(1, 3))
    return time.perf_counter() - t0


def main() -> int:
    t_spawn = float(sys.argv[1])
    sep = sys.argv.index("--")
    opts, argv = sys.argv[2:sep], sys.argv[sep + 1:]
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    if "--cpu" in opts:
        os.sched_setaffinity(0, {int(opts[opts.index("--cpu") + 1])})

    import wproj.cli

    src = os.path.join(ROOT, "src", "wproj") + os.sep
    if not os.path.abspath(wproj.cli.__file__).startswith(src):
        sys.stderr.write(f"wproj was imported from {wproj.cli.__file__}, not {src}\n")
        return 4

    # imported after wproj.cli so that they do not shorten its import time
    import io
    import json
    import resource

    tracer = None
    if trace_path is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("cli.main", wproj.cli.main)
    else:
        run = wproj.cli.main

    t_ready = time.monotonic()
    calibration = [calibrate()]
    buf = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, buf
    t_start = time.monotonic()
    try:
        rc = run(argv)
    except SystemExit as exc:  # argparse rejects its arguments
        rc = exc.code
    finally:
        t_done = time.monotonic()
        sys.stdout = real_stdout
    calibration.append(calibrate())
    out = buf.getvalue()
    sys.stdout.write(out)
    sys.stdout.flush()

    result = {
        "rc": rc,
        "setup_s": t_ready - t_spawn,
        "t_start": t_start,
        "t_done": t_done,
        "calibration_s": calibration,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        info = wproj.arith._factor_positive.cache_info()
        result.update(
            layers=tracer.aggregate(),
            cache_hits=info.hits,
            cache_misses=info.misses,
            yielded=tracer.yielded,
            output_bytes=len(out.encode()),
        )
        if trace_path != "-":
            tracer.write(trace_path)
    sys.stderr.write("PERFBENCH_RESULT " + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
