"""Benchmark for the wproj command-line tool.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: sunit-preset, box-scan, sing1-audit, cli-scalar (see
perfbench/README.md for why each exists).  Every measured process is a
fresh interpreter that imports ``wproj.cli`` from ``src/`` and calls
``wproj.cli.main(argv)`` with stdout captured.  Outputs are checked
outside the timed region by perfbench/check.py, which does not import
wproj.  With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs traced and untraced processes in pairs and prints
the per-layer metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import check
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = Path(__file__).resolve().parent / "out"
CHILD_TIMEOUT_S = 150
# child.calibrate() on an undisturbed core of the 2-core Xeon VM the
# benchmark was written on; timings are rescaled to this speed
REFERENCE_CALIBRATION_S = 0.037
SCALAR_BLOCK = len(workloads.SCALAR_KINDS)
PAIR_BLOCK = SCALAR_BLOCK // 2

# metric names and units, as listed in BENCHMARK.json
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "items_per_s_w2": "1/s",
    "cli_wall_ms_p50": "ms",
    "cli_wall_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

COUNTED_SPANS = (
    "wpoly.evaluate", "gcdops.wgcd", "gcdops.log_hwgcd", "scan.evaluate_point",
    "arith.factorize", "arith.sympy_fallback", "arith.s_part", "arith.logvalue_cmp",
    "arith.logvalue_of_rational", "points.wpoint_of", "points.sign_canon",
    "singular.is_singular",
)
TIMED_SPANS = (
    "cli.main", "wpoly.evaluate", "gcdops.values_at", "gcdops.wgcd", "gcdops.log_hwgcd",
    "scan.enumerate", "scan.evaluate_point", "scan.vojta_scan", "scan.sing1_audit",
    "arith.factorize", "arith.s_part", "arith.logvalue_cmp", "arith.logvalue_of_rational",
    "points.wpoint_of", "points.sign_canon", "singular.is_singular", "heights.wheight",
    "localheights.global_sum", "localheights.zeta", "cli.format",
)
PER_LAYER_UNITS = {
    **{f"{s}.calls": "count" for s in COUNTED_SPANS},
    **{f"{s}.self_frac": "frac" for s in TIMED_SPANS},
    "scan.enumerate.accept_ratio": "frac",
    "arith.factor_cache.hit_ratio": "frac",
    "cli.output_bytes": "bytes",
    "cli.import_s": "s",
    "arith.import_sympy_s": "s",
    "trace_overhead_frac": "frac",
}


@dataclass
class Proc:
    """One finished child process."""

    argv: list[str]
    sha: str
    result: dict | None  # the child's PERFBENCH_RESULT record; None if it crashed
    wall_s: float
    stderr: str

    @property
    def ok(self) -> bool:
        return self.result is not None and self.result["rc"] == 0

    @property
    def main_s(self) -> float:
        return self.result["t_done"] - self.result["t_start"]

    @property
    def scale(self) -> float:
        """Factor that rescales this process's durations to the reference
        speed: below 1 while the core ran slower than the reference."""
        return REFERENCE_CALIBRATION_S / statistics.mean(self.result["calibration_s"])

    @property
    def wall_net_s(self) -> float:
        """Wall time without the child's calibration loops."""
        return self.wall_s - sum(self.result["calibration_s"])


class Runner:
    """Starts child processes and keeps one copy of each distinct output."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.outputs: dict[str, bytes] = {}
        self.cpus = sorted(os.sched_getaffinity(0))

    def fastest_cpu(self) -> int | None:
        """The CPU that runs a short calibration loop fastest right now.

        On a shared machine each core's speed varies with its neighbours'
        load for seconds at a time; single-worker processes run on the
        core that is currently least disturbed.
        """
        if len(self.cpus) < 2:
            return None
        times = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            total = 0
            for i in range(100_000):
                total += i * i
            times.append((time.perf_counter() - t0, cpu))
        os.sched_setaffinity(0, self.cpus)
        return min(times)[1]

    def run(self, argv: list[str], trace: str | None = None, cpu: int | None = None) -> Proc:
        flags = ["-X", "importtime"] if trace else []
        opts = (["--trace", trace] if trace else []) + (["--cpu", str(cpu)] if cpu is not None else [])
        t_spawn = time.monotonic()
        cmd = [sys.executable, *flags, str(CHILD), repr(t_spawn), *opts, "--", *argv]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              cwd=ROOT, env=self.env) as proc:
            try:
                out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
        wall = time.monotonic() - t_spawn
        sha = hashlib.sha256(out).hexdigest()
        self.outputs.setdefault(sha, out)
        err = err.decode(errors="replace")
        result = None
        for line in err.splitlines():
            if line.startswith("PERFBENCH_RESULT "):
                result = json.loads(line[len("PERFBENCH_RESULT "):])
        return Proc(argv, sha, result, wall, err if trace else "")

    def run_concurrently(self, jobs: list[list[list[str]]]) -> list[Proc]:
        """Each job is a list of argvs run one after another; jobs run at
        the same time, one client thread each."""
        with ThreadPoolExecutor(len(jobs)) as pool:
            futures = [pool.submit(lambda j: [self.run(a) for a in j], job) for job in jobs]
            return [p for f in futures for p in f.result()]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, str]:
    """The highest sample with at least ten samples above it, and its
    percentile label.  Below 21 samples that sample lies under the
    median, so the median is returned instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), "p50 (fewer than 21 samples)"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.0f}"


def median_of(values: list[float]) -> tuple[float, str]:
    return statistics.median(values), f"median of {len(values)}"


def latency(procs: list[Proc]) -> dict:
    """cli_wall_ms_p50 and cli_wall_ms_tail over single-worker processes."""
    walls = [p.wall_net_s * p.scale * 1000 for p in procs]
    value, label = tail(walls)
    raw = statistics.median(p.wall_net_s * 1000 for p in procs)
    return {
        "cli_wall_ms_p50": (statistics.median(walls),
                            f"median of {len(walls)}; unscaled {raw:.6g}"),
        "cli_wall_ms_tail": (value, f"{label} of {len(walls)}"),
    }


def group_rate(items: int, procs: list[Proc]) -> float:
    """Items per second over the span from the first main() start to the
    last main() end of processes that ran at the same time, rescaled."""
    start = min(p.result["t_start"] for p in procs)
    done = max(p.result["t_done"] for p in procs)
    scale = statistics.mean(p.scale for p in procs)
    return items * len(procs) / ((done - start) * scale)


# ---------------------------------------------------------------------------
# measurement loops
# ---------------------------------------------------------------------------

def repeat_until(deadline: float, step) -> None:
    """Call step() at least once, and again while another step of the
    same length still ends before the deadline."""
    while True:
        t0 = time.monotonic()
        step()
        now = time.monotonic()
        if now + (now - t0) > deadline:
            return


def measure_batch(runner: Runner, spec, seconds: float, pooled: bool):
    """Alternate one single-worker process with one two-way group: the
    scan's own --workers 2 pool, or two concurrent audit processes."""
    single: list[Proc] = []
    parallel: list[list[Proc]] = []

    def step():
        single.append(runner.run(spec.argv(), cpu=runner.fastest_cpu()))
        if pooled:
            parallel.append([runner.run(spec.argv(workers=2))])
        else:
            parallel.append(runner.run_concurrently([[spec.argv()], [spec.argv()]]))

    repeat_until(time.monotonic() + seconds, step)
    return single, parallel


def measure_scalar(runner: Runner, commands, seconds: float):
    """Closed loop: one client runs a cycle of the scalar commands, then
    two clients run the next half cycle, a quarter each, at the same
    time.  The single client gets most of the time, so the latency tail
    has samples."""
    single: list[list[tuple]] = []  # blocks of (command, process)
    parallel: list[list[tuple]] = []

    def step():
        cycle = [next(commands) for _ in range(SCALAR_BLOCK)]
        procs = [runner.run(c.argv(), cpu=runner.fastest_cpu()) for c in cycle]
        single.append(list(zip(cycle, procs)))
        cycle = [next(commands) for _ in range(PAIR_BLOCK)]
        procs = runner.run_concurrently([[c.argv() for c in cycle[:PAIR_BLOCK // 2]],
                                         [c.argv() for c in cycle[PAIR_BLOCK // 2:]]])
        parallel.append(list(zip(cycle, procs)))

    repeat_until(time.monotonic() + seconds, step)
    return single, parallel


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class Tally:
    """Items attempted and failed, over every checked process."""

    def __init__(self, outputs: dict[str, bytes]):
        self.outputs = outputs
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        self.cache: dict = {}

    def add(self, proc: Proc, items: int, check_fn, key=None) -> None:
        """Check one process's output (once per distinct output and key)."""
        if not proc.ok:
            self.attempted += items
            self.failed += items
            self.reasons["exit"] += items
            return
        cache_key = (proc.sha, key)
        if cache_key not in self.cache:
            self.cache[cache_key] = check_fn(self.outputs[proc.sha].decode())
        attempted, failed, reasons = self.cache[cache_key]
        self.attempted += attempted
        self.failed += failed
        self.reasons.update(reasons)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def batch_inputs(name: str, seed: int):
    """(spec, pooled, function returning the item count and the output
    check) for a batch workload."""
    if name == "sing1-audit":
        spec = workloads.sing1_audit(seed)

        def expected():
            points = check.audit_points(spec.weights, spec.bound)
            return len(points), lambda text: check.check_audit_json(text, spec.weights, points)
        return spec, False, expected
    spec = workloads.sunit_preset(seed) if name == "sunit-preset" else workloads.box_scan(seed)

    def expected():
        candidates = check.scan_candidates(spec)
        rows = [p for p in candidates if any(check.scan_values(spec, p))]
        return len(candidates), lambda text: check.check_scan_csv(text, spec, rows)
    return spec, True, expected


def client_rate(clients: list[list[tuple]]) -> float:
    """Commands per second of closed-loop clients running at the same
    time: all commands over the busiest client's rescaled process time."""
    busy = max(sum(p.wall_net_s * p.scale for _, p in client if p.ok) for client in clients)
    return sum(len(client) for client in clients) / busy if busy else 0.0


def scalar_check(cmd):
    return lambda text: check.check_scalar(text, cmd)


def batch_end_to_end(name, seed, seconds, runner, tally, info):
    spec, pooled, expected = batch_inputs(name, seed)
    info.append("argv: wproj " + " ".join(spec.argv()))
    single, parallel = measure_batch(runner, spec, seconds, pooled)
    items, check_fn = expected()
    procs = single + [p for group in parallel for p in group]
    for proc in procs:
        tally.add(proc, items, check_fn)
    single_ok = [p for p in single if p.ok]
    groups_ok = [g for g in parallel if all(p.ok for p in g)]
    if not single_ok or not groups_ok:
        return {}, procs
    rates = [items / p.main_s for p in single_ok]
    return {
        "setup_s": median_of([p.result["setup_s"] * p.scale for p in single_ok]),
        "items_per_s": (statistics.median(items / (p.main_s * p.scale) for p in single_ok),
                        f"median of {len(rates)}; unscaled {statistics.median(rates):.6g}"),
        "items_per_s_w2": median_of([group_rate(items, g) for g in groups_ok]),
        **latency(single_ok),
        "peak_rss_mb": median_of([p.result["maxrss_kb"] / 1024 for p in single_ok]),
    }, procs


def scalar_end_to_end(seed, seconds, runner, tally, info):
    commands = workloads.scalar_commands(seed)
    single, parallel = measure_scalar(runner, commands, seconds)
    info.append("commands: " + ", ".join(workloads.SCALAR_KINDS) + " (cycled)")
    procs = []
    for block in single + parallel:
        for cmd, proc in block:
            tally.add(proc, 1, scalar_check(cmd), key=cmd)
            procs.append(proc)
    ok_single = [p for block in single for _, p in block if p.ok]
    if not ok_single:
        return {}, procs
    return {
        "setup_s": median_of([p.result["setup_s"] * p.scale for p in ok_single]),
        "items_per_s": median_of([client_rate([block]) for block in single]),
        "items_per_s_w2": median_of([client_rate([block[:PAIR_BLOCK // 2], block[PAIR_BLOCK // 2:]])
                                     for block in parallel]),
        **latency(ok_single),
        "peak_rss_mb": median_of([p.result["maxrss_kb"] / 1024 for p in ok_single]),
    }, procs


def summarize_end_to_end(values: dict, info: list) -> dict:
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        value, label = values[name]
        metrics[name] = {"value": value, "unit": unit}
        info.append(f"metric {name} = {value:.6g} {unit} ({label})")
    return metrics


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def import_seconds(stderr: str, module: str) -> float:
    """Cumulative import time of a module, from ``-X importtime``."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


def traced_units(name, seed, seconds, runner, tally, info):
    """Pairs of untraced and traced processes.  A unit is one traced
    process (batch) or one traced cycle of the scalar commands."""
    OUT_DIR.mkdir(exist_ok=True)
    plain: list[Proc] = []
    units: list[list[Proc]] = []
    if name == "cli-scalar":
        commands = workloads.scalar_commands(seed)

        def step():
            unit = []
            for i in range(SCALAR_BLOCK):
                cmd = next(commands)
                path = str(OUT_DIR / f"spans-{name}-{i}.tsv.gz") if not units else "-"
                cpu = runner.fastest_cpu()
                for proc, trace in ((runner.run(cmd.argv(), cpu=cpu), False),
                                    (runner.run(cmd.argv(), trace=path, cpu=cpu), True)):
                    tally.add(proc, 1, scalar_check(cmd), key=cmd)
                    (unit if trace else plain).append(proc)
            units.append(unit)

        repeat_until(time.monotonic() + seconds, step)
        info.append("commands: " + ", ".join(workloads.SCALAR_KINDS) + " (cycled)")
        return plain, units, 0
    spec, _, expected = batch_inputs(name, seed)
    info.append("argv: wproj " + " ".join(spec.argv()))

    def step():
        path = str(OUT_DIR / f"spans-{name}.tsv.gz") if not units else "-"
        cpu = runner.fastest_cpu()
        plain.append(runner.run(spec.argv(), cpu=cpu))
        units.append([runner.run(spec.argv(), trace=path, cpu=cpu)])

    repeat_until(time.monotonic() + seconds, step)
    items, check_fn = expected()
    for proc in plain + [u[0] for u in units]:
        tally.add(proc, items, check_fn)
    return plain, units, spec.visited(items)


def per_layer(plain, units, visited, info) -> dict:
    # each untraced process ran right before its traced twin, on the same core
    pairs = [(a, b) for a, b in zip(plain, [p for u in units for p in u]) if a.ok and b.ok]
    units = [u for u in units if all(p.ok for p in u)]
    if not pairs or not units:
        return {}
    traced = [p for u in units for p in u]
    main_s = sum(p.main_s for p in traced)

    def calls(span: str) -> float:
        return statistics.median(
            sum(p.result["layers"].get(span, [0, 0.0])[0] for p in u) for u in units)

    def self_s(span: str) -> float:
        return sum(p.result["layers"].get(span, [0, 0.0])[1] for p in traced)

    values = {f"{span}.calls": calls(span) for span in COUNTED_SPANS}
    values.update({f"{span}.self_frac": self_s(span) / main_s for span in TIMED_SPANS})
    yielded = sum(p.result["yielded"] for p in traced)
    values["scan.enumerate.accept_ratio"] = yielded / (visited * len(traced)) if visited else 0.0
    hits = sum(p.result["cache_hits"] for p in traced)
    lookups = hits + sum(p.result["cache_misses"] for p in traced)
    values["arith.factor_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    values["cli.output_bytes"] = statistics.median(
        sum(p.result["output_bytes"] for p in u) for u in units)
    values["cli.import_s"] = statistics.median(import_seconds(p.stderr, "wproj.cli") for p in traced)
    values["arith.import_sympy_s"] = statistics.median(import_seconds(p.stderr, "sympy") for p in traced)
    values["trace_overhead_frac"] = statistics.median(b.main_s / a.main_s for a, b in pairs) - 1
    info.append(f"traced units: {len(units)}, untraced processes: {len(pairs)}; "
                "spans inside --workers pool children are not collected (traced runs use 1 worker)")
    for span in TIMED_SPANS:
        info.append(f"layer {span}: {calls(span):g} calls per unit, {self_s(span):.4f} s self time")
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        metrics[name] = {"value": values[name], "unit": unit}
        info.append(f"metric {name} = {values[name]:.6g} {unit}")
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def machine_note() -> dict:
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            sha = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sympy": importlib.metadata.version("sympy"),
        "machine": platform.machine(),
        "git_sha": sha,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sunit-preset", "box-scan", "sing1-audit", "cli-scalar"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "wproj" / "cli.py").is_file():
        print(f"error: no wproj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner()
    if not runner.run(["--version"]).ok:  # warm-up: compiles the bytecode cache
        print("error: wproj.cli does not start", file=sys.stderr)
        return 2

    tally = Tally(runner.outputs)
    info = [f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
            "machine: " + json.dumps(machine_note())]
    if args.trace:
        plain, units, visited = traced_units(
            args.workload, args.seed, args.seconds, runner, tally, info)
        procs = plain + [p for u in units for p in u]
        metrics = per_layer(plain, units, visited, info)
    else:
        if args.workload == "cli-scalar":
            samples, procs = scalar_end_to_end(args.seed, args.seconds, runner, tally, info)
        else:
            samples, procs = batch_end_to_end(
                args.workload, args.seed, args.seconds, runner, tally, info)
        metrics = summarize_end_to_end(samples, info) if samples else {}

    for sha, count in Counter(p.sha for p in procs).most_common(4):
        info.append(f"output_sha256 {sha} ({count} of {len(procs)} processes)")
    known = tally.reasons.pop(check.KNOWN_TIE_DEFECT, 0)
    reasons = ", ".join(f"{k}={v}" for k, v in sorted(tally.reasons.items()) if v) or "none"
    info.append(f"failed_frac = {tally.failed}/{tally.attempted} items ({reasons})")
    if known:
        info.append(f"known defect (ROADMAP item 2): {known}/{tally.attempted} rows with "
                    "lhs = rhs exactly flagged exceptional; not counted as failed")
    scales = [p.scale for p in procs if p.ok]
    if scales:
        info.append(f"speed scale (reference calibration / measured): median "
                    f"{statistics.median(scales):.4f}, range {min(scales):.4f}-{max(scales):.4f}")
    for line in info:
        print(line)
    if not metrics:
        print("error: a measured process failed; no metrics", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
