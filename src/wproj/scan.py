"""Scan harness for Vojta-style weighted-GCD inequalities, plus the
log-hwgcd singularity audit.

For each integral tuple x with weighted GCD 1 and no zero coordinate,
the scan compares

    lhs = wgcd(f_1(x), ..., f_t(x))              (gcd weights per config)
    rhs = max_i(|x_i|^{1/q_i})^epsilon
          * s_part(|x_0 ... x_n|, S)^(1/(q*(r-1+delta)))

with q the product of the weights and r the generator count (or an
explicit codimension override).  Rows are deterministic: fixed
enumeration order, no timestamps or randomness in the serialized
output.

The domain is cut into slices (``parts``), one per value of its first
coordinate that varies.  With W workers, slice i is scanned by process
i mod W: this one and W - 1 forked children, each of which enumerates,
evaluates and renders its own slices.  The slices are merged in
enumeration order, so the rows are the same for any worker count.  A
failing slice ends its process's share, and the merge raises the
error of the earliest failing slice in enumeration order: the error
that one worker would have raised first.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence, Union

from .arith import s_part
from .errors import DegenerateGenerators, EmptyDomain, IllFormedWeights
# log_hwgcd is unused here; perfbench/tracing.py rebinds this name
from .gcdops import Subscheme, log_hwgcd, wgcd
# sign_canon is unused here; perfbench/tracing.py rebinds this name
from .points import WPoint, sign_canon, sign_canonical_tuples
from .singular import is_singular
from .weights import Weights


@dataclass(frozen=True)
class BoxDomain:
    """Per-coordinate inclusive integer bounds."""

    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError(f"empty bound {lo}..{hi}")

    @classmethod
    def symmetric(cls, radius: int, n_coords: int) -> "BoxDomain":
        return cls(((-radius, radius),) * n_coords)


@dataclass(frozen=True)
class SUnitGrid:
    """x_0 = 1 and the remaining coordinates range over S-units <= max_value."""

    primes: tuple[int, ...]
    max_value: int

    def __post_init__(self):
        if self.max_value < 1:
            raise ValueError("S-unit grid needs max_value >= 1")
        if not self.primes:
            raise ValueError("S-unit grid needs at least one prime")


Domain = Union[BoxDomain, SUnitGrid]


@dataclass(frozen=True)
class ScanConfig:
    weights: Weights
    subscheme: Subscheme
    epsilon: Fraction
    delta: Fraction
    s_primes: frozenset[int]
    domain: Domain
    codim: int | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.subscheme.ambient_weights != self.weights:
            raise ValueError("subscheme generators must use the scan weights")
        if self.r - 1 + self.delta <= 0:
            raise ValueError(
                "the rhs exponent needs r - 1 + delta > 0 "
                "(the inequality assumes codimension >= 2)"
            )

    @property
    def r(self) -> int:
        return self.codim if self.codim is not None else len(self.subscheme.generators)

    @cached_property
    def float_epsilon(self) -> float:
        return float(self.epsilon)

    @cached_property
    def rhs_exponent(self) -> float:
        """The exponent 1/(q*(r-1+delta)) of the prime-to-S part in rhs."""
        return 1.0 / (self.weights.qprod * (self.r - 1 + float(self.delta)))

    @cached_property
    def exact_exponents(self) -> tuple[int, tuple[int, ...], int]:
        """(D, (D*epsilon/q_i)_i, D/(q*(r-1+delta))): rhs^D in integer powers."""
        coord = [self.epsilon / q for q in self.weights.q]
        s_exp = 1 / (self.weights.qprod * (self.r - 1 + self.delta))
        D = math.lcm(s_exp.denominator, *(e.denominator for e in coord))
        return D, tuple(int(e * D) for e in coord), int(s_exp * D)


@dataclass(frozen=True)
class ScanRow:
    point: tuple[int, ...]
    lhs: int
    rhs: float
    ratio: float
    exceptional: bool


# What a scan keeps of each row: the ScanRow itself, or its text
Renderer = Callable[[ScanRow], object]


@dataclass
class ScanReport:
    config: ScanConfig
    rows: list[ScanRow]
    total_candidates: int
    skipped_on_subscheme: int
    exceptional_count: int
    max_ratio: float


def s_units(primes: Sequence[int], max_value: int) -> list[int]:
    """All integers >= 1 composed of the given primes, up to max_value,
    ascending."""
    values = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for v in frontier:
            for p in primes:
                u = v * p
                if u <= max_value and u not in values:
                    values.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(values)


# A slice of the domain: the list of values of each coordinate, the
# leading ones fixed to a single value.
Part = tuple[Sequence[int], ...]


def parts(config: ScanConfig) -> list[Part]:
    """The domain's slices in enumeration order: one per value of the
    first coordinate of a box, or of the first free coordinate of an
    S-unit grid (x_0 = 1)."""
    domain = config.domain
    if isinstance(domain, BoxDomain):
        if len(domain.bounds) != len(config.weights):
            raise ValueError("box bounds must match the number of coordinates")
        first, *rest = (range(lo, hi + 1) for lo, hi in domain.bounds)
        return [((v,), *rest) for v in first]
    units = s_units(domain.primes, domain.max_value)  # once per scan
    if len(config.weights) == 1:
        return [((1,),)]
    rest = (units,) * (len(config.weights) - 2)
    return [((1,), (u,), *rest) for u in units]


def candidate_points(config: ScanConfig, part: Part) -> Iterator[tuple[int, ...]]:
    """The slice's candidates in lexicographic order.  A box drops the
    tuples with a zero coordinate (the prime-to-S part of 0 is
    undefined) or a weighted GCD above 1; an S-unit tuple has neither."""
    points = itertools.product(*part)
    if isinstance(config.domain, SUnitGrid):
        return points
    return (p for p in points if 0 not in p and wgcd(p, config.weights) == 1)


def evaluate_point(config: ScanConfig, point: tuple[int, ...]) -> ScanRow | None:
    """One scan row, or None when every generator vanishes there.

    ``point`` is a tuple of ints; every value stays an int up to lhs.
    The floats decide lhs > rhs unless lhs / rhs is within 1e-9 of 1,
    far above their rounding error; there lhs^D > rhs^D decides."""
    values = config.subscheme.values_at(point)
    if not any(values):
        return None
    lhs = wgcd(values, config.subscheme.gcd_weights)
    log_max = max(math.log(abs(v)) / q for v, q in zip(point, config.weights.q))
    stripped = s_part(math.prod(point), config.s_primes)
    log_rhs = config.float_epsilon * log_max + math.log(stripped) * config.rhs_exponent
    rhs = math.exp(log_rhs)
    ratio = lhs / rhs
    if abs(ratio - 1.0) > 1e-9:
        exceptional = lhs > rhs
    else:
        D, coord_exps, s_exp = config.exact_exponents
        rhs_pow = max(abs(v) ** e for v, e in zip(point, coord_exps)) * stripped ** s_exp
        exceptional = lhs ** D > rhs_pow
    return ScanRow(point, lhs, rhs, ratio, exceptional)


def _scan_part(config: ScanConfig, render: Renderer, part: Part):
    """(candidates, skipped, exceptional, max ratio, rendered rows) of one slice."""
    total = skipped = exceptional = 0
    max_ratio = -math.inf
    rows = []
    for point in candidate_points(config, part):
        total += 1
        row = evaluate_point(config, point)
        if row is None:
            skipped += 1
            continue
        exceptional += row.exceptional
        if row.ratio > max_ratio:
            max_ratio = row.ratio
        rows.append(render(row))
    return total, skipped, exceptional, max_ratio, rows


def _scan_share(config: ScanConfig, render: Renderer, share: Iterable[Part]) -> list:
    """The results of the slices in order; an exception stands in for
    the first slice that raises one, and ends the list."""
    results = []
    for part in share:
        try:
            results.append(_scan_part(config, render, part))
        except Exception as exc:  # handed to the merge, which raises it in order
            results.append(exc)
            break
    return results


class _Child:
    """A forked process that scans one share and sends its results back,
    pickled, through a pipe.

    The child leaves by ``os._exit``, so it never flushes the parent's
    stdio buffers or runs its exit handlers.  wproj starts no threads,
    so the fork copies a consistent interpreter; the config and the
    renderer are inherited, not pickled."""

    def __init__(self, config: ScanConfig, render: Renderer, share: Sequence[Part]):
        import pickle

        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                os.close(read_fd)
                data = pickle.dumps(_scan_share(config, render, share))
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(data)  # all of it or, on a failure above, nothing
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        self.pipe = os.fdopen(read_fd, "rb")
        self.reaped = False

    def results(self) -> list:
        """Read the child's results, then reap it."""
        import pickle

        with self.pipe:
            data = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.reaped = True
        if not data:
            raise RuntimeError(
                f"scan worker {self.pid} exited without a result "
                f"(exit code {os.waitstatus_to_exitcode(status)})"
            )
        return pickle.loads(data)

    def kill(self) -> None:
        if not self.reaped:
            import signal

            self.pipe.close()
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.reaped = True


def _identity(row: ScanRow) -> ScanRow:
    return row


def vojta_scan(
    config: ScanConfig,
    workers: int = 1,
    render: Renderer = _identity,
) -> ScanReport:
    """Tabulate the inequality over the configured domain.

    ``ScanReport.rows`` holds ``render(row)`` for each row, by default
    the ``ScanRow`` itself.  With ``workers > 1`` the slices are shared
    out among this process and at most ``os.cpu_count() - 1`` forked
    children (none where ``os.fork`` does not exist); the report is the
    same for any worker count, and so is the error raised.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    slices = parts(config)
    if not hasattr(os, "fork"):
        workers = 1
    workers = min(workers, os.cpu_count() or 1, len(slices))
    children: list[_Child] = []
    try:
        for i in range(1, workers):
            children.append(_Child(config, render, slices[i::workers]))
        shares = [_scan_share(config, render, slices[::workers])]
        shares += [child.results() for child in children]
    finally:
        for child in children:
            child.kill()
    total = skipped = exceptional = 0
    max_ratio = -math.inf
    rows: list = []
    # slice i is entry i // workers of share i % workers; a share that
    # stopped early has raised before its padding is reached
    for result in itertools.chain.from_iterable(itertools.zip_longest(*shares)):
        if result is None:
            continue
        if isinstance(result, Exception):
            raise result
        part_total, part_skipped, part_exceptional, part_max, part_rows = result
        total += part_total
        skipped += part_skipped
        exceptional += part_exceptional
        max_ratio = max(max_ratio, part_max)
        rows += part_rows
    if total == 0:
        raise EmptyDomain("no candidate points in the configured domain")
    if not rows:
        raise DegenerateGenerators(
            "the generators vanish at every candidate point"
        )
    return ScanReport(
        config=config,
        rows=rows,
        total_candidates=total,
        skipped_on_subscheme=skipped,
        exceptional_count=exceptional,
        max_ratio=max_ratio,
    )


# ---------------------------------------------------------------------------
# log-hwgcd singularity audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditRow:
    """A counterexample: log hwgcd = 0 at a nonsingular point."""

    point: tuple[int, ...]
    valuations: tuple[tuple[int, tuple[int, ...], int], ...]
    # (prime, per-coordinate floor(nu+/q), min) for each contributing prime


@dataclass
class AuditReport:
    weights: Weights
    bound: int
    total_points: int
    singular_points: int
    counterexamples: list[AuditRow]


def _canonical_points(w: Weights, bound: int) -> Iterator[tuple[int, ...]]:
    """Normalized integral representatives with |x_i| <= bound, in
    lexicographic order: the sign-canonical tuples with weighted GCD 1."""
    for point in sign_canonical_tuples(w.q, bound):
        if any(point) and wgcd(point, w) == 1:
            yield point


def _valuation_table(point: tuple[int, ...], w: Weights):
    from .arith import factorize, ord_int

    primes: set[int] = set()
    for v in point:
        if v != 0:
            primes.update(factorize(v).primes())
    table = []
    for p in sorted(primes):
        floors = tuple(
            ord_int(v, p) // q if v != 0 else -1  # -1 marks +infinity
            for v, q in zip(point, w.q)
        )
        finite = [f for f in floors if f >= 0]
        table.append((p, floors, min(finite) if finite else -1))
    return tuple(table)


def sing1_audit(w: Weights, bound: int) -> AuditReport:
    """Check "log hwgcd = 0 implies singular" on a coordinate box.

    Enumerates normalized integral points with coordinates bounded by
    ``bound`` and reports every nonsingular one, with its per-prime
    valuation floors.  The report is exploratory: it documents the
    implication's scope rather than assuming it.

    Log hwgcd is 0 at every enumerated point, so it is not computed: the
    point is integral with weighted GCD 1, so its finite part is log wgcd
    = 0, and each archimedean term max(-log|x_i|, 0) is 0 as |x_i| >= 1.
    Singularity depends only on the support, so ``is_singular`` runs once
    per support (at most 2^n - 1 times) and its answer is reused.
    """
    if not w.is_well_formed():
        raise IllFormedWeights(f"weights {w} are not well-formed")
    total = 0
    singular_count = 0
    counterexamples: list[AuditRow] = []
    by_support: dict[tuple[bool, ...], bool] = {}
    for point in _canonical_points(w, bound):
        total += 1
        support = tuple(map(bool, point))
        singular = by_support.get(support)
        if singular is None:
            singular = by_support[support] = is_singular(WPoint.of(point, w))
        if singular:
            singular_count += 1
        else:
            counterexamples.append(AuditRow(point, _valuation_table(point, w)))
    return AuditReport(
        weights=w,
        bound=bound,
        total_points=total,
        singular_points=singular_count,
        counterexamples=counterexamples,
    )
