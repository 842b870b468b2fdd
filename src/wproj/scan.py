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
output.  Every candidate goes through one pure function, in this
process or in a process pool, and the rows come back in enumeration
order either way, so the report is the same for any worker count.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Iterator, Sequence, Union

from .arith import s_part
from .errors import DegenerateGenerators, EmptyDomain, IllFormedWeights
# log_hwgcd is unused here; perfbench/tracing.py rebinds this name
from .gcdops import Subscheme, log_hwgcd, wgcd
# sign_canon is unused here; perfbench/tracing.py rebinds this name
from .points import WPoint, is_sign_canonical, sign_canon
from .singular import is_singular
from .weights import Weights

_CHUNK = 4096


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


def _enumerate_box(config: ScanConfig, domain: BoxDomain) -> Iterator[tuple[int, ...]]:
    if len(domain.bounds) != len(config.weights):
        raise ValueError("box bounds must match the number of coordinates")
    ranges = [range(lo, hi + 1) for lo, hi in domain.bounds]
    for point in itertools.product(*ranges):
        if 0 in point:
            continue  # the prime-to-S part of 0 is undefined
        if wgcd(point, config.weights) != 1:
            continue
        yield point


def _enumerate_sunit(config: ScanConfig, domain: SUnitGrid) -> Iterator[tuple[int, ...]]:
    units = s_units(domain.primes, domain.max_value)
    n_free = len(config.weights) - 1
    for tail in itertools.product(units, repeat=n_free):
        yield (1,) + tail


def candidate_points(config: ScanConfig) -> Iterator[tuple[int, ...]]:
    if isinstance(config.domain, BoxDomain):
        return _enumerate_box(config, config.domain)
    return _enumerate_sunit(config, config.domain)


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


def vojta_scan(config: ScanConfig, workers: int = 1) -> ScanReport:
    """Tabulate the inequality over the configured domain.

    With ``workers > 1`` the points are evaluated in a process pool of
    at most ``os.cpu_count()`` processes; its map returns the rows in
    enumeration order, so the report is identical for any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    total = 0
    skipped = 0
    rows: list[ScanRow] = []
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext()
    with pool:
        mapper = partial(pool.map, chunksize=_CHUNK) if workers > 1 else map
        for row in mapper(evaluate_point, itertools.repeat(config), candidate_points(config)):
            total += 1
            if row is None:
                skipped += 1
            else:
                rows.append(row)
    if total == 0:
        raise EmptyDomain("no candidate points in the configured domain")
    if not rows:
        raise DegenerateGenerators(
            "the generators vanish at every candidate point"
        )
    exceptional = sum(1 for row in rows if row.exceptional)
    max_ratio = max(row.ratio for row in rows)
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
    lexicographic order: the sign canon, tested on the int tuple first,
    then weighted GCD 1."""
    for point in itertools.product(range(-bound, bound + 1), repeat=len(w)):
        if is_sign_canonical(point, w.q) and any(point) and wgcd(point, w) == 1:
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
