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

The scan and the audit enumerate the tuples with weighted GCD 1 by one
gcd-prefix walk (``prefix_blocks``) over per-coordinate values, which
for a scan only ``ScanConfig.coordinate_values`` decides (0 left out).
A prime p divides wgcd(x) exactly when p^(q_i) divides every nonzero
x_i, so a gcd of tables of r_q(v) (``_radical``), carried down the
coordinates, clears whole subtrees at once; only the rest factor that
gcd (``_wgcd_above_one``).  Both take the walk's blocks whole: the
points prefix + (v,) that share all but their last coordinate.

With W workers the domain is cut into at most W contiguous parts
(``parts``), runs of the values of its first coordinate that takes more
than one value, and each process scans one: this one the first, and
W - 1 forked children the others, in order.  The parts are joined in
enumeration order, so the rows are the same for any worker count, and
the error raised is the earliest part's: the one a single worker meets
first.

Every row is made by one loop, ``_scan_part``, which takes the
candidates block by block (a prefix and values of the last coordinate),
does the work of the prefix once and makes each stage of the rows as a
column: the generator values, lhs, rhs, ratio and the verdict.  lhs is
the plain gcd, one C call a row, factored only at the rows where the
prefix's constant generator values leave a prime open (``_lhs_column``),
and a block's kept rows are rendered by one call: ScanRows, or in the
writers of ``wproj.cli`` one text per block.  The stages raise, and one
rule keeps the errors in row order: a block where a stage fails is
evaluated again as blocks of one, so the rows before its first failing
row are rendered and that row raises, as a row-by-row scan would; only
a scan that ends in an error evaluates a block twice.
The candidates are tuples of ints of the right length, not all zero,
so the loop checks only that each generator value is an integer; a
point from outside enters through ``evaluate_point``, which makes the
arity, all-zero and integrality checks and then runs the same loop on
it alone, a block of one value with its own terms.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from . import arith
from .arith import (_SIGN_MARGIN, _TRIAL_LIMIT, ARCHIMEDEAN, RationalLike, check_power,
                    log_sum_sign, max_term, s_part)
from .errors import (DegenerateGenerators, EmptyDomain, FloatOverflow, IllFormedWeights,
                     NonIntegralValue, WProjError, ZeroInput)
# log_hwgcd and wgcd are unused here; perfbench/tracing.py rebinds these names
from .gcdops import Subscheme, _integer_tuple, _wgcd_value, log_hwgcd, wgcd
# sign_canon is unused here; perfbench/tracing.py rebinds this name
from .points import WPoint, format_point, sign_canon, sign_canonical_blocks
from .record import Record
from .singular import is_singular
from .weights import Weights, veronese_data
from .wpoly import IntegerForm, fix_prefix


class BoxDomain(Record):
    """Per-coordinate inclusive integer bounds."""

    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError(f"empty bound {lo}..{hi}")

    @classmethod
    def symmetric(cls, radius: int, n_coords: int) -> "BoxDomain":
        return cls(((-radius, radius),) * n_coords)


class SUnitGrid(Record):
    """x_0 = 1 and the remaining coordinates range over S-units <= max_value."""

    primes: tuple[int, ...]
    max_value: int

    def __post_init__(self):
        if not self.primes:
            raise ValueError("sunit domain needs at least one prime")
        if self.max_value < 1:
            raise ValueError("S-unit grid needs max_value >= 1")


Domain = Union[BoxDomain, SUnitGrid]


class ScanConfig(Record):
    weights: Weights
    subscheme: Subscheme
    epsilon: Fraction
    delta: Fraction
    s_primes: frozenset[int]
    domain: Domain
    codim: int | None = None

    def __post_init__(self):
        n = len(self.weights)
        if isinstance(self.domain, BoxDomain) and len(self.domain.bounds) != n:
            raise ValueError(f"box needs {n} bounds, got {len(self.domain.bounds)}")
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
        try:  # cached now, before any part runs
            self.float_epsilon
            finite = math.isfinite(self.rhs_exponent)  # not at a delta below the float range
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise FloatOverflow("epsilon, delta and codim must lie in the float range")

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
    def coordinate_values(self) -> tuple[Sequence[int], ...]:
        """The nonzero values each coordinate takes over the domain, in order."""
        domain = self.domain
        if isinstance(domain, BoxDomain):
            return tuple([v for v in range(lo, hi + 1) if v] for lo, hi in domain.bounds)
        units = s_units(domain.primes, domain.max_value)
        return ((1,),) + (units,) * (len(self.weights) - 1)

    def terms(self, values: Sequence[Iterable[int]]) -> tuple[dict[int, tuple[float, int]], ...]:
        """Per coordinate i, v -> (log|v|/q_i, s_part(v, S)) for each
        nonzero v in values[i]: all that rhs needs of one coordinate."""
        return tuple(
            {v: (math.log(abs(v)) / q, s_part(v, self.s_primes)) for v in column}
            for column, q in zip(values, self.weights.q)
        )

    @cached_property
    def coordinate_terms(self) -> tuple[dict[int, tuple[float, int]], ...]:
        """``terms`` of the domain's values, computed once per value
        instead of once per tuple."""
        return self.terms(self.coordinate_values)

    @cached_property
    def coordinate_radicals(self) -> tuple[dict[int, int], ...]:
        """Per coordinate i, v -> r_i(v) (see ``prefix_blocks``) for
        each value v the domain gives it, computed once per value."""
        return tuple(
            {v: _radical(v, q) for v in values}
            for values, q in zip(self.coordinate_values, self.weights.q)
        )


def _radical(v: int, q: int) -> int:
    """r_q(v), the one table entry of ``prefix_blocks`` for the scan
    and the audit: the product of the primes p with p^q | v, below
    _TRIAL_LIMIT, where factoring |v| takes trial division by at most 85
    numbers; |v| at 0, at q = 1 (it has the primes of r_1(v)) and from
    _TRIAL_LIMIT up.  There |v| is a multiple of r_q(v), which the leaves
    of ``prefix_blocks`` correct (``_wgcd_above_one``): a table entry never
    costs a rho split, nor trial division up to 2^16 (milliseconds at
    |v| near 2^32, where the tuples' weighted GCDs cost microseconds)."""
    v = abs(v)
    if q == 1 or not 0 < v < _TRIAL_LIMIT:
        return v
    # arith.factorize is looked up per call: a tracer may rebind it
    return math.prod(p for p, e in arith.factorize(v).factors if e >= q)


class ScanRow(NamedTuple):
    point: tuple[int, ...]
    lhs: int
    rhs: float
    ratio: float
    exceptional: bool


# What a scan keeps of a block, the rows at prefix + (v,): the list made from the prefix
# and the rows' columns (values, lhs, rhs, ratio, exceptional), the rows' ScanRows, or in
# the writers of wproj.cli one item, the block's text
Renderer = Callable[[tuple[int, ...], Sequence[int], Sequence[int], Sequence[float],
                     Sequence[float], Sequence[bool]], list]


def scan_rows(prefix, values, lhs, rhs, ratio, exceptional) -> list[ScanRow]:
    """A block's ScanRows: the default ``Renderer``."""
    return list(map(ScanRow, [prefix + (v,) for v in values], lhs, rhs, ratio, exceptional))


class ScanReport(Record):
    """The rows that ``vojta_scan``'s renderer made, and the scan's own counts."""

    config: ScanConfig
    rows: list
    total_candidates: int
    exceptional_count: int
    max_ratio: float
    skipped_on_subscheme: int  # the candidates where every generator vanishes: no row


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


# A part of the domain: the list of values of each coordinate.
Part = tuple[Sequence[int], ...]
# A block of candidates: (prefix, values), the points prefix + (v,).
Block = tuple[tuple[int, ...], Sequence[int]]


def parts(config: ScanConfig, count: int = 1) -> list[Part]:
    """The domain cut into at most ``count`` contiguous parts in enumeration
    order: runs of the values of the first coordinate that takes more than
    one value, of lengths that differ by at most one; none when some
    coordinate takes no value."""
    values = config.coordinate_values
    i = min(range(len(values)), key=lambda j: (bool(values[j]), len(values[j]) == 1))
    column, n = values[i], len(values[i])
    count = min(count, n)
    return [(*values[:i], column[n * k // count:n * (k + 1) // count], *values[i + 1:])
            for k in range(count)]


def prefix_blocks(
    lists: Sequence[Sequence[int]], radicals: Sequence[dict[int, int]], w: Weights
) -> Iterator[Block]:
    """The tuples of ``itertools.product(*lists)`` that are not all zero
    and have weighted GCD 1, in the same lexicographic order, in blocks.

    ``radicals[i][v]`` is r_i(v): 0 at v = 0, and otherwise a positive
    multiple of the product of the primes p with p^(q_i) | v.  A prime p
    divides wgcd(x) exactly when p^(q_i) | x_i for every nonzero x_i, so
    then p divides g = gcd_i r_i(x_i) (gcd(0, r) = r: a zero coordinate
    imposes nothing), and g = 1 proves wgcd(x) = 1.  The walk carries g
    down the coordinates: once it is 1 the subtree is kept with no check,
    a block per tuple of its middle coordinates; at the last coordinate
    g = 0 is the all-zero tuple, and a value with g > 1 is decided by the
    primes of g, which every prime of wgcd(x) divides (``_wgcd_above_one``),
    so the answer stays exact for any table that is a multiple of the exact
    one.  A block with no value left is not yielded."""
    last = len(lists) - 1

    def blocks(prefix: tuple[int, ...], g: int, i: int) -> Iterator[Block]:
        values, radical = lists[i], radicals[i]
        if i == last:
            kept = [v for v in values if (h := math.gcd(g, radical[v])) == 1
                    or h and not _wgcd_above_one(prefix + (v,), h, w)]
            if kept:
                yield prefix, kept
            return
        for v in values:
            h = math.gcd(g, radical[v])
            if h == 1:
                for middle in itertools.product(*lists[i + 1:last]):
                    yield prefix + (v,) + middle, lists[last]
            else:
                yield from blocks(prefix + (v,), h, i + 1)

    return blocks((), 0, 0)


def _wgcd_above_one(point: tuple[int, ...], h: int, w: Weights) -> bool:
    """wgcd(point) > 1, given h > 1 that every prime of wgcd(point) divides,
    at a point with a nonzero coordinate: whether some prime p of h has
    p^(q_i) | x_i for every nonzero x_i.  With the tables of ``_radical``
    the walk's h divides the point's plain gcd, so factoring it is never
    harder than the factoring ``wgcd`` does."""
    for p in arith.factorize(h).primes():  # looked up per call: a tracer may rebind it
        for x, q in zip(point, w.q):
            if x % p ** q:  # a zero coordinate imposes nothing
                break
        else:
            return True
    return False


def candidate_points(config: ScanConfig, part: Part) -> Iterator[Block]:
    """The part's candidates in lexicographic order, in the blocks of
    ``prefix_blocks``: its tuples with weighted GCD 1.  An S-unit part
    has x_0 = 1 and r(1) = 1, so the walk keeps it whole, a block per
    tuple of its middle coordinates, and decides no leaf."""
    return prefix_blocks(part, config.coordinate_radicals, config.weights)


def evaluate_point(config: ScanConfig, point: Sequence[RationalLike]) -> ScanRow | None:
    """One scan row, or None when every generator vanishes there.

    The point comes from outside the scan, so this is where it is
    checked: ``gcdops._integer_tuple`` raises ArityMismatch, AllZero or
    NonIntegralValue, an integral point of Fractions becomes its tuple
    of ints, and a zero coordinate raises ZeroInput.  The row is the one
    ``_scan_part`` makes of it, with its coordinates' own terms."""
    x = tuple(_integer_tuple(point, config.weights))
    if 0 in x:
        raise ZeroInput(f"the prime-to-S part of 0 is undefined, at {format_point(x)}")
    rows = _scan_part(config, scan_rows, [(x[:-1], x[-1:])], config.terms([(v,) for v in x]))[-1]
    return rows[0] if rows else None


def _int_columns(forms: Sequence[IntegerForm], values: Sequence[int]) -> list[list[int]]:
    """Per ``fix_prefix`` form, its ints at the values, by one list pass per
    term.  A power a * v^e past _SIGN_BUDGET bits at some value is refused
    before it is taken, by ``arith.check_power`` (OutputTooLarge),
    and a value that is not an integer raises NonIntegralValue, each checked
    form by form: in a block of one, the row's first failing form raises."""
    columns = []
    for d, terms in forms:
        column = [0] * len(values)
        for a, powers in terms:  # a * v^e, with no power taken at e = 0 or 1
            e = powers[0][1] if powers else 0
            if e == 0:
                column = [s + a for s in column]
            elif e == 1:
                column = [s + a * v for s, v in zip(column, values)]
            else:
                check_power(max(map(abs, values), default=0).bit_length(), e)  # the largest |v|
                column = [s + a * v ** e for s, v in zip(column, values)]
        if d != 1:
            bad = [v for v in column if v % d]
            if bad:
                raise NonIntegralValue(f"{Fraction(bad[0], d)} is not an integer")
            column = [v // d for v in column]
        columns.append(column)
    return columns


def _lhs_column(fixed: Sequence[IntegerForm], columns: list[list[int]], plain: list[int],
                w: Weights) -> list[int]:
    """Per row of the columns, whose plain gcds are ``plain`` (none 0), the
    weighted GCD (weights w) of its generator values.

    With every weight 1 the plain gcd g is the answer.  Otherwise a prime p
    of the weighted GCD has p^(q_j) | c_j for every nonzero value c_j of a
    form that ``fix_prefix`` left constant, so p divides r = gcd_j
    r_(q_j)(c_j) (``_radical``, the walk's table rule; 0 when there is no
    such form) as well as g: gcd(g, r) = 1 proves the weighted GCD 1, and
    only the other rows call ``_wgcd_value``, which may raise."""
    if w.m == 1 or not plain:
        return plain
    r = 0
    for (_, terms), column, q in zip(fixed, columns, w.q):
        if len(terms) == 1 and not terms[0][1]:  # a nonzero constant, a * x_k^0
            r = math.gcd(r, _radical(column[0], q))
    gcd = math.gcd
    lhs = [g if gcd(g, r) > 1 else 1 for g in plain]
    for i in [i for i, g in enumerate(lhs) if g > 1]:
        lhs[i] = _wgcd_value([column[i] for column in columns], w)
    return lhs


def _float_overflow(point: tuple[int, ...], log_rhs: float, lhs: int) -> FloatOverflow:
    """The FloatOverflow of the row at point, whose rhs = e^(log rhs) or
    lhs / rhs leaves the float range."""
    return FloatOverflow(
        f"the row at {format_point(point)} leaves the float range "
        f"(log rhs = {log_rhs:.6g}, lhs has {lhs.bit_length()} bits)"
    )


def _tie_verdict(config: ScanConfig, point: tuple[int, ...], lhs: int, stripped: int) -> bool:
    """lhs > rhs at a row where the floats cannot tell: the sign of log lhs -
    log rhs, a sum of three logs of ints, decided by ``log_sum_sign`` at the
    first coordinate k where |x_k|^(1/q_k) is the max (``arith.max_term``)."""
    q = config.weights.q
    k, _ = max_term(point, veronese_data(config.weights).exps, ARCHIMEDEAN)
    s_exp = 1 / (config.weights.qprod * (config.r - 1 + config.delta))
    log_terms = [(lhs, 1), (abs(point[k]), -config.epsilon / q[k]), (stripped, -s_exp)]
    return log_sum_sign(log_terms) > 0


def _scan_part(
    config: ScanConfig, render: Renderer, blocks: Iterable[Block],
    tables: Sequence[dict[int, tuple[float, int]]],
) -> tuple[int, int, float, int, list]:
    """(candidates, exceptional, max ratio, skipped, rows) of the blocks:
    the rows are what ``render`` made of each block's kept rows, in order.

    The blocks are ``candidate_points``'s: their points are int tuples of
    the right length, not all zero, and only the generator values are
    checked (NonIntegralValue); they stay ints up to lhs.  A point where
    every generator vanishes (plain gcd 0) is a candidate with no row, and
    ``skipped`` counts these.
    Each block is a few passes over columns, one per stage of a row: the
    generators are fixed at the prefix (``wpoly.fix_prefix``) and evaluated
    as columns of ints (``_int_columns``); lhs is their plain gcd, or the
    weighted GCD where the prefix's constant values leave a prime open
    (``_lhs_column``); the prefix's max of log|x_i|/q_i and product of
    prime-to-S parts are read from ``tables`` (``ScanConfig.terms``) once,
    and the prime-to-S part is multiplicative, so times the last
    coordinate's it is s_part(x_0 ... x_n, S).  Then come rhs, ratio and
    the verdict, each entry the float expression of its own row, the
    same for a block of any length.  The floats decide
    lhs > rhs unless lhs / rhs is within ``arith._SIGN_MARGIN`` of 1, far
    above their rounding error; there the verdict is exact
    (``_tie_verdict``).  A block's kept rows are rendered by one call.

    One rule orders the errors: a block where some stage raises a
    WProjError is evaluated again, lazily, as blocks of one, (prefix, [v])
    for each v, so the rows before its first failing row are rendered and
    that row raises its own error at its first failing stage: what a
    row-by-row scan meets first.  Only a scan that ends in an error pays
    for it, by evaluating one block's rows twice."""
    forms = [g.integer_form for g in config.subscheme.generators]
    gcd_weights = config.subscheme.gcd_weights
    epsilon, s_exponent, margin = config.float_epsilon, config.rhs_exponent, _SIGN_MARGIN
    log, exp, truediv, compress = math.log, math.exp, operator.truediv, itertools.compress
    last_terms = tables[-1]

    def stages(prefix: tuple[int, ...], values: Sequence[int]):
        """The block's skipped count, kept values and lhs, rhs, ratio and verdicts."""
        fixed = [fix_prefix(form, prefix) for form in forms]
        columns = _int_columns(fixed, values)
        plain = list(map(math.gcd, *columns))  # 0 where every generator vanishes: no row
        skipped = plain.count(0)
        if skipped:
            kept = list(map(bool, plain))
            values, plain = list(compress(values, kept)), list(compress(plain, kept))
            columns = [list(compress(column, kept)) for column in columns]
        lhs = _lhs_column(fixed, columns, plain, gcd_weights)
        head = [table[c] for table, c in zip(tables, prefix)]
        head_max = max([lg for lg, _ in head], default=-math.inf)
        head_part = math.prod([part for _, part in head])
        log_rhs = [epsilon * (lg if lg > head_max else head_max)
                   + log(head_part * part) * s_exponent
                   for lg, part in map(last_terms.__getitem__, values)]
        try:
            rhs = list(map(exp, log_rhs))
            ratio = list(map(truediv, lhs, rhs))
        except OverflowError:  # in a block of one, the row's own error
            raise _float_overflow(prefix + (values[0],), log_rhs[0], lhs[0]) from None
        exceptional = [a > b if abs(q - 1.0) > margin else None
                       for a, b, q in zip(lhs, rhs, ratio)]
        if None in exceptional:  # a near tie
            for i, e in enumerate(exceptional):
                if e is None:
                    v = values[i]
                    exceptional[i] = _tie_verdict(config, prefix + (v,), lhs[i],
                                                  head_part * last_terms[v][1])
        return skipped, values, lhs, rhs, ratio, exceptional

    total = exceptional_count = skipped_count = 0
    max_ratio = -math.inf
    rows = []
    for prefix, values in blocks:
        total += len(values)
        try:
            made = [stages(prefix, values)]
        except WProjError:  # again row by row: the first failing row raises
            made = (stages(prefix, [v]) for v in values)
        for skipped, kept, lhs, rhs, ratio, exceptional in made:
            skipped_count += skipped
            if kept:
                exceptional_count += sum(exceptional)
                max_ratio = max(max_ratio, *ratio)
                rows += render(prefix, kept, lhs, rhs, ratio, exceptional)
    return total, exceptional_count, max_ratio, skipped_count, rows


class _Child:
    """A forked process that scans one part and sends its result back,
    pickled, through a pipe: the ``_scan_part`` tuple or the exception
    it raised.

    The child leaves by ``os._exit``, so it never flushes the parent's
    stdio buffers or runs its exit handlers.  wproj starts no threads,
    so the fork copies a consistent interpreter; the config and the
    renderer are inherited, not pickled."""

    def __init__(self, config: ScanConfig, render: Renderer, part: Part):
        import pickle

        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                os.close(read_fd)
                try:  # candidate_points is looked up per call: a tracer may rebind it
                    result = _scan_part(config, render, candidate_points(config, part),
                                        config.coordinate_terms)
                except Exception as exc:  # raised by the parent, in order
                    result = exc
                data = pickle.dumps(result)
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(data)  # all of it or, on a failure above, nothing
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        self.pipe = os.fdopen(read_fd, "rb")
        self.reaped = False

    def result(self) -> tuple[int, int, float, int, list]:
        """Read the child's result, then reap it; raise the exception it
        sent."""
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
        result = pickle.loads(data)
        if isinstance(result, Exception):
            raise result
        return result

    def kill(self) -> None:
        if not self.reaped:
            import signal

            self.pipe.close()
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.reaped = True


def vojta_scan(config: ScanConfig, workers: int = 1, render: Renderer = scan_rows) -> ScanReport:
    """Tabulate the inequality over the configured domain.

    ``ScanReport.rows`` holds what ``render(prefix, values, lhs, rhs,
    ratio, exceptional)`` makes of each block of kept rows, in order: by
    default their ``ScanRow``s (``scan_rows``), one per row, and in the
    writers of ``wproj.cli`` one text per block.  The counts do not depend
    on the renderer: the candidates less ``skipped_on_subscheme`` are the
    rows.  With ``workers > 1`` the domain
    is cut into at most that many parts (``parts``), one for this process
    and one for each of at most ``os.cpu_count() - 1`` forked children
    (none where ``os.fork`` does not exist); the report is the same for
    any worker count, and so is the error raised.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cpus = (os.cpu_count() or 1) if hasattr(os, "fork") else 1
    cut = parts(config, min(workers, cpus))
    children: list[_Child] = []
    try:
        for part in cut[1:]:
            children.append(_Child(config, render, part))
        # this process's part comes first, so its error is the earliest
        results = [_scan_part(config, render, candidate_points(config, part),
                              config.coordinate_terms) for part in cut[:1]]
        results += [child.result() for child in children]
    finally:
        for child in children:
            child.kill()
    total = exceptional = skipped = 0
    max_ratio = -math.inf
    rows: list = []
    for part_total, part_exceptional, part_max, part_skipped, part_rows in results:
        total += part_total
        exceptional += part_exceptional
        max_ratio = max(max_ratio, part_max)
        skipped += part_skipped
        rows += part_rows
    if total == 0:
        raise EmptyDomain("no candidate points in the configured domain")
    if skipped == total:
        raise DegenerateGenerators(
            "the generators vanish at every candidate point"
        )
    return ScanReport(
        config=config,
        rows=rows,
        total_candidates=total,
        exceptional_count=exceptional,
        max_ratio=max_ratio,
        skipped_on_subscheme=skipped,
    )


# ---------------------------------------------------------------------------
# log-hwgcd singularity audit
# ---------------------------------------------------------------------------

class AuditRow(Record):
    """A counterexample: log hwgcd = 0 at a nonsingular point."""

    point: tuple[int, ...]
    valuations: tuple[tuple[int, tuple[int, ...], int], ...]
    # (prime, per-coordinate floor(nu+/q), min) for each contributing prime

    def __init__(self, point: tuple[int, ...], valuations: tuple):
        object.__setattr__(self, "point", point)  # one per audit row: no generic binding
        object.__setattr__(self, "valuations", valuations)


# What an audit keeps of a block, its counterexamples prefix + (v,): the list made from
# the prefix, their last coordinates and their valuation tables, the counterexamples'
# AuditRows, or in the writers of wproj.cli one item, the block's text
AuditRenderer = Callable[[tuple[int, ...], Sequence[int], Sequence[tuple]], list]


def audit_rows(prefix, values, tables) -> list[AuditRow]:
    """A block's AuditRows: the default ``AuditRenderer``."""
    return list(map(AuditRow, [prefix + (v,) for v in values], tables))


class AuditReport(Record):
    weights: Weights
    bound: int
    total_points: int
    singular_points: int
    counterexamples: list


def _canonical_points(w: Weights, bound: int) -> Iterator[Block]:
    """Normalized integral representatives with |x_i| <= bound, in
    lexicographic order: the sign-canonical tuples with weighted GCD 1,
    in the blocks of ``prefix_blocks`` run with the scan's r_i(v)
    (``_radical``) over each of ``sign_canonical_blocks``."""
    radicals = tuple({v: _radical(v, q) for v in range(-bound, bound + 1)} for q in w.q)
    blocks = sign_canonical_blocks(w.q, bound)
    return itertools.chain.from_iterable(prefix_blocks(b, radicals, w) for b in blocks)


def _valuation_floors(w: Weights, bound: int) -> tuple[dict, ...]:
    """Per coordinate i, v -> {p: floor(ord_p(v)/q_i)} over the primes p
    of v, for |v| <= bound; None at v = 0, where the floor is +infinity."""
    # arith.factorize is looked up per call: a tracer may rebind it
    factors = {v: arith.factorize(v).factors for v in range(1, bound + 1)}
    return tuple(
        {v: {p: e // q for p, e in factors[abs(v)]} if v else None
         for v in range(-bound, bound + 1)}
        for q in w.q
    )


def _valuation_table(point: tuple[int, ...], floors: tuple[dict, ...]):
    """(prime, floors, min) for each prime of a coordinate, read from
    ``_valuation_floors``; -1 marks +infinity.  ``sing1_audit`` reads a
    prefix's rows from it, and builds each point's table from them."""
    entries = [column[v] for column, v in zip(floors, point)]
    table = []
    for p in sorted(set().union(*filter(None, entries))):
        row = tuple(-1 if e is None else e.get(p, 0) for e in entries)
        table.append((p, row, min(f for f in row if f >= 0)))
    return tuple(table)


def sing1_audit(w: Weights, bound: int, render: AuditRenderer = audit_rows) -> AuditReport:
    """Check "log hwgcd = 0 implies singular" on a coordinate box.

    Enumerates normalized integral points with coordinates bounded by
    ``bound`` and reports every nonsingular one, with its per-prime
    valuation floors.  The report is exploratory: it documents the
    implication's scope rather than assuming it.

    Log hwgcd is 0 at every enumerated point, so it is not computed: the
    point is integral with weighted GCD 1, so its finite part is log wgcd
    = 0, and each archimedean term max(-log|x_i|, 0) is 0 as |x_i| >= 1.
    Singularity depends only on the support, so ``is_singular`` runs once
    per support (at most 2^n - 1 times) and its answer is reused.  Each
    |v| <= bound is factored once (``_valuation_floors``), and v and -v
    have the same floors, so a point's valuation table is a function of
    (|x_0|, ..., |x_n|), built once for each, and built from its prefix's
    part: for each new |prefix| its primes, and for each prime the prefix's
    floors and their min, are found once (``_valuation_table`` of the
    prefix); each new |v| then appends the last coordinate's floor to each
    row and takes one min, over the sorted union of the primes.

    The points come in the blocks of ``_canonical_points``, a prefix and
    values of the last coordinate; within a block the support turns only
    on whether v is 0.  ``AuditReport.counterexamples`` holds the rows
    that ``render(prefix, values, tables)`` makes of each block's
    nonsingular values and their tables, in order: by default their
    ``AuditRow``s (``audit_rows``), one per counterexample, and in the
    writers of ``wproj.cli`` one text per block.  The counts do not depend
    on the renderer: the points less the singular ones are the
    counterexamples.
    """
    if bound < 0:
        raise ValueError(f"the audit bound must be non-negative, got {bound}")
    if not w.is_well_formed():
        raise IllFormedWeights(f"weights {w} are not well-formed")
    total = 0
    singular_count = 0
    counterexamples: list = []
    by_support: dict[tuple[bool, ...], bool] = {}

    def singular(point: tuple[int, ...]) -> bool:
        support = tuple(map(bool, point))
        verdict = by_support.get(support)
        if verdict is None:
            verdict = by_support[support] = is_singular(WPoint.of(point, w))
        return verdict

    floors = _valuation_floors(w, bound)
    last_floors = floors[-1]
    # |prefix| -> ({|v|: table}, {p: (floors row, min)} of |prefix|, and the
    # (row, min) of a prime that only |v| has: floors 0, -1 at a zero, and min
    # 0, or +infinity when |prefix| is all zero)
    tables: dict[tuple[int, ...], tuple[dict[int, tuple], dict, tuple]] = {}
    for prefix, values in _canonical_points(w, bound):
        total += len(values)
        # within a block the support turns only on whether v is 0
        nonzero = next((v for v in values if v), 0)
        drop_zero = 0 in values and singular(prefix + (0,))
        drop_nonzero = nonzero != 0 and singular(prefix + (nonzero,))
        kept = values
        if drop_zero or drop_nonzero:
            kept = [v for v in values if not (drop_nonzero if v else drop_zero)]
        singular_count += len(values) - len(kept)
        if not kept:
            continue
        head = tuple(map(abs, prefix))
        entry = tables.get(head)
        if entry is None:
            entry = tables[head] = (  # the head's own table: its zip stops at the head
                {}, {p: (row, m) for p, row, m in _valuation_table(head, floors)},
                (tuple(0 if v else -1 for v in head), 0 if any(head) else math.inf))
        column, known, other = entry
        magnitudes = list(map(abs, kept))
        for a in set(magnitudes).difference(column):
            last = last_floors[a] or {}  # None at a = 0, which adds no prime
            blank = 0 if a else -1  # the last floor of a prime that a lacks
            table = []
            for p in sorted(known.keys() | last.keys()):
                row, m = known.get(p, other)
                f = last.get(p, blank)
                table.append((p, row + (f,), f if 0 <= f < m else m))
            column[a] = tuple(table)
        counterexamples += render(prefix, kept, list(map(column.__getitem__, magnitudes)))
    return AuditReport(
        weights=w,
        bound=bound,
        total_points=total,
        singular_points=singular_count,
        counterexamples=counterexamples,
    )
