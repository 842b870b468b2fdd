import itertools
import json
import math
import os
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wproj.arith
import wproj.gcdops
import wproj.points
import wproj.scan
from wproj.arith import _SIGN_MARGIN, log_sum_sign, s_part
from wproj.cli import main
from wproj.errors import (
    AllZero,
    ArityMismatch,
    ComparisonBudgetExceeded,
    DegenerateGenerators,
    EmptyDomain,
    FactoringBudgetExceeded,
    FloatOverflow,
    IllFormedWeights,
    NonIntegralValue,
    OutputTooLarge,
    WProjError,
    ZeroInput,
)
from wproj.gcdops import Subscheme, log_hwgcd, wgcd
from wproj.scan import (
    AuditRow,
    BoxDomain,
    ScanConfig,
    ScanRow,
    SUnitGrid,
    evaluate_point,
    prefix_blocks,
    s_units,
    scan_rows,
    sing1_audit,
    vojta_scan,
)
from wproj.points import WPoint, normalize, sign_canon
from wproj.singular import is_singular
from wproj.weights import Weights
from wproj.wpoly import WPolynomial, evaluate, parse_polynomial, scaled_value

from helpers import block_points, sign_canonical_tuples, written

W111 = Weights.of(1, 1, 1)


def make_config(**overrides):
    defaults = dict(
        weights=W111,
        subscheme=Subscheme(
            (
                parse_polynomial("x1-x0", W111),
                parse_polynomial("x2-x0", W111),
            ),
            Weights.of(1, 1),
        ),
        epsilon=Fraction(1),
        delta=Fraction(0),
        s_primes=frozenset(),
        domain=BoxDomain.symmetric(4, 3),
    )
    defaults.update(overrides)
    return ScanConfig(**defaults)


def test_s_units():
    assert s_units((2, 3), 20) == [1, 2, 3, 4, 6, 8, 9, 12, 16, 18]
    assert s_units((2,), 10) == [1, 2, 4, 8]
    assert s_units((5,), 1) == [1]


def test_box_scan_hand_computed_rows():
    report = vojta_scan(make_config(domain=BoxDomain(((1, 8), (1, 8), (1, 8)))))
    rows = {row.point: row for row in report.rows}
    # hand-checked rows for generators (x1-x0, x2-x0), eps=1, delta=0, S={}
    row = rows[(1, 4, 7)]
    assert row.lhs == math.gcd(3, 6) == 3
    assert row.rhs == pytest.approx(7 * 28)
    assert not row.exceptional
    row = rows[(1, 2, 3)]
    assert row.lhs == math.gcd(1, 2) == 1
    assert row.rhs == pytest.approx(3 * 6)
    row = rows[(2, 3, 5)]
    assert row.lhs == math.gcd(1, 3) == 1
    assert row.rhs == pytest.approx(5 * 30)
    row = rows[(3, 5, 7)]
    assert row.lhs == math.gcd(2, 4) == 2
    assert row.rhs == pytest.approx(7 * 105)
    row = rows[(1, 7, 7)]
    assert row.lhs == math.gcd(6, 6) == 6
    assert row.rhs == pytest.approx(7 * 49)


def test_box_scan_row_values():
    report = vojta_scan(make_config(domain=BoxDomain(((1, 8), (1, 8), (1, 8)))))
    rows = {row.point: row for row in report.rows}
    assert (2, 4, 8) not in rows
    for point, row in rows.items():
        values = (point[1] - point[0], point[2] - point[0])
        if all(v == 0 for v in values):
            continue
        assert row.lhs == wgcd(values, Weights.of(1, 1))
        product = point[0] * point[1] * point[2]
        expected_rhs = max(abs(v) for v in point) * s_part(product, set())
        assert row.rhs == pytest.approx(expected_rhs)
        assert row.exceptional == (row.lhs > row.rhs)


def test_scan_skips_points_on_subscheme():
    report = vojta_scan(make_config(domain=BoxDomain(((1, 3), (1, 3), (1, 3)))))
    assert all(row.point[1:] != (row.point[0], row.point[0]) for row in report.rows)
    assert report.skipped_on_subscheme >= 1  # (1,1,1) at least
    assert report.total_candidates == len(report.rows) + report.skipped_on_subscheme
    # [x:x:x] with weighted GCD 1: the 20 squarefree x with 0 < |x| <= 14
    assert vojta_scan(tie_config(14)).skipped_on_subscheme == 20


def test_the_counts_do_not_depend_on_what_the_renderer_keeps():
    # skipped_on_subscheme was the candidates less the rendered items: with a
    # renderer that keeps only the exceptional rows it read 20,120, not 20,
    # and a renderer that keeps nothing made the scan raise DegenerateGenerators
    full = vojta_scan(tie_config(14))
    assert (full.total_candidates, len(full.rows), full.skipped_on_subscheme) == (20648, 20628, 20)
    kept = vojta_scan(tie_config(14), render=lambda *block: [
        row for row in scan_rows(*block) if row.exceptional])
    assert kept.skipped_on_subscheme == 20
    assert kept.rows == [row for row in full.rows if row.exceptional]
    none = vojta_scan(tie_config(14), render=lambda *block: [])
    assert none.rows == []
    for report in (kept, none):
        assert (report.total_candidates, report.exceptional_count, report.max_ratio,
                report.skipped_on_subscheme) == (full.total_candidates, full.exceptional_count,
                                                 full.max_ratio, full.skipped_on_subscheme)


def test_all_unit_values_never_exceptional():
    # generators evaluate to +/-1 on this domain: lhs is always 1
    w = Weights.of(1, 1)
    config = ScanConfig(
        weights=w,
        subscheme=Subscheme((parse_polynomial("x1-x0", w),), Weights.of(1)),
        epsilon=Fraction(1),
        delta=Fraction(1),
        s_primes=frozenset(),
        domain=BoxDomain(((1, 9), (2, 10))),
    )
    report = vojta_scan(config)
    unit_rows = [row for row in report.rows if abs(row.point[1] - row.point[0]) == 1]
    assert unit_rows
    for row in unit_rows:
        assert row.lhs == 1
        assert not row.exceptional


def test_scan_determinism():
    config = make_config()
    first = vojta_scan(config)
    second = vojta_scan(config)
    assert first.rows == second.rows
    assert first.total_candidates == second.total_candidates


def test_scan_serializations_are_byte_identical():
    from wproj.cli import format_scan_csv, format_scan_json

    config = make_config()
    assert written(format_scan_csv, config, 1) == written(format_scan_csv, config, 1)
    first = written(format_scan_json, config, 1)
    assert first == written(format_scan_json, config, 1)
    assert "runtime" not in first


def test_scan_workers_match_sequential(monkeypatch):
    # the README S-unit preset, cut at x1 into two parts, and (1,1,1) is
    # skipped on the subscheme
    w = Weights.of(1, 2, 3)
    config = ScanConfig(
        weights=w,
        subscheme=Subscheme(
            (parse_polynomial("x1-x0", w), parse_polynomial("x2-x0", w)),
            Weights.of(2, 3),
        ),
        epsilon=Fraction(1),
        delta=Fraction(0),
        s_primes=frozenset({2, 3}),
        domain=SUnitGrid((2, 3), 1_000_000),
    )
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # fork a worker on any machine
    pooled = vojta_scan(config, workers=2)
    serial = vojta_scan(config)
    assert [len(part[1]) for part in wproj.scan.parts(config, 2)] == [71, 71]
    assert serial.skipped_on_subscheme == 1
    assert pooled.rows == serial.rows
    assert pooled.total_candidates == serial.total_candidates
    assert pooled.skipped_on_subscheme == serial.skipped_on_subscheme
    assert pooled.exceptional_count == serial.exceptional_count
    assert pooled.max_ratio == serial.max_ratio


@pytest.mark.parametrize("config", [
    make_config(),
    make_config(domain=SUnitGrid((2, 3), 200), s_primes=frozenset({2, 3})),
    make_config(domain=BoxDomain(((2, 2), (-3, 3), (-3, 3)))),
])
def test_parts_concatenate_to_the_enumeration(config):
    # the parts, in order, are the lexicographic enumeration of the domain,
    # cut into runs of the first coordinate that takes more than one value
    if isinstance(config.domain, BoxDomain):
        box = itertools.product(*(range(lo, hi + 1) for lo, hi in config.domain.bounds))
        expected = [p for p in box if 0 not in p and wgcd(p, config.weights) == 1]
    else:
        units = s_units(config.domain.primes, config.domain.max_value)
        expected = [(1,) + tail for tail in itertools.product(units, repeat=2)]
    i, column = next((i, v) for i, v in enumerate(config.coordinate_values) if len(v) > 1)
    for count in (1, 2, 3, len(column) + 1):
        cut = wproj.scan.parts(config, count)
        assert len(cut) == min(count, len(column))
        assert [v for part in cut for v in part[i]] == list(column)
        runs = [len(part[i]) for part in cut]
        assert max(runs) - min(runs) <= 1
        points = [p for part in cut
                  for p in block_points(wproj.scan.candidate_points(config, part))]
        assert points == expected


def _in_process_children(mp):
    """Replaces the forked child by a stand-in that scans its part in
    this process when its result is read, and starts no process;
    returns the part of every child the scans would have started."""
    started = []

    class FakeChild:
        def __init__(self, config, render, part):
            started.append(part)
            blocks = wproj.scan.candidate_points(config, part)
            self.result = lambda: wproj.scan._scan_part(config, render, blocks,
                                                        config.coordinate_terms)

        def kill(self):
            pass

    mp.setattr(wproj.scan, "_Child", FakeChild)
    return started


@pytest.fixture
def fake_children(monkeypatch):
    return _in_process_children(monkeypatch)


@pytest.mark.parametrize("workers", [0, -3])
def test_scan_rejects_workers_below_one(fake_children, capsys, workers):
    with pytest.raises(ValueError):
        vojta_scan(make_config(), workers=workers)
    code = main([
        "vojta-scan", "--weights", "(1,1,1)", "--generators", "x1-x0;x2-x0",
        "--domain", "box:2", "--workers", str(workers),
    ])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "parse-error"
    assert fake_children == []


def test_scan_pool_is_capped_at_cpu_count(fake_children, monkeypatch):
    config = make_config(domain=BoxDomain.symmetric(2, 3))
    serial = vojta_scan(config)
    thirds, halves = wproj.scan.parts(config, 3), wproj.scan.parts(config, 2)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert vojta_scan(config, workers=100_000).rows == serial.rows
    # three parts; this process scans the first
    assert fake_children == thirds[1:]
    assert vojta_scan(config, workers=2).rows == serial.rows
    assert fake_children == thirds[1:] + halves[1:]
    for cpus in (1, None):  # one CPU, or an unknown count: no child at all
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert vojta_scan(config, workers=100_000).rows == serial.rows
    assert len(fake_children) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.delattr(os, "fork")  # a platform without fork scans serially
    assert vojta_scan(config, workers=3).rows == serial.rows
    assert len(fake_children) == 3


def test_scan_raises_the_earliest_failing_slice(fake_children, monkeypatch):
    # three parts, x0 in 1..2, 3..4 and 5..6: this process's first part
    # succeeds, and the second (at its last value) and the third both fail
    def render(prefix, *columns):
        if prefix[0] in (4, 5):
            raise ValueError(f"x0 = {prefix[0]}")
        return scan_rows(prefix, *columns)

    config = make_config(domain=BoxDomain(((1, 6), (1, 2), (1, 2))))
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for workers in (1, 3):
        with pytest.raises(ValueError, match="^x0 = 4$"):
            vojta_scan(config, workers=workers, render=render)
    assert fake_children == wproj.scan.parts(config, 3)[1:]
    assert [part[0] for part in fake_children] == [[3, 4], [5, 6]]


def test_parts_cut_at_the_first_coordinate_with_more_than_one_value(fake_children, monkeypatch):
    # x0 takes one value, so the parts are cut at x1: runs of its nonzero values
    config = make_config(domain=BoxDomain(((2, 2), (-3, 3), (-3, 3))))
    assert [part[:2] for part in wproj.scan.parts(config, 100)] == [
        ([2], [v]) for v in (-3, -2, -1, 1, 2, 3)
    ]
    halves = wproj.scan.parts(config, 2)
    assert [part[:2] for part in halves] == [([2], [-3, -2, -1]), ([2], [1, 2, 3])]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert vojta_scan(config, workers=2).rows == vojta_scan(config).rows
    assert fake_children == halves[1:]


@pytest.mark.parametrize("workers", [1, 2])
def test_each_process_calls_the_row_loop_once(monkeypatch, workers):
    # a forked child runs the loop in its own copy of this process, so
    # the calls recorded here are this process's alone
    config = make_config(domain=BoxDomain.symmetric(3, 3))
    serial = vojta_scan(config)
    calls = _counting(monkeypatch, wproj.scan, "_scan_part")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # fork a worker on any machine
    assert vojta_scan(config, workers=workers).rows == serial.rows
    assert len(calls) == 1


@pytest.mark.parametrize("domain", ["box:0", "box:0..0,-2..2,-2..2", "box:1..5,0..0,1..2"])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_domain_with_no_slice_is_empty(fake_children, monkeypatch, capsys, domain, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code = main([
        "vojta-scan", "--weights", "(1,1,1)", "--generators", "x1-x0;x2-x0",
        "--domain", domain, "--workers", workers,
    ])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (
        '{"error": "empty-domain", "message": "no candidate points in the configured domain"}\n'
    )
    assert fake_children == []


def _forking(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # fork a worker on any machine
    return os.getpid()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failure_in_this_process_leaves_no_child(monkeypatch):
    # the first non-integral value lies in slice 0, this process's own share
    _forking(monkeypatch)
    config = make_config(subscheme=Subscheme((
        parse_polynomial("1/2*x1-x0", W111), parse_polynomial("x2-x0", W111),
    )), domain=BoxDomain.symmetric(2, 3))
    with pytest.raises(NonIntegralValue, match="^3/2 is not an integer$"):
        vojta_scan(config, workers=2)
    _assert_no_child_left()


# at x0 = 1 the block [1:1:1..6] fails in these rows: P2 = (x2-x0)(x2-2x0)/4
# at x2 = 3 (1/2), P3 = (x2-x0)(x2-2x0)(x2-3x0)/8 at x2 = 4 (3/4), P2B =
# (x2-x0)(x2-2x0)/3 at x2 = 3 (2/3), and epsilon 1000 puts rhs past the
# float range from x2 = 3 on; x2+x0 never fails and never vanishes, so
# with it the rows x2 = 1, 2 are kept before the failure.  The forked
# worker's slice, x0 = 2, fails too, at its first row, and the merge
# must still raise slice x0 = 1's error
P2 = "1/4*x2^2-3/4*x0*x2+1/2*x0^2"
P3 = "1/8*x2^3-3/4*x0*x2^2+11/8*x0^2*x2-3/4*x0^3"
P2B = "1/3*x2^2-x0*x2+2/3*x0^2"


@pytest.mark.parametrize("generators, error, message", [
    # an earlier row at generator 0 and a later one at generator 1
    ((P2, P3), "non-integral-value", "1/2 is not an integer"),
    # generator 1's failing row comes first
    ((P3, P2), "non-integral-value", "1/2 is not an integer"),
    # one row, two failing generators: the first generator's value
    ((P2, P2B), "non-integral-value", "1/2 is not an integer"),
    ((P2B, P2), "non-integral-value", "2/3 is not an integer"),
    # mid-block, after kept rows
    (("x2+x0", P2), "non-integral-value", "1/2 is not an integer"),
    # the row before generator 1's failure leaves the float range
    (("x2+x0", P3), "float-overflow",
     "the row at [1:1:3] leaves the float range (log rhs = 1099.71, lhs has 3 bits)"),
])
def test_block_errors_come_in_row_order(monkeypatch, capsys, generators, error, message):
    _forking(monkeypatch)
    argv = ["vojta-scan", "--weights", "(1,1,1)", "--generators", ";".join(generators),
            "--epsilon", "1000", "--domain", "box:1..2,1..1,1..6"]
    for workers in ("1", "2"):
        assert main(argv + ["--workers", workers]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == json.dumps({"error": error, "message": message}) + "\n"
    _assert_no_child_left()


TOO_LARGE = ("output-too-large", "an exact power would have over 1048576 bits")
HUGE = "x1^2000000-x0^2000000"  # at x0 = 1: 2^2000000 is past the budget, 1 is not


@pytest.mark.parametrize("generators, values, error", [
    # the rows before the refused one are kept; 3^2000000 is never taken
    ((HUGE, "1/2*x1-1/2*x0"), [1, -1, 3, 5], TOO_LARGE),
    # one row, a non-integral value at the first form and a refused power at the second
    (("1/2*x1", HUGE), [-3, 2], ("non-integral-value", "-3/2 is not an integer")),
    # and the other way round: the first form's power is refused first
    ((HUGE, "1/2*x1"), [-3, 2], TOO_LARGE),
    # a later form's non-integral value in an earlier row wins
    ((HUGE, "1/2*x1"), [0, 1, 2], ("non-integral-value", "1/2 is not an integer")),
    ((HUGE,), [1, -1], None),
])
def test_column_powers_past_the_budget_are_refused_in_row_order(generators, values, error):
    # the values are the last coordinate of one block at x0 = 1; 0, outside
    # any scan domain, gets log|0| = -inf and a prime-to-S part of 1
    w = Weights.of(1, 1)
    polys = [parse_polynomial(g, w) for g in generators]
    config = ScanConfig(weights=w, subscheme=Subscheme(tuple(polys), Weights((1,) * len(polys))),
                        epsilon=Fraction(1), delta=Fraction(1), s_primes=frozenset(),
                        domain=BoxDomain(((1, 1), (1, 1))))
    tables = config.terms([(1,), [v for v in values if v]])
    tables[-1][0] = (-math.inf, 1)
    taken, rendered = [], []

    class Value(int):  # records each power of a last coordinate that is taken
        def __pow__(self, e):
            taken.append(int(self))
            return int(self) ** e

    def render(prefix, kept, lhs, *columns):
        rendered.extend(zip(map(int, kept), lhs))
        return scan_rows(prefix, kept, lhs, *columns)

    def fails(v):  # a form of the row needs a power past the budget or is no integer
        return any(g == HUGE and abs(v) > 1 or evaluate(f, (1, v)).denominator != 1
                   for g, f in zip(generators, polys))

    stop = next((i for i, v in enumerate(values) if fails(v)), len(values))
    assert (stop < len(values)) == (error is not None)
    raised = None
    try:
        wproj.scan._scan_part(config, render, [((1,), list(map(Value, values)))], tables)
    except WProjError as exc:
        raised = exc.code, str(exc)
    assert raised == error
    assert all(abs(v) <= 1 for v in taken)  # 3^2000000 and the like are never taken
    ints = [[int(evaluate(f, (1, v))) for f in polys] for v in values[:stop]]
    assert rendered == [(v, math.gcd(*row)) for v, row in zip(values, ints) if any(row)]


def test_a_scan_power_past_the_budget_is_refused_in_row_order(monkeypatch, capsys):
    # 2^600000 and 3^600000 are within the budget, and their rows' lhs is a
    # gcd with x1 - x0; 4^600000 is refused at [1:4], and [2:4] in the other part
    _forking(monkeypatch)
    argv = ["vojta-scan", "--weights", "(1,1)", "--generators", "x1^600000-x0^600000;x1-x0",
            "--gcd-weights", "(1,1)", "--domain", "box:1..2,1..6", "--delta", "1"]
    for workers in ("1", "2"):
        assert main(argv + ["--workers", workers]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == json.dumps(dict(zip(("error", "message"), TOO_LARGE))) + "\n"
    _assert_no_child_left()


# constants of a fixed form: 0, small, negative, prime powers that a weight
# 2 or 3 sees, and values from _TRIAL_LIMIT = 2^16 up, where r_q(c) is |c|
LHS_CONSTANTS = [0, 1, -1, 4, -8, 12, 18, -27, 72, 225, -3375, 2 ** 16, 9 * 2 ** 16,
                 -(3 ** 12), 5 ** 8, 2 ** 20 * 3 ** 4, 65537 ** 2]


@st.composite
def lhs_blocks(draw):
    """(fixed forms, values, gcd weights): each form a constant of
    LHS_CONSTANTS or a * v^e + b * v + c in the last coordinate v."""
    forms, q = [], draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    for _ in q:
        if draw(st.booleans()):
            c = draw(st.sampled_from(LHS_CONSTANTS))
            forms.append((1, ((c, ()),) if c else ()))
        else:
            a, b, c = (draw(st.sampled_from([0, 1, -2, 4, 8, -9, 27])) for _ in range(3))
            e = draw(st.integers(2, 3))
            terms = [(a, ((0, e),)), (b, ((0, 1),)), (c, ())]
            forms.append((1, tuple((k, powers) for k, powers in terms if k)))
    values = draw(st.lists(st.one_of(st.integers(-40, 40), st.sampled_from([-2 ** 16, 3 ** 11])),
                           max_size=12))
    return forms, values, Weights(tuple(q))


@given(lhs_blocks())
@example(([(1, ((36, ()),)), (1, ((1, ((0, 1),)),))], [6, -6, 12, 18, 0, 7], Weights.of(2, 2)))
def test_block_lhs_is_each_rows_weighted_gcd(block):
    forms, values, w = block
    columns = wproj.scan._int_columns(forms, values)
    rows = [ints for ints in zip(*columns) if any(ints)]
    columns = [list(column) for column in zip(*rows)] or [[] for _ in forms]
    plain = list(map(math.gcd, *columns))
    lhs = wproj.scan._lhs_column(forms, columns, plain, w)
    assert lhs == [wproj.gcdops._wgcd_value(ints, w) for ints in rows]


@given(
    generators=st.lists(st.sampled_from(["x2-x0", "x2+x1", "1/2*x2-1/2*x1", "x1*x2-x0^2",
                                         "x2^2-x0*x1", "6*x0", "1/3*x2+2/3*x0"]),
                        min_size=1, max_size=3),
    epsilon=st.sampled_from(["1/2", "1", "450", "1000"]),
    margin=st.sampled_from([_SIGN_MARGIN, 0.25, 10.0]),
    fail_lhs=st.integers(0, 5),
    fail_tie=st.integers(0, 5),
)
# in the block [1:-2:*]: the lhs fails at x2 = -3, before rhs leaves the float range at x2 = 5
@example(["x2-x0"], "450", _SIGN_MARGIN, 2, 0)
# the exact verdict fails at x2 = -4, before the value at x2 = -3 is found non-integral
@example(["1/2*x2-1/2*x1"], "1", 10.0, 0, 4)
def test_block_stages_fail_in_row_order(generators, epsilon, margin, fail_lhs, fail_tie):
    # a stage that fails at a row stops the later stages before it: each
    # block raises what a row-by-row scan, a block of one per point
    # (evaluate_point), meets first.  The lhs of some rows raises (a plain gcd
    # that fail_lhs divides), and so does the exact verdict of some near ties
    # (a max coordinate that fail_tie divides; a wide margin makes every row
    # one); epsilon 450 leaves the float range from |x| = 5 on, mid-block
    def wgcd_value(ints, w):
        if fail_lhs > 1 and math.gcd(*ints) % fail_lhs == 0:
            raise FactoringBudgetExceeded(f"lhs at {ints}")
        return real_wgcd_value(ints, w)

    def sign(terms):
        if fail_tie > 1 and terms[1][0] % fail_tie == 0:
            raise ComparisonBudgetExceeded(f"tie at {terms}")
        return log_sum_sign(terms)

    real_wgcd_value = wproj.scan._wgcd_value
    config = make_config(
        subscheme=Subscheme(tuple(parse_polynomial(g, W111) for g in generators),
                            Weights((2,) * len(generators))),
        epsilon=Fraction(epsilon), domain=BoxDomain(((1, 2), (-2, 3), (-4, 6))), codim=2)
    points = [p for part in wproj.scan.parts(config)
              for p in block_points(wproj.scan.candidate_points(config, part))]

    def row_by_row():
        rows = [row for row in map(evaluate_point, [config] * len(points), points) if row]
        if not rows:
            raise DegenerateGenerators("the generators vanish at every candidate point")
        return rows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wproj.scan, "_wgcd_value", wgcd_value)
        mp.setattr(wproj.scan, "log_sum_sign", sign)
        mp.setattr(wproj.scan, "_SIGN_MARGIN", margin)
        assert _outcome(lambda: vojta_scan(config).rows) == _outcome(row_by_row)


@pytest.mark.parametrize("workers", [1, 2])
@given(
    generators=st.lists(st.sampled_from(["x2-x0", "x2+x1", "1/2*x2-1/2*x1", "x1*x2-x0^2",
                                         "x2^2-x0*x1", "6*x0", "1/3*x2+2/3*x0"]),
                        min_size=1, max_size=3),
    epsilon=st.sampled_from(["1/2", "1", "450", "1000"]),
    margin=st.sampled_from([_SIGN_MARGIN, 0.25, 10.0]),
    fail_lhs=st.integers(0, 5),
    fail_tie=st.integers(0, 5),
)
@example(["x2-x0"], "450", _SIGN_MARGIN, 2, 0)
@example(["1/2*x2-1/2*x1"], "1", 10.0, 0, 4)
def test_block_stages_render_the_rows_before_their_error(
    workers, generators, epsilon, margin, fail_lhs, fail_tie
):
    # the other half of test_block_stages_fail_in_row_order: the renderer sees
    # the rows a point-by-point scan (evaluate_point) makes before its error,
    # each once and in order, whether the part that fails is this process's
    # or a worker's (here scanned in this process, so its renderer is seen)
    def wgcd_value(ints, w):
        if fail_lhs > 1 and math.gcd(*ints) % fail_lhs == 0:
            raise FactoringBudgetExceeded(f"lhs at {ints}")
        return real_wgcd_value(ints, w)

    def sign(terms):
        if fail_tie > 1 and terms[1][0] % fail_tie == 0:
            raise ComparisonBudgetExceeded(f"tie at {terms}")
        return log_sum_sign(terms)

    def render(*block):
        rows = scan_rows(*block)
        rendered.extend(rows)
        return rows

    def point_by_point():
        for point in points:
            row = evaluate_point(config, point)
            if row:
                expected.append(row)
        if not expected:
            raise DegenerateGenerators("the generators vanish at every candidate point")

    real_wgcd_value = wproj.scan._wgcd_value
    config = make_config(
        subscheme=Subscheme(tuple(parse_polynomial(g, W111) for g in generators),
                            Weights((2,) * len(generators))),
        epsilon=Fraction(epsilon), domain=BoxDomain(((1, 2), (-2, 3), (-4, 6))), codim=2)
    points = [p for part in wproj.scan.parts(config)
              for p in block_points(wproj.scan.candidate_points(config, part))]
    rendered, expected = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wproj.scan, "_wgcd_value", wgcd_value)
        mp.setattr(wproj.scan, "log_sum_sign", sign)
        mp.setattr(wproj.scan, "_SIGN_MARGIN", margin)
        mp.setattr(os, "cpu_count", lambda: 2)
        children = _in_process_children(mp)
        error = _outcome(lambda: vojta_scan(config, workers=workers, render=render) and None)
        assert len(children) == workers - 1
        assert _outcome(point_by_point) == error
    assert [_row_key(row) for row in rendered] == [_row_key(row) for row in expected]


def _outcome(run):
    try:
        return run()
    except WProjError as exc:
        return type(exc), str(exc)


def test_interrupt_kills_and_reaps_the_children(monkeypatch):
    parent = _forking(monkeypatch)

    class Interrupt(BaseException):
        pass

    def render(*block):
        if os.getpid() == parent:
            raise Interrupt
        return scan_rows(*block)

    with pytest.raises(Interrupt):
        vojta_scan(make_config(), workers=2, render=render)
    _assert_no_child_left()


def test_a_child_that_dies_without_a_result_is_an_error(monkeypatch):
    parent = _forking(monkeypatch)

    def render(*block):
        if os.getpid() != parent:
            os._exit(7)
        return scan_rows(*block)

    died = r"^scan worker \d+ exited without a result \(exit code 7\)$"
    with pytest.raises(RuntimeError, match=died):
        vojta_scan(make_config(), workers=2, render=render)
    _assert_no_child_left()


def test_sunit_grid_scan():
    w = Weights.of(1, 2, 3)
    config = ScanConfig(
        weights=w,
        subscheme=Subscheme(
            (parse_polynomial("x1-x0", w), parse_polynomial("x2-x0", w)),
            Weights.of(2, 3),
        ),
        epsilon=Fraction(1),
        delta=Fraction(0),
        s_primes=frozenset({2, 3}),
        domain=SUnitGrid((2, 3), 100),
    )
    report = vojta_scan(config)
    units = s_units((2, 3), 100)
    assert report.total_candidates == len(units) ** 2
    assert report.skipped_on_subscheme == 1  # only (1,1,1)
    rows = {row.point: row for row in report.rows}
    row = rows[(1, 16, 27)]
    assert row.lhs == wgcd((15, 26), Weights.of(2, 3))
    # S-unit coordinates: the prime-to-S part is 1, rhs is the max-power term
    assert row.rhs == pytest.approx(max(16 ** 0.5, 27 ** (1 / 3)))
    # points are lexicographically ordered
    points = [row.point for row in report.rows]
    assert points == sorted(points)


def test_sunit_row_exceptional_flag_matches_inequality():
    w = Weights.of(1, 2, 3)
    config = ScanConfig(
        weights=w,
        subscheme=Subscheme(
            (parse_polynomial("x1-x0", w), parse_polynomial("x2-x0", w)),
            Weights.of(2, 3),
        ),
        epsilon=Fraction(1, 2),
        delta=Fraction(0),
        s_primes=frozenset({2, 3}),
        domain=SUnitGrid((2, 3), 200),
    )
    for row in vojta_scan(config).rows:
        assert row.exceptional == (row.lhs > row.rhs)
        assert row.ratio == pytest.approx(row.lhs / row.rhs)


W112 = Weights.of(1, 1, 2)
TIE_POINTS = [(-12, -12, 6), (-12, 6, 6), (-6, 12, -6), (6, -12, 6), (12, -6, -6), (12, 12, -6)]


def tie_config(radius):
    return ScanConfig(
        weights=W112,
        subscheme=Subscheme(
            (parse_polynomial("x1-x0", W112), parse_polynomial("x2-x0", W112)),
            Weights.of(1, 1),
        ),
        epsilon=Fraction(1, 2),
        delta=Fraction(0),
        s_primes=frozenset({2}),
        domain=BoxDomain.symmetric(radius, 3),
    )


def exact_verdict(point, lhs):
    """lhs > max(|x0|^(1/2), |x1|^(1/2), |x2|^(1/4)) * s^(1/2), with every
    side raised to the 4th power."""
    x0, x1, x2 = point
    return lhs ** 4 > max(x0 ** 2, x1 ** 2, abs(x2)) * s_part(x0 * x1 * x2, {2}) ** 2


@pytest.mark.parametrize("point", TIE_POINTS)
def test_exact_tie_is_not_exceptional(point):
    # lhs = rhs = 18 exactly; the float rhs once rounded below 18 here
    row = evaluate_point(tie_config(12), point)
    assert row.lhs == 18
    x0, x1, x2 = point
    assert 18 ** 4 == max(x0 ** 2, x1 ** 2, abs(x2)) * s_part(x0 * x1 * x2, {2}) ** 2
    assert row.exceptional is False


def test_box_scan_verdicts_are_exact():
    report = vojta_scan(tie_config(12))
    for row in report.rows:
        assert row.exceptional == exact_verdict(row.point, row.lhs), row.point
    assert set(TIE_POINTS) <= {row.point for row in report.rows}


def near_tie_config(epsilon, weights=W111, generators=("3*x0", "3*x1"), point=(1, 1, 2)):
    # lhs = 3 at the point, and S = {2} leaves rhs = 2^epsilon
    return ScanConfig(
        weights=weights,
        subscheme=Subscheme(
            tuple(parse_polynomial(g, weights) for g in generators), Weights.of(1, 1)
        ),
        epsilon=epsilon,
        delta=Fraction(0),
        s_primes=frozenset({2}),
        domain=BoxDomain(tuple((v, v) for v in point)),
    )


# the max of |x_i|^(1/q_i) is 2, at q_k = 1 of m = 1, at q_k = 2 of m = 2
# and at q_k = 1 of m = 6
NEAR_TIES = {
    "": (W111, ("3*x0", "3*x1"), (1, 1, 2)),
    "w112": (W112, ("3*x0", "3*x1"), (1, 1, 4)),
    "w123": (Weights.of(1, 2, 3), ("3*x1", "3*x2"), (2, 1, 1)),
}


# convergents b/a of log_2 3 within 1e-9 of it, from both sides, whose
# integer comparison stays within the comparison budget
@pytest.mark.parametrize("case, b, a", [
    pytest.param(case, b, a, id="-".join(filter(None, (case, str(b), str(a)))))
    for case in NEAR_TIES
    for b, a in [(50508, 31867), (125743, 79335), (176251, 111202), (301994, 190537)]
])
def test_near_tie_verdict_matches_the_integers(case, b, a):
    config = near_tie_config(Fraction(b, a), *NEAR_TIES[case])
    row = evaluate_point(config, NEAR_TIES[case][2])
    assert row.lhs == 3
    assert abs(row.ratio - 1.0) <= 1e-9  # the floats leave it to exact work
    assert row.exceptional == (3 ** a > 2 ** b)
    assert vojta_scan(config).rows == [row]


def test_sunit_scan_with_denominator_matches_fraction_reference():
    # x1*(x1+x0)/2 is integral wherever x0 = 1, so the scan must accept it
    config = make_config(
        subscheme=Subscheme((
            parse_polynomial("1/2*x1^2+1/2*x1*x0", W111),
            parse_polynomial("x2-x0", W111),
        )),
        epsilon=Fraction(1, 2),
        s_primes=frozenset({2}),
        domain=SUnitGrid((2, 3), 60),
    )
    assert config.subscheme.generators[0].integer_form[0] == 2
    expected = []
    for tail in itertools.product(s_units((2, 3), 60), repeat=2):
        point = (1,) + tail
        exact = tuple(Fraction(v) for v in point)
        values = tuple(evaluate(g, exact) for g in config.subscheme.generators)
        if all(v == 0 for v in values):
            continue
        lhs = wgcd(values, config.subscheme.gcd_weights)
        log_max = max(math.log(abs(v)) / q for v, q in zip(point, W111.q))
        exponent = 1.0 / (W111.qprod * (config.r - 1 + float(config.delta)))
        stripped = s_part(math.prod(point), {2})
        rhs = math.exp(float(config.epsilon) * log_max + math.log(stripped) * exponent)
        expected.append((point, lhs, rhs, lhs / rhs, lhs > rhs))
    rows = [(r.point, r.lhs, r.rhs, r.ratio, r.exceptional) for r in vojta_scan(config).rows]
    assert rows == expected
    assert any(row[1] > 1 for row in rows) and any(row[4] for row in rows)


def test_scan_never_evaluates_through_fractions(monkeypatch):
    # the scan keeps values as ints: the Fraction evaluator and the
    # Fraction normalization inside wgcd must not be reached
    def refuse(*args, **kwargs):
        raise AssertionError("scan left the integer path")

    monkeypatch.setattr(wproj.gcdops, "evaluate", refuse)
    monkeypatch.setattr(wproj.gcdops, "_normalize_tuple", refuse)
    box = vojta_scan(make_config(domain=BoxDomain.symmetric(3, 3)))
    assert box.rows
    w = Weights.of(1, 2, 3)
    sunit = vojta_scan(ScanConfig(
        weights=w,
        subscheme=Subscheme(
            (parse_polynomial("x1-x0", w), parse_polynomial("x2-x0", w)),
            Weights.of(2, 3),
        ),
        epsilon=Fraction(1),
        delta=Fraction(0),
        s_primes=frozenset({2, 3}),
        domain=SUnitGrid((2, 3), 50),
    ))
    assert sunit.rows


def test_empty_domain():
    with pytest.raises(EmptyDomain):
        vojta_scan(make_config(domain=BoxDomain(((0, 0), (0, 0), (0, 0)))))


def test_degenerate_generators():
    w = Weights.of(1, 1)
    config = ScanConfig(
        weights=w,
        subscheme=Subscheme((parse_polynomial("x1-x0", w),), Weights.of(1)),
        epsilon=Fraction(1),
        delta=Fraction(1),
        s_primes=frozenset(),
        domain=BoxDomain(((1, 1), (1, 1))),
    )
    with pytest.raises(DegenerateGenerators):
        vojta_scan(config)


def test_single_generator_needs_positive_delta():
    w = Weights.of(1, 1)
    with pytest.raises(ValueError):
        ScanConfig(
            weights=w,
            subscheme=Subscheme((parse_polynomial("x1-x0", w),), Weights.of(1)),
            epsilon=Fraction(1),
            delta=Fraction(0),
            s_primes=frozenset(),
            domain=BoxDomain(((1, 2), (1, 2))),
        )


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(epsilon=Fraction(0))
    with pytest.raises(ValueError):
        make_config(delta=Fraction(-1))
    with pytest.raises(ValueError):
        BoxDomain(((3, 1),))
    with pytest.raises(ValueError):
        SUnitGrid((), 10)


def test_codim_override_changes_rhs():
    base = vojta_scan(make_config(domain=BoxDomain(((1, 4), (1, 4), (1, 4)))))
    overridden = vojta_scan(
        make_config(domain=BoxDomain(((1, 4), (1, 4), (1, 4))), codim=3)
    )
    assert base.config.r == 2 and overridden.config.r == 3
    point = (1, 2, 3)
    r1 = next(row for row in base.rows if row.point == point)
    r2 = next(row for row in overridden.rows if row.point == point)
    assert r1.rhs > r2.rhs  # larger r shrinks the S-part exponent


# at or above _TRIAL_LIMIT = 2^16, where the walk's tables hold |v|, some
# at or above (_TRIAL_LIMIT + 1)^2, where factorize would try rho; 65537
# and 4294967311 are prime
BIG_VALUES = [2 ** 16, 3 * 2 ** 16, 65537, 5 ** 7, 2 ** 32, 3 * 2 ** 32, 3 ** 21, 6 ** 13,
              4294967311, 4294967311 ** 2]


@st.composite
def walk_inputs(draw):
    q = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    lists = []
    for _ in q:
        lo = draw(st.integers(-9, 9))
        box = range(lo, lo + draw(st.integers(0, 6)))  # asymmetric, with 0 or not
        big = draw(st.lists(st.sampled_from(BIG_VALUES), max_size=2, unique=True))
        lists.append([*box, *big, *(-v for v in big[:1])])
    return Weights(tuple(q)), lists


@given(walk_inputs())
def test_walk_is_the_wgcd_filter(inputs):
    w, lists = inputs
    radicals = [{v: wproj.scan._radical(v, q) for v in values} for values, q in zip(lists, w.q)]
    expected = [p for p in itertools.product(*lists) if any(p) and wgcd(p, w) == 1]
    assert block_points(prefix_blocks(lists, radicals, w)) == expected


def test_walk_tables_factor_no_large_value(monkeypatch):
    # trial division of each |v| near 2^32 took milliseconds, where the
    # weighted GCDs of its tuples take microseconds
    calls = _counting(monkeypatch, wproj.arith, "factorize")
    lo = 4 * 10 ** 9
    tie = tie_config(14)
    config = ScanConfig(tie.weights, tie.subscheme, tie.epsilon, tie.delta, tie.s_primes,
                        BoxDomain(((2, 2), (2, 2), (lo, lo + 400))))
    radicals = config.coordinate_radicals
    assert calls == [] and radicals[2][lo + 7] == lo + 7
    points = [p for part in wproj.scan.parts(config)
              for p in block_points(wproj.scan.candidate_points(config, part))]
    assert points == [(2, 2, v) for v in range(lo, lo + 401) if wgcd((2, 2, v), W112) == 1]


def test_walk_calls_wgcd_only_to_reject(monkeypatch):
    # the benchmark's seed-0 box-scan and audit: exact tables, so every
    # leaf left to the primes of the walk's h has a weighted GCD above 1,
    # and no leaf calls wgcd
    calls = _counting(monkeypatch, wproj.scan, "_wgcd_above_one")
    wgcds = _counting(monkeypatch, wproj.scan, "wgcd")
    config = tie_config(14)
    points = [p for part in wproj.scan.parts(config)
              for p in block_points(wproj.scan.candidate_points(config, part))]
    box = itertools.product(*[[v for v in range(-14, 15) if v]] * 3)
    assert len(calls) == sum(wgcd(p, W112) > 1 for p in box) == 28 ** 3 - len(points)
    assert all(math.gcd(*p) % h == 0 for p, h, _ in calls)  # h divides the plain gcd
    calls.clear()
    w, bound = Weights.of(2, 3, 5), 11
    points = _canonical_points(w, bound)
    rejected = sum(1 for p in sign_canonical_tuples(w.q, bound) if any(p)) - len(points)
    assert len(calls) == rejected == 11
    assert wgcds == []


def _canonical_points(w, bound):
    return block_points(wproj.scan._canonical_points(w, bound))


def _assert_log_hwgcd_vanishes(w, bound):
    # the lemma that lets sing1_audit skip computing log hwgcd
    points = _canonical_points(w, bound)
    assert points
    for point in points:
        assert log_hwgcd(point, w, include_archimedean=True).is_zero(), point


def test_sing1_audit_examples():
    report = sing1_audit(Weights.of(2, 3, 5), 3)
    points = {row.point for row in report.counterexamples}
    assert (1, 1, 1) in points
    _assert_log_hwgcd_vanishes(Weights.of(2, 3, 5), 3)
    # every counterexample is nonsingular
    for row in report.counterexamples:
        assert not is_singular(WPoint.of(row.point, Weights.of(2, 3, 5)))

    flat = sing1_audit(Weights.of(1, 1), 5)
    _assert_log_hwgcd_vanishes(Weights.of(1, 1), 5)
    # all points nonsingular, all have log hwgcd 0: everything is reported
    assert flat.singular_points == 0
    assert len(flat.counterexamples) == flat.total_points

    empty = sing1_audit(Weights.of(1, 1), 0)
    assert empty.total_points == 0
    assert empty.counterexamples == []


def test_sing1_audit_requires_well_formed():
    with pytest.raises(IllFormedWeights):
        sing1_audit(Weights.of(2, 4), 2)


def test_sing1_audit_determinism():
    first = sing1_audit(Weights.of(2, 3, 5), 3)
    second = sing1_audit(Weights.of(2, 3, 5), 3)
    assert [r.point for r in first.counterexamples] == [
        r.point for r in second.counterexamples
    ]
    assert first.counterexamples == second.counterexamples


AUDIT_WEIGHTS = [(2, 3, 5), (2, 5, 3), (1, 1), (1, 2, 3), (1, 1, 1, 1), (1, 4, 6, 9)]


def _canonical_points_oracle(w, bound):
    # a tuple is canonical when normalize, through WPoint and sign_canon,
    # fixes it (sign_canon first only to skip normalize on half the tuples)
    out = []
    for point in itertools.product(range(-bound, bound + 1), repeat=len(w)):
        if any(point):
            x = WPoint.of(point, w)
            if sign_canon(x) == x and normalize(x).coords == x.coords:
                out.append(point)
    return out


@pytest.mark.parametrize("q", AUDIT_WEIGHTS)
def test_canonical_points_match_normalize(q):
    w = Weights.of(*q)
    expected = _canonical_points_oracle(w, 6)
    for bound in range(7):
        # the box of radius bound keeps the lexicographic order of the larger box
        in_box = [p for p in expected if max(map(abs, p)) <= bound]
        assert _canonical_points(w, bound) == in_box, bound


@pytest.mark.parametrize("q", AUDIT_WEIGHTS)
def test_sing1_audit_singularity_per_point(q):
    # the audit tests singularity once per support; test it at every point
    w = Weights.of(*q)
    report = sing1_audit(w, 4)
    points = _canonical_points(w, 4)
    nonsingular = [p for p in points if not is_singular(WPoint.of(p, w))]
    assert report.total_points == len(points)
    assert report.singular_points == len(points) - len(nonsingular)
    assert [row.point for row in report.counterexamples] == nonsingular


def _audit_reference(w, bound):
    """(points, singular points, counterexamples) point by point: the walk's
    points, ``is_singular`` and a ``_valuation_table`` at each, in walk order."""
    floors = wproj.scan._valuation_floors(w, bound)
    points = _canonical_points(w, bound)
    nonsingular = [p for p in points if not is_singular(WPoint.of(p, w))]
    rows = [AuditRow(p, wproj.scan._valuation_table(p, floors)) for p in nonsingular]
    return len(points), len(points) - len(nonsingular), rows


@pytest.mark.parametrize("q, bounds", [
    *((q, range(9)) for q in itertools.permutations((2, 3, 5))),
    ((1, 4, 6, 9), [3]),
])
def test_audit_by_blocks_is_the_per_point_audit(q, bounds):
    # tables built once per |x| and singularity decided per block
    w = Weights.of(*q)
    for bound in bounds:
        report = sing1_audit(w, bound)
        reference = _audit_reference(w, bound)
        assert (report.total_points, report.singular_points) == reference[:2], bound
        assert report.counterexamples == reference[2], bound


# each holds a zero coordinate, a weight 1, a prime only the head has, one only
# the last coordinate has, and an all-zero head (see the test below)
DRAWN_AUDIT_EXAMPLES = [((2, 1), 6), ((2, 3, 5), 6), ((7, 1, 6), 5), ((4, 6, 5, 1), 3)]


def _table_cases(rows):
    """The cases of the per-prefix tables that these counterexamples hold."""
    cases = set()
    for row in rows:
        *head, last = row.point
        head_primes = {p for p, _, _ in row.valuations
                       if any(x and x % p == 0 for x in head)}
        last_primes = {p for p, _, _ in row.valuations if last and last % p == 0}
        cases.update(
            {"zero"} if 0 in row.point else (),
            {"all-zero head"} if not any(head) else (),
            {"head only"} if head_primes - last_primes else (),
            {"last only"} if last_primes - head_primes else (),
        )
    return cases


def test_drawn_audit_examples_hold_every_table_case():
    cases = set()
    for q, bound in DRAWN_AUDIT_EXAMPLES:
        cases |= _table_cases(_audit_reference(Weights.of(*q), bound)[2])
    assert cases == {"zero", "all-zero head", "head only", "last only"}
    assert any(1 in q for q, _ in DRAWN_AUDIT_EXAMPLES)


def _with_drawn_audit_examples(test):
    for q, bound in DRAWN_AUDIT_EXAMPLES:
        test = example(q, bound)(test)
    return test


@settings(max_examples=25)
@given(st.lists(st.integers(1, 7), min_size=2, max_size=4).map(tuple)
       .filter(lambda q: Weights.of(*q).is_well_formed()), st.integers(0, 6))
@_with_drawn_audit_examples
def test_audit_by_blocks_is_the_per_point_audit_at_drawn_weights(q, bound):
    # the tables built per prefix, then per last coordinate, are the per-point ones
    w = Weights.of(*q)
    report = sing1_audit(w, bound)
    reference = _audit_reference(w, bound)
    assert (report.total_points, report.singular_points) == reference[:2]
    assert report.counterexamples == reference[2]


def test_sing1_audit_stays_off_the_fraction_path(monkeypatch):
    # the enumeration tests the sign canon on int tuples, and the audit
    # builds a WPoint only once per support, for is_singular
    def refuse(*args, **kwargs):
        raise AssertionError("the audit called sign_canon")

    calls = []
    build = WPoint.of.__func__

    def counting_of(cls, coords, weights):
        calls.append(tuple(coords))
        return build(cls, coords, weights)

    monkeypatch.setattr(wproj.scan, "sign_canon", refuse)
    monkeypatch.setattr(wproj.scan.WPoint, "of", classmethod(counting_of))
    report = sing1_audit(Weights.of(2, 3, 5), 6)
    assert report.total_points > 1000
    assert len(calls) <= 2 ** 3 - 1


def _valuations_oracle(point, q):
    """(prime, floors, min) from sympy's factorizations; -1 marks a zero
    coordinate's +infinity."""
    factors = [sympy.factorint(abs(v)) if v else None for v in point]
    primes = sorted(set().union(*(f for f in factors if f)))
    table = []
    for p in primes:
        floors = tuple(-1 if f is None else f.get(p, 0) // qi for f, qi in zip(factors, q))
        table.append((p, floors, min(f for f in floors if f >= 0)))
    return tuple(table)


@pytest.mark.parametrize(
    "q, bound", [((2, 3, 5), 8), ((1, 1, 1), 6), ((1, 4, 6, 9), 3), ((3, 4, 5), 6), ((1, 2, 2, 3), 4)]
)
def test_audit_valuations_match_the_sympy_oracle(q, bound):
    report = sing1_audit(Weights.of(*q), bound)
    rows = report.counterexamples
    for row in rows:
        assert row.valuations == _valuations_oracle(row.point, q), row.point
    # the cases the tables must get right are all present
    assert any(-1 in floors for row in rows for _, floors, _ in row.valuations)
    assert any(min(row.point) < 0 and row.valuations for row in rows)
    assert any(row.valuations == () for row in rows)


def _direct_row(config, point):
    """The row from the formula itself: generator values through
    Fractions, the logs taken here, s_part of the whole product."""
    exact = tuple(Fraction(v) for v in point)
    values = [evaluate(g, exact) for g in config.subscheme.generators]
    assert all(v.denominator == 1 for v in values)
    if not any(values):
        return None
    lhs = wgcd([int(v) for v in values], config.subscheme.gcd_weights)
    q = config.weights.q
    log_max = max(math.log(abs(v)) / qi for v, qi in zip(point, q))
    stripped = s_part(math.prod(point), config.s_primes)
    exponent = 1.0 / (config.weights.qprod * (config.r - 1 + float(config.delta)))
    rhs = math.exp(float(config.epsilon) * log_max + math.log(stripped) * exponent)
    # lhs > rhs on Fractions: both sides to the power D
    coord = [config.epsilon / qi for qi in q]
    s_exp = 1 / (config.weights.qprod * (config.r - 1 + config.delta))
    D = math.lcm(s_exp.denominator, *(e.denominator for e in coord))
    rhs_pow = max(abs(v) ** int(e * D) for v, e in zip(point, coord)) * stripped ** int(s_exp * D)
    return lhs, rhs.hex(), (lhs / rhs).hex(), lhs ** D > rhs_pow, stripped


W123 = Weights.of(1, 2, 3)
TABLE_CONFIGS = [
    # S = {5, 7} leaves 2, 3 and 11 in the prime-to-S part
    ScanConfig(
        weights=W112,
        subscheme=Subscheme(
            (parse_polynomial("x1-x0", W112), parse_polynomial("x2-x0", W112)),
            Weights.of(1, 1),
        ),
        epsilon=Fraction(1, 2),
        delta=Fraction(0),
        s_primes=frozenset({5, 7}),
        domain=BoxDomain(((-11, 9), (-6, 11), (-10, 4))),
    ),
    ScanConfig(
        weights=W123,
        subscheme=Subscheme(
            (parse_polynomial("x1-x0^2", W123), parse_polynomial("x2-x0^3", W123))
        ),
        epsilon=Fraction(2, 3),
        delta=Fraction(1, 2),
        s_primes=frozenset({3}),
        domain=BoxDomain.symmetric(7, 3),
    ),
]


@pytest.mark.parametrize("config", TABLE_CONFIGS)
def test_rows_match_the_direct_formula_bit_for_bit(config):
    sizes = [len(table) for table in config.coordinate_terms]
    box = itertools.product(*(range(lo, hi + 1) for lo, hi in config.domain.bounds))
    checked = stripped_above_one = lhs_above_one = 0
    for point in box:
        if 0 in point:
            continue
        row = evaluate_point(config, point)
        expected = _direct_row(config, point)
        if row is None:
            assert expected is None, point
            continue
        assert (row.lhs, row.rhs.hex(), row.ratio.hex(), row.exceptional) == expected[:4], point
        checked += 1
        stripped_above_one += expected[4] > 1
        lhs_above_one += row.lhs > 1
    assert checked > 1000 and stripped_above_one and lhs_above_one
    # a point outside the domain is evaluated, and grows no table
    for point in [(23, -45, 12), (-3, 2 ** 70 + 1, 5), (1, 1, 10 ** 9 + 7)]:
        row = evaluate_point(config, point)
        assert (row.lhs, row.rhs.hex(), row.ratio.hex(), row.exceptional) == (
            _direct_row(config, point)[:4]
        )
    assert [len(table) for table in config.coordinate_terms] == sizes


def test_float_overflow_is_a_typed_error():
    config = make_config(epsilon=Fraction(1000), domain=BoxDomain.symmetric(3, 3))
    assert evaluate_point(config, (1, 2, 2)).rhs == pytest.approx(2.0 ** 1002)
    with pytest.raises(FloatOverflow, match=r"^the row at \[-1:1:3\] .* \(log rhs = 1099\.71,"):
        evaluate_point(config, (-1, 1, 3))
    # an lhs of 10^400 - 1 has no float for the ratio
    w = Weights.of(1, 1)
    config = ScanConfig(
        weights=w,
        subscheme=Subscheme((parse_polynomial("x1^400-x0^400", w),), Weights.of(1)),
        epsilon=Fraction(1),
        delta=Fraction(1),
        s_primes=frozenset(),
        domain=BoxDomain.symmetric(10, 2),
    )
    assert evaluate_point(config, (1, 5)).lhs == 5 ** 400 - 1
    with pytest.raises(FloatOverflow, match=r"^the row at \[1:10\] .*, lhs has 1329 bits\)$"):
        evaluate_point(config, (1, 10))


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_audit_factors_per_value_not_per_point(monkeypatch):
    # the benchmark's seed-0 audit: weights (2,3,5), bound 11
    calls = _counting(monkeypatch, wproj.arith, "factorize")
    monkeypatch.setattr(wproj.gcdops, "factorize", wproj.arith.factorize)
    w, bound = Weights.of(2, 3, 5), 11
    report = sing1_audit(w, bound)
    box = itertools.product(range(-bound, bound + 1), repeat=len(w))
    gcd_above_one = sum(math.gcd(*point) > 1 for point in box)
    assert len(calls) <= (2 * bound + 1) + gcd_above_one
    assert report.total_points > 3 * len(calls)


def test_scan_strips_per_value_not_per_tuple(monkeypatch):
    # the benchmark's seed-0 sunit-preset and box-scan configurations
    calls = _counting(monkeypatch, wproj.scan, "s_part")
    report = vojta_scan(sunit_preset_config())
    units = s_units((2, 3), 10 ** 6)
    assert len(calls) <= 1 + 2 * len(units)
    assert len(report.rows) == len(units) ** 2 - 1
    calls.clear()
    report = vojta_scan(tie_config(14))
    assert len(calls) <= 3 * 28  # the nonzero values of each coordinate
    assert len(report.rows) > 20_000


def sunit_preset_config():
    return ScanConfig(
        weights=W123,
        subscheme=Subscheme(
            (parse_polynomial("x1-x0", W123), parse_polynomial("x2-x0", W123)),
            Weights.of(2, 3),
        ),
        epsilon=Fraction(1),
        delta=Fraction(0),
        s_primes=frozenset({2, 3}),
        domain=SUnitGrid((2, 3), 10 ** 6),
    )


def test_evaluate_point_is_the_scans_row_on_and_off_the_grid():
    config = sunit_preset_config()
    report = vojta_scan(config)
    for row in report.rows[::997] + report.rows[-3:]:
        assert evaluate_point(config, row.point) == row
    assert evaluate_point(config, (1, 1, 1)) is None  # the one candidate with no row
    # off the grid: x0 = 2, and 5, 7, 11 are not S-units
    for point in [(2, 3, 5), (-7, 11, 4), (1, 2 ** 40 * 5, 3 ** 30)]:
        row = evaluate_point(config, point)
        assert (row.lhs, row.rhs.hex(), row.ratio.hex(), row.exceptional) == (
            _direct_row(config, point)[:4]
        ), point


def test_scan_checks_no_walk_tuple(monkeypatch):
    # the benchmark's seed-0 sunit-preset and box-scan configurations: the
    # enumeration's tuples reach the row loop unchecked, only the walk's
    # leaves are decided by factoring, and a row's generator values are
    # factored only where the prefix's constant values leave a prime open
    def refuse(*args):
        raise AssertionError("the scan took the checked path")

    checked = _counting(monkeypatch, wproj.gcdops, "_integer_tuple")
    leaves = _counting(monkeypatch, wproj.scan, "_wgcd_above_one")
    factored = _counting(monkeypatch, wproj.scan, "_wgcd_value")
    exponents = _counting(monkeypatch, wproj.gcdops, "_wgcd_exponents")
    monkeypatch.setattr(wproj.scan, "_integer_tuple", refuse, raising=False)
    monkeypatch.setattr(Subscheme, "values_at", refuse)
    report = vojta_scan(sunit_preset_config())
    assert checked == leaves == []
    # the generators x1 - x0 and x2 - x0 at x0 = 1, gcd weights (2, 3): x1 - 1
    # is the block's constant, so a row is factored when its plain gcd shares
    # a prime with r_2(x1 - 1)
    points = [row.point for row in report.rows]
    assert sum(math.gcd(x1 - 1, x2 - 1) > 1 for _, x1, x2 in points) == 2_992
    open_rows = [(x1 - 1, x2 - 1) for _, x1, x2 in points
                 if math.gcd(x1 - 1, x2 - 1, wproj.scan._radical(x1 - 1, 2)) > 1]
    assert [tuple(ints) for ints, _ in factored] == open_rows
    assert len(factored) == len(exponents) == 1_336
    factored.clear()
    exponents.clear()
    report = vojta_scan(tie_config(14))
    assert checked == factored == exponents == []  # gcd weights (1, 1): lhs is the plain gcd
    assert len(leaves) == 1_304
    assert len(report.rows) == 20_628


def test_evaluate_point_checks_a_point_from_outside():
    config = make_config()
    with pytest.raises(NonIntegralValue, match=r"^1/2 is not an integer$"):
        evaluate_point(config, (Fraction(1, 2), 1, 1))
    with pytest.raises(ArityMismatch, match=r"^expected 3 values, got 2$"):
        evaluate_point(config, (1, 1))
    with pytest.raises(AllZero, match=r"^weighted gcd of the all-zero tuple is undefined$"):
        evaluate_point(config, (0, 0, 0))
    zero = r"^the prime-to-S part of 0 is undefined, at \[0:1:1\]$"
    with pytest.raises(ZeroInput, match=zero):
        evaluate_point(config, (0, 1, 1))
    # an integral Fraction point is its int point, in the row too
    row = evaluate_point(config, (Fraction(2), Fraction(4), Fraction(6)))
    assert row == evaluate_point(config, (2, 4, 6))
    assert [type(v) for v in row.point] == [int] * 3 and type(row.point) is tuple


def test_scan_fixes_the_generators_once_per_block(monkeypatch):
    # the benchmark's seed-0 sunit-preset and box-scan configurations: the
    # generators are fixed at a block's prefix once per block, not per row
    fixed = _counting(monkeypatch, wproj.scan, "fix_prefix")
    report = vojta_scan(sunit_preset_config())
    assert len(report.rows) == 20_163
    assert len(fixed) == 142 * 2
    fixed.clear()
    report = vojta_scan(tie_config(14))
    assert len(fixed) == 784 * 2
    assert 784 < len(report.rows) == 20_628


def test_a_clean_scan_evaluates_each_block_once(monkeypatch):
    # the benchmark's seed-0 sunit-preset and box-scan configurations: a block
    # is evaluated again as blocks of one only when a stage fails, so a scan
    # with no error evaluates the blocks that candidate_points yields, once each
    evaluated = _counting(monkeypatch, wproj.scan, "_int_columns")
    factored = _counting(monkeypatch, wproj.scan, "_wgcd_value")
    for config, blocks, candidates in [(sunit_preset_config(), 142, 20_164),
                                       (tie_config(14), 784, 20_648)]:
        yielded = [values for part in wproj.scan.parts(config)
                   for _, values in wproj.scan.candidate_points(config, part)]
        evaluated.clear()
        factored.clear()
        report = vojta_scan(config)
        assert [values for _, values in evaluated] == yielded
        assert len(yielded) == blocks
        assert report.total_candidates == sum(map(len, yielded)) == candidates
        if config.domain == sunit_preset_config().domain:
            assert len(factored) == 1_336


@st.composite
def block_scan_configs(draw):
    n = draw(st.integers(1, 4))
    q = st.lists(st.integers(1, 4), min_size=n, max_size=n)
    w = draw(q.map(lambda q: Weights(tuple(q))).filter(Weights.is_well_formed))
    coefficient = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                            st.sampled_from([1, 1, 1, 1, 2, 3]))
    terms = st.lists(st.tuples(coefficient, st.tuples(*[st.integers(0, 3)] * n)),
                     min_size=1, max_size=4)
    form = terms.map(lambda t: WPolynomial.from_terms(t, w)).filter(lambda f: not f.is_zero())
    # forms without the last coordinate: constant on a block, and 0 on
    # the blocks with x0 = 1 (every S-unit block) or x0 = x1
    special = ["x0^2-x0", "x1-x0"][:n - 1]
    if special:
        form = st.one_of(form, st.sampled_from(special).map(lambda t: parse_polynomial(t, w)))
    forms = draw(st.lists(form, min_size=1, max_size=3))
    r = len(forms)
    if draw(st.booleans()):
        width = 4 if n == 4 else 6
        bounds = st.tuples(st.integers(-6, 6), st.integers(0, width))
        domain = BoxDomain(tuple((lo, lo + d) for lo, d in draw(st.tuples(*[bounds] * n))))
    else:
        primes = draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2, unique=True))
        domain = SUnitGrid(tuple(sorted(primes)), draw(st.integers(1, 30 if n < 4 else 12)))
    return ScanConfig(
        weights=w,
        subscheme=Subscheme(tuple(forms), Weights(tuple(draw(st.lists(
            st.integers(1, 3), min_size=r, max_size=r))))),
        epsilon=draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)])),
        delta=draw(st.sampled_from([Fraction(1, 2), Fraction(1)] + [Fraction(0)] * (r > 1))),
        s_primes=frozenset(draw(st.lists(st.sampled_from([2, 3, 5]), max_size=2))),
        domain=domain,
    )


def _box_config(q, generators, gcd_weights, bounds):
    w = Weights(q)
    forms = tuple(parse_polynomial(f, w) for f in generators)
    return make_config(weights=w, subscheme=Subscheme(forms, Weights(gcd_weights)),
                       s_primes=frozenset({2}), domain=BoxDomain(bounds))


def _reference_rows(config):
    """The scan of config point by point, on the whole tuple: each
    generator's ``scaled_value``, ``wgcd``, ``math.log`` of every
    coordinate and ``s_part`` of their product.  Returns the rows, the
    points evaluated and the NonIntegralValue message of the last one, or
    None."""
    w, y = config.weights, config.subscheme
    rows, points = [], []
    for point in itertools.product(*config.coordinate_values):
        if wgcd(point, w) != 1:
            continue
        points.append(point)
        values = []
        for d, terms in (g.integer_form for g in y.generators):
            value = scaled_value(terms, point)
            if value % d:
                return rows, points, f"{Fraction(value, d)} is not an integer"
            values.append(value // d)
        if not any(values):
            continue
        lhs = wgcd(values, y.gcd_weights)
        logs = [math.log(abs(x)) / qi for x, qi in zip(point, w.q)]
        stripped = s_part(math.prod(point), config.s_primes)
        rhs = math.exp(config.float_epsilon * max(logs) + math.log(stripped) * config.rhs_exponent)
        ratio = lhs / rhs
        exceptional = lhs > rhs
        if abs(ratio - 1.0) <= _SIGN_MARGIN:
            top = math.lcm(*w.q)  # |x_k|^(1/q_k) is the max of the |x_i|^(top/q_i)
            k = max(range(len(point)), key=lambda i: abs(point[i]) ** (top // w.q[i]))
            s_exp = Fraction(1, w.qprod) / (config.r - 1 + config.delta)
            exceptional = log_sum_sign([(lhs, 1), (abs(point[k]), -config.epsilon / w.q[k]),
                                        (stripped, -s_exp)]) > 0
        rows.append(ScanRow(point, lhs, rhs, ratio, exceptional))
    return rows, points, None


def _row_key(row):
    return row.point, row.lhs, row.rhs.hex(), row.ratio.hex(), row.exceptional


# a leaf block: at (4, 8), r_2(4) = r_3(8) = 2, so the odd x2 pass wgcd
@example(_box_config((2, 3, 1), ("x2^2-x0*x2", "x1-x0"), (1, 1), ((3, 4), (8, 8), (-4, 4))))
# the first non-integral value is at (-2, -1, -2), in the first block
@example(_box_config((1, 1, 1), ("1/2*x1-x0", "x2-x0"), (1, 1), ((-2, 2),) * 3))
@given(block_scan_configs())
def test_block_rows_are_the_per_point_rows(config):
    blocks_seen, made, totals = [], [], []

    def render(*block):
        rows = scan_rows(*block)
        made.extend(rows)
        return rows

    def seen(blocks):
        for block in blocks:
            blocks_seen.append(block)
            yield block

    error = None
    try:
        for part in wproj.scan.parts(config):
            blocks = seen(wproj.scan.candidate_points(config, part))
            totals.append(wproj.scan._scan_part(config, render, blocks, config.coordinate_terms))
    except NonIntegralValue as exc:
        error = str(exc)
    rows, points, expected_error = _reference_rows(config)
    scanned = block_points(blocks_seen)
    assert error == expected_error
    if error is None:
        assert scanned == points
    else:  # the reference stops at the failing point, in the last block scanned
        assert scanned[:len(points)] == points
        assert len(points) > len(scanned) - len(blocks_seen[-1][1])
    assert [_row_key(row) for row in made] == [_row_key(row) for row in rows]
    if error is None:
        assert [row for *_, part_rows in totals for row in part_rows] == made
        assert sum(t[0] for t in totals) == len(points)
        assert sum(t[1] for t in totals) == sum(row.exceptional for row in rows)
        if rows:
            assert max(t[2] for t in totals).hex() == max(row.ratio for row in rows).hex()
