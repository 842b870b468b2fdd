import itertools
import json
import math
import os
from fractions import Fraction

import pytest

import wproj.gcdops
import wproj.scan
from wproj.arith import s_part
from wproj.cli import main
from wproj.errors import (
    DegenerateGenerators,
    EmptyDomain,
    IllFormedWeights,
    NonIntegralValue,
)
from wproj.gcdops import Subscheme, log_hwgcd, wgcd
from wproj.scan import (
    BoxDomain,
    ScanConfig,
    SUnitGrid,
    evaluate_point,
    s_units,
    sing1_audit,
    vojta_scan,
)
from wproj.points import WPoint, normalize, sign_canon
from wproj.singular import is_singular
from wproj.weights import Weights
from wproj.wpoly import evaluate, parse_polynomial

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
    first = vojta_scan(config)
    second = vojta_scan(config)
    assert format_scan_csv(first) == format_scan_csv(second)
    assert format_scan_json(first) == format_scan_json(second)
    assert "runtime" not in format_scan_json(first)


def test_scan_workers_match_sequential(monkeypatch):
    # the README S-unit preset: more than two slices per process, and
    # (1,1,1) is skipped on the subscheme
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
    assert len(wproj.scan.parts(config)) > 2 * 2
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
    # the slices, in order, are the lexicographic enumeration of the domain
    points = [p for part in wproj.scan.parts(config)
              for p in wproj.scan.candidate_points(config, part)]
    if isinstance(config.domain, BoxDomain):
        box = itertools.product(*(range(lo, hi + 1) for lo, hi in config.domain.bounds))
        expected = [p for p in box if 0 not in p and wgcd(p, config.weights) == 1]
    else:
        units = s_units(config.domain.primes, config.domain.max_value)
        expected = [(1,) + tail for tail in itertools.product(units, repeat=2)]
    assert points == expected


@pytest.fixture
def fake_children(monkeypatch):
    """Replaces the forked child by a stand-in that scans its share in
    this process when its results are read, and starts no process;
    returns the share of every child the scans would have started."""
    started = []

    class FakeChild:
        def __init__(self, config, render, share):
            started.append(share)
            self.results = lambda: wproj.scan._scan_share(config, render, share)

        def kill(self):
            pass

    monkeypatch.setattr(wproj.scan, "_Child", FakeChild)
    return started


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
    slices = wproj.scan.parts(config)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert vojta_scan(config, workers=100_000).rows == serial.rows
    # slice i goes to process i mod 3; this process scans slices[0::3]
    assert fake_children == [slices[1::3], slices[2::3]]
    assert vojta_scan(config, workers=2).rows == serial.rows
    assert fake_children == [slices[1::3], slices[2::3], slices[1::2]]
    for cpus in (1, None):  # one CPU, or an unknown count: no child at all
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert vojta_scan(config, workers=100_000).rows == serial.rows
    assert len(fake_children) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.delattr(os, "fork")  # a platform without fork scans serially
    assert vojta_scan(config, workers=3).rows == serial.rows
    assert len(fake_children) == 3


def test_scan_raises_the_earliest_failing_slice(fake_children, monkeypatch):
    # slices 1 and 2 fail; slice 2 belongs to this process, slice 1 to a child
    def render(row):
        if row.point[0] in (2, 3):
            raise ValueError(f"slice x0 = {row.point[0]}")
        return row

    config = make_config(domain=BoxDomain(((1, 5), (1, 2), (1, 2))))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for workers in (1, 2):
        with pytest.raises(ValueError, match="^slice x0 = 2$"):
            vojta_scan(config, workers=workers, render=render)
    assert fake_children == [wproj.scan.parts(config)[1::2]]


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


def test_interrupt_kills_and_reaps_the_children(monkeypatch):
    parent = _forking(monkeypatch)

    class Interrupt(BaseException):
        pass

    def render(row):
        if os.getpid() == parent:
            raise Interrupt
        return row

    with pytest.raises(Interrupt):
        vojta_scan(make_config(), workers=2, render=render)
    _assert_no_child_left()


def test_a_child_that_dies_without_a_result_is_an_error(monkeypatch):
    parent = _forking(monkeypatch)

    def render(row):
        if os.getpid() != parent:
            os._exit(7)
        return row

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


def _assert_log_hwgcd_vanishes(w, bound):
    # the lemma that lets sing1_audit skip computing log hwgcd
    points = list(wproj.scan._canonical_points(w, bound))
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
        assert list(wproj.scan._canonical_points(w, bound)) == in_box, bound


@pytest.mark.parametrize("q", AUDIT_WEIGHTS)
def test_sing1_audit_singularity_per_point(q):
    # the audit tests singularity once per support; test it at every point
    w = Weights.of(*q)
    report = sing1_audit(w, 4)
    points = list(wproj.scan._canonical_points(w, 4))
    nonsingular = [p for p in points if not is_singular(WPoint.of(p, w))]
    assert report.total_points == len(points)
    assert report.singular_points == len(points) - len(nonsingular)
    assert [row.point for row in report.counterexamples] == nonsingular


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
