import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given

from wproj import arith
from wproj.arith import ARCHIMEDEAN, LogValue, Place
from wproj.errors import (
    AllZero,
    ArityMismatch,
    ComparisonBudgetExceeded,
    MixedDegree,
    NonIntegralValue,
    NotNormalized,
    PointOnSubscheme,
)
from wproj.gcdops import (
    Subscheme,
    hwgcd,
    hwgcd_subscheme,
    log_hwgcd,
    log_wgcd,
    t_nu,
    wgcd,
)
from wproj.points import WPoint, normalize, scale
from wproj.weights import Weights
from wproj.wpoly import parse_polynomial

from helpers import tie_prone_tuples
from oracles import (
    archimedean_log_hwgcd,
    brute_wgcd,
    exp_digits,
    floor_log,
    nu_plus_wgcd_exponents,
)

W23 = Weights.of(2, 3)
W11 = Weights.of(1, 1)


def test_wgcd_examples():
    assert wgcd((16, 64), W23) == 4
    assert wgcd((48, 36), W23) == 1
    assert wgcd((12, 18), W11) == 6
    with pytest.raises(AllZero):
        wgcd((0, 0), W23)
    with pytest.raises(ArityMismatch):
        wgcd((1, 2, 3), W23)


def test_wgcd_zero_coordinates_absorb():
    assert wgcd((0, 8), W23) == 2  # only x1 constrains: floor(3/3) = 1
    assert wgcd((0, 27), W23) == 3


def test_log_wgcd_examples():
    assert log_wgcd((16, 64), W23) == LogValue.of_rational(4)
    assert log_wgcd((1, 1), W23).is_zero()
    assert log_wgcd((4, 8), W23) == LogValue.of_rational(2)
    assert float(log_wgcd((16, 64), W23)) == pytest.approx(math.log(4))


def test_hwgcd_examples():
    assert hwgcd((4, Fraction(8, 3)), W23) == 2
    assert hwgcd((1, 1), W23) == 1
    assert hwgcd((Fraction(1, 2), Fraction(1, 3)), W23) == 1


def test_hwgcd_matches_nu_plus_oracle_on_rationals():
    # numerators share a factor c^{q_i} so that many tuples have a
    # nontrivial generalized gcd; denominators may cancel part of it
    rng = random.Random(31)
    nontrivial = 0
    for q in ((1, 2), (2, 3), (1, 1, 2), (2, 3, 5)):
        w = Weights(q)
        for _ in range(300):
            c = rng.choice((1, 2, 3, 4, 6, 10, 12))
            xs = tuple(
                Fraction(c ** qi * rng.randint(-30, 30), rng.randint(1, 30)) for qi in q
            )
            if all(x == 0 for x in xs):
                continue
            exponents = nu_plus_wgcd_exponents(xs, q)
            assert hwgcd(xs, w) == math.prod(p ** e for p, e in exponents.items())
            assert log_hwgcd(xs, w) == LogValue(exponents)
            nontrivial += bool(exponents)
    assert nontrivial > 300


def test_log_hwgcd_examples():
    assert log_hwgcd((4, 8), W23) == LogValue.of_rational(2)
    # integers >= 1 in absolute value: archimedean term is 0
    with_flag = log_hwgcd((4, 8), W23, include_archimedean=True)
    assert with_flag == log_hwgcd((4, 8), W23)
    # archimedean term without floor: min(log4 / 2, log8 / 3) = log 2
    arch = log_hwgcd(
        (Fraction(1, 4), Fraction(1, 8)), W23, include_archimedean=True
    )
    assert arch == LogValue.of_rational(2)
    assert log_hwgcd(
        (Fraction(1, 4), Fraction(1, 8)), W23, include_archimedean=False
    ).is_zero()


def test_t_nu_examples():
    assert t_nu(WPoint.of((4, 8), W23), Place(2)) == 1
    assert t_nu(WPoint.of((3, 4), W23), Place(5)) == 0
    assert t_nu(WPoint.of((0, 8), W23), Place(2)) == 1
    # archimedean place keeps the floor
    x = WPoint.of((Fraction(1, 9), Fraction(1, 8)), W23)
    # nu+ = (log 9, log 8); floors: floor(log9/2)=1, floor(log8/3)=0
    assert t_nu(x, ARCHIMEDEAN) == 0
    y = WPoint.of((Fraction(1, 9), Fraction(1, 1024)), W23)
    assert t_nu(y, ARCHIMEDEAN) == 1


def test_t_nu_at_primes_matches_the_nu_plus_oracle():
    # t_nu at p is the exponent of p in the generalized weighted gcd
    rng = random.Random(41)
    nontrivial = 0
    for q in ((1, 2), (2, 3), (1, 1, 2), (2, 3, 5)):
        w = Weights(q)
        for _ in range(150):
            c = rng.choice((1, 2, 3, 4, 6, 12, 30))
            xs = tuple(
                Fraction(c ** qi * rng.randint(-20, 20), rng.randint(1, 30)) for qi in q
            )
            if all(x == 0 for x in xs):
                continue
            exponents = nu_plus_wgcd_exponents(xs, q)
            x = WPoint.of(xs, w)
            for p in (2, 3, 5, 7, 11, 13):
                assert t_nu(x, Place(p)) == exponents.get(p, 0)
            nontrivial += bool(exponents)
    assert nontrivial > 100


def test_t_nu_at_a_prime_factors_nothing():
    # the gcd 2 * (2^61 - 1) * (2^89 - 1) is past the rho budget (about
    # 2 s to FactoringBudgetExceeded), but only the exponent of 2 is asked
    n = 2 * (2 ** 61 - 1) * (2 ** 89 - 1)
    start = time.perf_counter()
    assert t_nu(WPoint.of((n, n), W11), Place(2)) == 1
    assert t_nu(WPoint.of((n, Fraction(n, 3)), W11), Place(3)) == 0
    assert time.perf_counter() - start < 0.1


def test_t_nu_archimedean_floor_is_exact_next_to_e():
    # log(27182818284590452353602874 / 10^25) = 1 - 2.6e-26: the float log
    # rounds to 1.0, but the floor is 0; the twin ...875 lies above e
    below = WPoint.of((Fraction(10 ** 25, 27182818284590452353602874), 0), W11)
    above = WPoint.of((Fraction(10 ** 25, 27182818284590452353602875), 0), W11)
    assert t_nu(below, ARCHIMEDEAN) == 0
    assert t_nu(above, ARCHIMEDEAN) == 1


def test_t_nu_archimedean_matches_the_series_oracle():
    # near ties: the decimal truncations of e^m just below and above it,
    # and seeded rationals of every size up to e^30
    rng = random.Random(43)
    cases = []
    for m in range(1, 13):
        for digits in (5, 15, 25, 40):
            n = exp_digits(m, digits)
            cases += [Fraction(n + k, 10 ** digits) for k in (-1, 0, 1, 2)]
    cases += [Fraction(rng.randint(1, 10 ** 13), rng.randint(1, 10 ** 6)) for _ in range(300)]
    for r in cases:
        q = rng.randint(1, 4)
        x = WPoint.of((1 / r, 0, Fraction(1, 2) * rng.choice((0, 1))), Weights.of(q, 1, 1))
        expected = floor_log(max(r, 1), q)
        if x.coords[2]:
            expected = min(expected, 0)  # log 2 < 1
        assert t_nu(x, ARCHIMEDEAN) == expected


def test_t_nu_archimedean_past_the_digit_budget_raises(monkeypatch):
    # within 10^-79 of e, with a 64-digit budget: neither 32 nor 64 digits settle it
    # the floor of 1/r is decided only where coordinate 0 is the max term
    monkeypatch.setattr(arith, "_EXP_DIGITS", 64)
    r = Fraction(exp_digits(1, 80), 10 ** 80)
    with pytest.raises(ComparisonBudgetExceeded):
        t_nu(WPoint.of((1 / r, 0), W11), ARCHIMEDEAN)
    # at (1/r, 1) the max term is |1|, so the min is 0 with no floor of r decided
    assert t_nu(WPoint.of((1 / r, 1), W11), ARCHIMEDEAN) == 0
    monkeypatch.setattr(arith, "_EXP_DIGITS", 128)
    assert t_nu(WPoint.of((1 / r, 0), W11), ARCHIMEDEAN) == 0


@given(tie_prone_tuples())
def test_log_hwgcd_archimedean_term_is_the_min_over_coordinates(coords_weights):
    coords, q = coords_weights
    w = Weights(q)
    with_oo = log_hwgcd(coords, w, include_archimedean=True)
    assert with_oo == log_hwgcd(coords, w) + archimedean_log_hwgcd(coords, q)


def test_log_hwgcd_matches_t_nu_sum():
    rng = random.Random(3)
    for _ in range(50):
        coords = tuple(rng.randint(-40, 40) for _ in range(2))
        if all(c == 0 for c in coords):
            continue
        x = WPoint.of(coords, W23)
        total = log_hwgcd(coords, W23)
        recon = LogValue.zero()
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            recon = recon + LogValue.of_prime(p, t_nu(x, Place(p)))
        assert total == recon


def test_wgcd_divides_gcd():
    rng = random.Random(9)
    for _ in range(200):
        xs = tuple(rng.randint(-500, 500) for _ in range(3))
        if all(v == 0 for v in xs):
            continue
        g = wgcd(xs, Weights.of(2, 3, 5))
        plain = math.gcd(*xs)
        assert plain % g == 0


def test_wgcd_scaling_law():
    rng = random.Random(13)
    w = Weights.of(2, 3)
    for _ in range(100):
        xs = tuple(rng.randint(-50, 50) for _ in range(2))
        if all(v == 0 for v in xs):
            continue
        lam = rng.randint(1, 12)
        scaled = tuple(v * lam ** q for v, q in zip(xs, w.q))
        assert wgcd(scaled, w) == lam * wgcd(xs, w)


def test_wgcd_matches_brute_force_sample():
    rng = random.Random(21)
    for q in ((1, 2), (2, 3), (2, 3, 5)):
        w = Weights(q)
        for _ in range(150):
            xs = tuple(rng.randint(-120, 120) for _ in range(len(q)))
            if all(v == 0 for v in xs):
                continue
            assert wgcd(xs, w) == brute_wgcd(xs, q)


def test_wgcd_int_and_fraction_inputs_agree_on_oracle_tuples():
    rng = random.Random(21)
    for q in ((1, 2), (2, 3), (2, 3, 5)):
        w = Weights(q)
        for _ in range(150):
            xs = tuple(rng.randint(-120, 120) for _ in range(len(q)))
            if all(v == 0 for v in xs):
                continue
            fractions = tuple(Fraction(v) for v in xs)
            mixed = (Fraction(xs[0]),) + xs[1:]
            expected = brute_wgcd(xs, q)
            assert wgcd(xs, w) == wgcd(fractions, w) == wgcd(mixed, w) == expected
            assert log_wgcd(xs, w) == log_wgcd(fractions, w) == LogValue.of_rational(expected)


@pytest.mark.parametrize("fn", [wgcd, log_wgcd])
def test_wgcd_errors_for_int_mixed_and_fraction_inputs(fn):
    for zeros in ((0, 0), (0, Fraction(0)), (Fraction(0), Fraction(0))):
        with pytest.raises(AllZero):
            fn(zeros, W23)
    for long in ((1, 2, 3), (1, Fraction(2), 3), (Fraction(1), Fraction(2), Fraction(3))):
        with pytest.raises(ArityMismatch):
            fn(long, W23)
    for rational, shown in (
        ((Fraction(1, 2), 4), "1/2"),
        ((4, Fraction(-3, 2)), "-3/2"),
        ((Fraction(3), Fraction(5, 3)), "5/3"),
    ):
        with pytest.raises(NonIntegralValue) as info:
            fn(rational, W23)
        assert str(info.value) == f"{shown} is not an integer"
    with pytest.raises(TypeError):
        fn((1.0, 2), W23)


def test_unit_weight_wgcd_is_the_plain_gcd_without_factoring(monkeypatch):
    import wproj.gcdops
    from sympy import nextprime

    def no_factoring(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(wproj.gcdops, "factorize", no_factoring)
    n = nextprime(10 ** 15) * nextprime(3 * 10 ** 15)  # 31 digits
    assert wgcd((n, 2 * n), W11) == n
    assert hwgcd((n, 2 * n), W11) == n
    rng = random.Random(21)
    for q in ((1, 2), (2, 3), (2, 3, 5)):
        ones = Weights((1,) * len(q))
        for _ in range(150):
            xs = tuple(rng.randint(-120, 120) for _ in range(len(q)))
            if all(v == 0 for v in xs):
                continue
            assert wgcd(xs, ones) == math.gcd(*xs) == brute_wgcd(xs, ones.q)


def test_hwgcd_equals_gcd_for_unit_weights():
    rng = random.Random(27)
    for _ in range(100):
        xs = tuple(rng.randint(-300, 300) for _ in range(3))
        if all(v == 0 for v in xs):
            continue
        assert hwgcd(xs, Weights.of(1, 1, 1)) == math.gcd(*xs)


def test_subscheme_defaults_and_validation():
    w = Weights.of(1, 2, 3)
    y = Subscheme((
        parse_polynomial("x1-x0^2", w),
        parse_polynomial("x2-x0^3", w),
    ))
    assert y.gcd_weights == Weights.of(2, 3)
    assert not y.has_mixed_generator()
    with pytest.raises(MixedDegree):
        Subscheme((parse_polynomial("x1-x0", w),))
    mixed = Subscheme((parse_polynomial("x1-x0", w),), Weights.of(2))
    assert mixed.has_mixed_generator()
    with pytest.raises(ArityMismatch):
        Subscheme((parse_polynomial("x1", w),), Weights.of(1, 1))


def test_subscheme_values_at_is_integer_valued():
    w = Weights.of(1, 1, 1)
    y = Subscheme((
        parse_polynomial("1/2*x1^2+1/2*x1*x0", w),
        parse_polynomial("x2-x0", w),
    ))
    assert y.values_at((1, 4, 7)) == (10, 6)
    assert all(type(v) is int for v in y.values_at((1, 4, 7)))
    with pytest.raises(NonIntegralValue) as info:
        y.values_at((2, 1, 7))
    assert str(info.value) == "3/2 is not an integer"
    with pytest.raises(ArityMismatch):
        y.values_at((1, 4))
    assert y.values_at((Fraction(1), Fraction(4), Fraction(7))) == (10, 6)
    with pytest.raises(NonIntegralValue) as info:
        y.values_at((Fraction(1, 2), 4, 7))
    assert str(info.value) == "1/2 is not an integer"


def test_subscheme_combinations():
    w = Weights.of(1, 1)
    y1 = Subscheme((parse_polynomial("x0", w),))
    y2 = Subscheme((parse_polynomial("x1", w),))
    both = y1.intersect(y2)
    assert len(both.generators) == 2
    assert both.gcd_weights == Weights.of(1, 1)


def test_hwgcd_subscheme_examples():
    w111 = Weights.of(1, 1, 1)
    y = Subscheme((
        parse_polynomial("x1-x0", w111),
        parse_polynomial("x2-x0", w111),
    ), Weights.of(1, 1))
    assert hwgcd_subscheme(WPoint.of((1, 4, 7), w111), y) == LogValue.of_rational(3)

    w123 = Weights.of(1, 2, 3)
    y2 = Subscheme((
        parse_polynomial("x1-x0^2", w123),
        parse_polynomial("x2-x0^3", w123),
    ))
    assert hwgcd_subscheme(WPoint.of((1, 5, 9), w123), y2) == LogValue.of_rational(2)
    assert hwgcd_subscheme(WPoint.of((1, 9, 27), w123), y2).is_zero()


def test_hwgcd_subscheme_errors():
    w = Weights.of(1, 2, 3)
    y = Subscheme((
        parse_polynomial("x1-x0^2", w),
        parse_polynomial("x2-x0^3", w),
    ))
    with pytest.raises(PointOnSubscheme):
        hwgcd_subscheme(WPoint.of((1, 1, 1), w), y)
    with pytest.raises(NotNormalized):
        hwgcd_subscheme(WPoint.of((Fraction(1, 2), 1, 1), w), y)
    with pytest.raises(NotNormalized):
        hwgcd_subscheme(WPoint.of((2, 16, 64), w), y)  # wgcd = 2
    rational = Subscheme((parse_polynomial("1/2*x1", w),), Weights.of(2))
    with pytest.raises(NonIntegralValue):
        hwgcd_subscheme(WPoint.of((1, 1, 1), w), rational)


def test_hwgcd_subscheme_is_orbit_stable():
    # homogeneous generators with degree gcd-weights: the value only
    # depends on the orbit's normalized representative
    w = Weights.of(1, 2, 3)
    y = Subscheme((
        parse_polynomial("x1-x0^2", w),
        parse_polynomial("x2-x0^3", w),
    ))
    rng = random.Random(37)
    for _ in range(40):
        coords = tuple(rng.randint(-9, 9) for _ in range(3))
        if all(c == 0 for c in coords):
            continue
        x = normalize(WPoint.of(coords, w))
        lam = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        x2 = normalize(scale(x, lam))
        values = y.values_at(x.coords)
        if all(v == 0 for v in values):
            continue
        assert hwgcd_subscheme(x, y) == hwgcd_subscheme(x2, y)
