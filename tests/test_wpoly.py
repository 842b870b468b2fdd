import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wproj.errors import (
    ArityMismatch,
    MixedDegree,
    NonIntegralExponent,
    NonIntegralValue,
    OutputTooLarge,
    ParseError,
    ZeroPolynomial,
)
from wproj.gcdops import Subscheme
from wproj.weights import Weights
from wproj.wpoly import (
    MIXED,
    WPolynomial,
    dehomogenize_binary,
    evaluate,
    fix_prefix,
    parse_polynomial,
    scaled_value,
    to_string,
    weighted_degree,
)

from oracles import _value


def test_weighted_degree_examples():
    w = Weights.of(2, 3)
    assert weighted_degree(parse_polynomial("x0*x1", w)) == 5
    w12 = Weights.of(1, 2)
    assert weighted_degree(parse_polynomial("x1-x0^2", w12)) == 2
    assert weighted_degree(parse_polynomial("x1-x0", w12)) is MIXED
    with pytest.raises(ZeroPolynomial):
        weighted_degree(parse_polynomial("x0-x0", w12))


def test_evaluate_examples():
    w12 = Weights.of(1, 2)
    f = parse_polynomial("x1-x0^2", w12)
    assert evaluate(f, (1, 5)) == 4
    assert evaluate(f, (0, 0)) == 0
    g = parse_polynomial("x0*x1", Weights.of(2, 3))
    assert evaluate(g, (3, 4)) == 12
    with pytest.raises(ArityMismatch):
        evaluate(g, (1, 2, 3))


def test_evaluate_is_exact():
    w = Weights.of(1, 1)
    f = parse_polynomial("1/3*x0 + x1", w)
    assert evaluate(f, (Fraction(1, 2), Fraction(1, 7))) == Fraction(1, 6) + Fraction(1, 7)


def test_integer_form_clears_denominators_once():
    w = Weights.of(1, 2)
    f = parse_polynomial("1/2*x1^2 + 1/3*x0 - 5", w)
    # 6 * f = 2*x0 + 3*x1^2 - 30, terms in canonical order, e_i = 0 dropped
    assert f.integer_form == (6, ((2, ((0, 1),)), (3, ((1, 2),)), (-30, ())))
    assert f.integer_form is f.integer_form
    assert parse_polynomial("x1-x0^2", w).integer_form[0] == 1


def _rand_rational_polynomial(rng, w):
    terms = []
    for _ in range(rng.randint(1, 4)):
        coeff = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6)))
        terms.append((coeff, tuple(rng.randint(0, 3) for _ in w.q)))
    return WPolynomial.from_terms(terms, w)


def test_values_at_matches_evaluate_at_integer_points():
    rng = random.Random(11)
    integral = non_integral = 0
    for q in ((1, 1), (1, 2, 3), (2, 3, 5)):
        w = Weights(q)
        for _ in range(60):
            f = _rand_rational_polynomial(rng, w)
            if f.is_zero():
                continue
            y = Subscheme((f,), Weights.of(1))
            for _ in range(10):
                point = tuple(rng.randint(-12, 12) for _ in q)
                if not any(point):
                    continue
                exact = evaluate(f, tuple(Fraction(x) for x in point))
                assert evaluate(f, point) == exact
                if exact.denominator == 1:
                    integral += 1
                    (value,) = y.values_at(point)
                    assert type(value) is int and value == exact
                else:
                    non_integral += 1
                    with pytest.raises(NonIntegralValue) as info:
                        y.values_at(point)
                    assert str(info.value) == f"{exact} is not an integer"
    assert integral > 500 and non_integral > 500


def test_evaluate_matches_the_term_oracle_at_rational_points():
    # one loop over the integer form, divided by D, against the terms in Fractions
    rng = random.Random(17)
    for q in ((2, 3), (1, 2, 3), (2, 3, 5)):
        w = Weights(q)
        for _ in range(150):
            f = _rand_rational_polynomial(rng, w)
            for _ in range(5):
                point = tuple(
                    Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 5, 7, 12))) for _ in q
                )
                value = evaluate(f, point)
                assert type(value) is Fraction and value == _value(f.terms, point)
        with pytest.raises(ArityMismatch):
            evaluate(f, (Fraction(1, 2),) * (len(q) + 1))
        with pytest.raises(ArityMismatch):
            evaluate(f, (1,) * (len(q) - 1))
    assert evaluate(parse_polynomial("x0-x0", Weights.of(1, 1)), (1, 2)) == Fraction(0)


def test_dehomogenize_binary_examples():
    f = parse_polynomial("x0^3+x1", Weights.of(1, 3))
    assert dehomogenize_binary(f) == (1, 1)  # 1 + X
    g = parse_polynomial("x0*x1", Weights.of(1, 1))
    assert dehomogenize_binary(g) == (0, 1)  # X
    mixed = parse_polynomial("x0^2*x1+x1^2", Weights.of(3, 2))
    assert weighted_degree(mixed) is MIXED
    with pytest.raises(MixedDegree):
        dehomogenize_binary(mixed)


def test_dehomogenize_binary_divisibility_failures():
    # degree not divisible by q1
    f = parse_polynomial("x0*x1^2", Weights.of(3, 2))
    assert weighted_degree(f) == 7
    with pytest.raises(NonIntegralExponent):
        dehomogenize_binary(f)
    # term exponent not divisible by q1
    g = parse_polynomial("x0*x1", Weights.of(2, 2))
    with pytest.raises(NonIntegralExponent):
        dehomogenize_binary(g)


def test_dehomogenize_needs_binary():
    with pytest.raises(ArityMismatch):
        dehomogenize_binary(parse_polynomial("x0", Weights.of(1, 1, 1)))


def test_scaling_law():
    rng = random.Random(7)
    w = Weights.of(2, 3, 5)
    f = parse_polynomial("x0^5*x1^10 + 7*x2^8 - 2*x0^20", w)  # degree 40
    d = weighted_degree(f)
    assert d == 40
    for _ in range(50):
        xs = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)
        )
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if lam == 0:
            continue
        scaled = tuple(x * lam ** q for x, q in zip(xs, w.q))
        assert evaluate(f, scaled) == lam ** d * evaluate(f, xs)


def test_vanishing_is_well_defined():
    w = Weights.of(1, 2)
    f = parse_polynomial("x1-x0^2", w)
    x = (Fraction(3), Fraction(9))
    assert evaluate(f, x) == 0
    lam = Fraction(5, 7)
    scaled = tuple(c * lam ** q for c, q in zip(x, w.q))
    assert evaluate(f, scaled) == 0


def test_parse_and_print_roundtrip():
    w = Weights.of(1, 1, 2)
    f = parse_polynomial("3*x0^2*x1 - x2", w)
    assert to_string(f) == "3*x0^2*x1 - x2"
    assert parse_polynomial(to_string(f), w) == f
    assert parse_polynomial("  3 * x0^2 * x1-x2 ", w) == f
    g = parse_polynomial("-x0+1/2*x1", Weights.of(1, 1))
    assert to_string(g) == "-x0 + 1/2*x1"


def test_parse_errors():
    w = Weights.of(1, 1)
    for bad in ("", "x3", "x0^", "2**x0", "y0", "x0+"):
        with pytest.raises(ParseError):
            parse_polynomial(bad, w)


def test_canonical_term_order_and_merging():
    w = Weights.of(1, 1)
    f = parse_polynomial("x1 + x0 + x1", w)
    assert f.terms == ((Fraction(1), (1, 0)), (Fraction(2), (0, 1)))
    assert to_string(f) == "x0 + 2*x1"


def test_polynomial_algebra():
    w = Weights.of(1, 1)
    x0 = parse_polynomial("x0", w)
    zero = x0 - x0
    assert zero.is_zero()
    assert to_string(zero) == "0"


@st.composite
def polynomials_and_points(draw):
    n = draw(st.integers(1, 4))
    w = Weights(tuple(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))))
    coefficient = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 1, 2, 3]))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.lists(st.tuples(coefficient, exponents), min_size=1, max_size=5))
    point = draw(st.tuples(*[st.integers(-6, 6)] * n))
    return WPolynomial.from_terms(terms, w), point


@given(polynomials_and_points())
def test_fix_prefix_is_evaluate_at_the_last_coordinate(inputs):
    f, point = inputs
    d, terms = fix_prefix(f.integer_form, point[:-1])
    assert d == f.integer_form[0]
    assert Fraction(scaled_value(terms, point), d) == evaluate(f, point)
    # a form in the last variable alone: one term per power, none zero
    k = len(point) - 1
    assert all(a and all(i == k for i, _ in powers) for a, powers in terms)
    assert len({powers for _, powers in terms}) == len(terms)


def test_fix_prefix_merges_and_drops_terms():
    w = Weights.of(1, 1, 1)
    f = parse_polynomial("x1-x0", w)  # no x2: constant on a block, 0 where x0 = x1
    assert fix_prefix(f.integer_form, (3, 5)) == (1, ((2, ()),))
    assert fix_prefix(f.integer_form, (4, 4)) == (1, ())
    g = parse_polynomial("1/2*x0*x2^2 + x1*x2^2 - x2 + 3*x0", w)  # D = 2

    def by_power(form):
        d, terms = form
        return d, {powers: a for a, powers in terms}

    # the x2^2 terms cancel at x0 = 2, x1 = -1
    assert by_power(fix_prefix(g.integer_form, (2, -1))) == (2, {((2, 1),): -2, (): 12})
    assert by_power(fix_prefix(g.integer_form, (2, 1))) == (
        2, {((2, 2),): 4, ((2, 1),): -2, (): 12}
    )


def test_a_power_past_the_budget_is_refused_before_it_is_taken():
    # n^e has at least e * (bit_length(n) - 1) + 1 bits: 2^(2^20) is refused, at an int
    # or a Fraction coordinate, and so is a denominator; 1^e is never refused
    w = Weights.of(1, 1)
    f = parse_polynomial(f"x0^{1 << 20}-x1^{1 << 20}", w)
    assert evaluate(f, (1, -1)) == 0
    for point in [(2, 1), (Fraction(2), Fraction(1)), (Fraction(1, 2), Fraction(1))]:
        with pytest.raises(OutputTooLarge):
            evaluate(f, point)
    with pytest.raises(OutputTooLarge):
        fix_prefix(f.integer_form, (2,))
    below = parse_polynomial(f"x0^{(1 << 20) - 1}", Weights.of(1))
    assert evaluate(below, (2,)) == 2 ** ((1 << 20) - 1)
