import itertools
import math
import random
from fractions import Fraction

import pytest

from wproj.errors import (
    AllZero,
    ArityMismatch,
    IllFormedWeights,
    ParseError,
    WeightMismatch,
    ZeroScalar,
)
from wproj.gcdops import wgcd
from wproj.points import (
    WPoint,
    apply_weight_map,
    equals,
    is_sign_canonical,
    normalize,
    parse_point,
    reduce_projective,
    scale,
    sign_canon,
    veronese,
)
from wproj.weights import Weights, reduce, veronese_data, well_formed_model

from helpers import sign_canonical_tuples

W23 = Weights.of(2, 3)


def rand_point(rng, weights, bound=30):
    while True:
        coords = tuple(
            Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            for _ in range(len(weights))
        )
        if any(c != 0 for c in coords):
            return WPoint.of(coords, weights)


def rand_lambda(rng, bound=20):
    while True:
        lam = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if lam != 0:
            return lam


def test_wpoint_validation():
    with pytest.raises(AllZero):
        WPoint.of((0, 0), W23)
    with pytest.raises(ArityMismatch):
        WPoint.of((1, 2, 3), W23)


def test_scale_examples():
    x = WPoint.of((1, 1), W23)
    assert scale(x, 2).coords == (4, 8)
    assert scale(x, 1) == x
    assert scale(WPoint.of((4, 8), W23), Fraction(1, 2)).coords == (1, 1)
    with pytest.raises(ZeroScalar):
        scale(x, 0)


def test_normalize_examples():
    assert normalize(WPoint.of((16, 64), W23)).coords == (1, 1)
    assert normalize(WPoint.of((1, 1), W23)).coords == (1, 1)
    quarter = WPoint.of((Fraction(1, 4), Fraction(1, 8)), W23)
    assert normalize(quarter).coords == (1, 1)


def test_normalize_requires_well_formed():
    with pytest.raises(IllFormedWeights):
        normalize(WPoint.of((2, 4), Weights.of(2, 4)))


def test_normalize_sign_canon():
    # first nonzero odd-weight coordinate becomes positive
    assert normalize(WPoint.of((1, -1), W23)).coords == (1, 1)
    assert normalize(WPoint.of((-1, 1), Weights.of(1, 2))).coords == (1, 1)
    # all-even weights: -1 acts trivially, nothing to fix
    x = WPoint.of((-1, 1), Weights.of(2, 2))
    assert sign_canon(x).coords == (-1, 1)


@pytest.mark.parametrize("q", [
    (2, 3, 5), (2, 5, 3), (1, 1), (1, 2, 3), (1, 1, 1, 1), (1, 4, 6, 9), (2, 4, 6),
    (3,), (2,), (2, 2, 1), (1, 2, 2),
])
def test_sign_canonical_tuples_are_the_filtered_box(q):
    for bound in range(7):
        box = itertools.product(range(-bound, bound + 1), repeat=len(q))
        expected = [p for p in box if is_sign_canonical(p, q)]
        assert list(sign_canonical_tuples(q, bound)) == expected, bound


def test_equals_examples():
    assert equals(WPoint.of((1, 1), W23), WPoint.of((16, 64), W23))
    assert equals(WPoint.of((1, 1), W23), WPoint.of((1, -1), W23))
    w11 = Weights.of(1, 1)
    assert not equals(WPoint.of((1, 0), w11), WPoint.of((0, 1), w11))
    assert not equals(WPoint.of((1, 1), W23), WPoint.of((1, 2), W23))
    assert not equals(WPoint.of((1, 1), W23), WPoint.of((2, 8), W23))
    with pytest.raises(WeightMismatch):
        equals(WPoint.of((1, 1), W23), WPoint.of((1, 1), Weights.of(1, 1)))


def test_veronese_examples():
    assert veronese(WPoint.of((3, 4), W23)) == (27, 16)
    w = Weights.of(1, 2, 3, 5)
    assert veronese(WPoint.of((1, 1, 1, 1), w)) == (1, 1, 1, 1)
    assert veronese_data(w).exps == (30, 15, 10, 6)


def test_reduce_projective():
    assert reduce_projective((Fraction(2, 3), 1)) == (2, 3)
    assert reduce_projective((-2, -4)) == (1, 2)
    assert reduce_projective((0, -3, 6)) == (0, 1, -2)
    with pytest.raises(AllZero):
        reduce_projective((0, 0))


def _reduce_oracle(vals):
    """Clear denominators by their lcm, divide by the gcd, then make the
    first nonzero entry positive."""
    lam = math.lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (lam // v.denominator) for v in vals]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    sign = -1 if next(v for v in ints if v) < 0 else 1
    return tuple(sign * v for v in ints)


def test_reduce_projective_matches_the_lcm_gcd_sign_oracle():
    rng = random.Random(29)
    for _ in range(3000):
        vals = [
            Fraction(rng.choice((0, 0, 1)) * rng.randint(-60, 60), rng.choice((1, 2, 4, 6, 9, 35)))
            for _ in range(rng.randint(1, 4))
        ]
        if not any(vals):
            with pytest.raises(AllZero) as info:
                reduce_projective(vals)
            assert str(info.value) == "a projective point needs a nonzero coordinate"
            continue
        reduced = reduce_projective(vals)
        assert all(type(v) is int for v in reduced)
        assert reduced == _reduce_oracle(vals)


def test_point_text_is_numerator_slash_denominator():
    rng = random.Random(5)
    for _ in range(500):
        q = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        x = rand_point(rng, Weights(q), bound=10 ** 6)
        parts = [str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
                 for c in x.coords]
        assert str(x) == "[" + ":".join(parts) + "]"


def test_parse_point():
    assert parse_point("[3:4]", W23).coords == (3, 4)
    assert parse_point("[ -1 : 2/3 ]", W23).coords == (-1, Fraction(2, 3))
    for bad in ("", "[]", "[1:]", "[1;2]", "1:2", "[x0:x1]"):
        with pytest.raises(ParseError):
            parse_point(bad, W23)


def test_equals_under_scaling_random():
    rng = random.Random(11)
    for w in (W23, Weights.of(1, 2, 3, 5), Weights.of(2, 3, 5)):
        for _ in range(40):
            x = rand_point(rng, w)
            lam = rand_lambda(rng)
            assert equals(x, scale(x, lam))


def test_normalize_is_idempotent_and_preserving():
    rng = random.Random(23)
    for w in (W23, Weights.of(1, 2, 3, 5), Weights.of(2, 3, 5)):
        for _ in range(40):
            x = rand_point(rng, w)
            y = normalize(x)
            assert y.is_integral()
            assert wgcd(y.coords, w) == 1
            assert equals(x, y)
            assert normalize(y) == y


def test_orbit_representative_is_unique():
    rng = random.Random(31)
    for _ in range(40):
        x = rand_point(rng, W23)
        lam = rand_lambda(rng)
        assert normalize(scale(x, lam)) == normalize(x)


def test_weight_maps_preserve_equality():
    rng = random.Random(5)
    for q in ((2, 4, 6, 10), (2, 2, 3), (3, 6)):
        wm = well_formed_model(Weights(q))
        for _ in range(25):
            x = rand_point(rng, wm.source, bound=9)
            y = scale(x, rand_lambda(rng, bound=6))
            assert equals(apply_weight_map(x, wm), apply_weight_map(y, wm))


def test_veronese_separates_points_for_coprime_pairs():
    rng = random.Random(17)
    for q in ((2, 3), (3, 5), (2, 7)):
        w = Weights(q)
        for _ in range(30):
            x = rand_point(rng, w, bound=12)
            y = rand_point(rng, w, bound=12)
            assert equals(x, y) == (veronese(x) == veronese(y))


def test_equal_points_share_veronese_image():
    rng = random.Random(41)
    for q in ((2, 3), (1, 2, 3, 5), (2, 3, 5), (1, 1, 2)):
        w = Weights(q)
        for _ in range(25):
            x = rand_point(rng, w, bound=12)
            assert veronese(x) == veronese(scale(x, rand_lambda(rng, bound=6)))


def test_equals_agrees_with_canonical_forms():
    # two independent equality routes: rational-root enumeration vs
    # comparison of normalized representatives
    rng = random.Random(47)
    for q in ((2, 3), (1, 2, 3), (2, 3, 5), (1, 2, 3, 5)):
        w = Weights(q)
        for _ in range(60):
            x = rand_point(rng, w, bound=8)
            if rng.random() < 0.5:
                y = scale(x, rand_lambda(rng, bound=5))
            else:
                y = rand_point(rng, w, bound=8)
            assert equals(x, y) == (normalize(x) == normalize(y))


def test_veronese_is_not_injective_beyond_pairs():
    # distinct nonsingular points with one Veronese image: the power map
    # kills the sign of coordinates with even exponent m/q_i
    w = Weights.of(2, 3, 5)
    x = WPoint.of((1, 1, -1), w)
    y = WPoint.of((1, 1, 1), w)
    assert veronese(x) == veronese(y)
    assert not equals(x, y)
    w2 = Weights.of(1, 2, 3, 5)
    x2 = WPoint.of((0, 0, 1, -1), w2)
    y2 = WPoint.of((0, 0, 1, 1), w2)
    assert veronese(x2) == veronese(y2)
    assert not equals(x2, y2)
