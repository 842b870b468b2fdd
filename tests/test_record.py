"""Value semantics of wproj's value classes (``wproj.record.Record``):
equality over (class, fields), hashing, order, defaults, checks and
immutability."""

import pickle
from fractions import Fraction

import pytest

from wproj.arith import ARCHIMEDEAN, Factorization, Place, factorize
from wproj.gcdops import Subscheme
from wproj.heights import HeightValue, wheight
from wproj.points import WPoint
from wproj.scan import (AuditReport, AuditRow, BoxDomain, ScanConfig, ScanReport, SUnitGrid,
                        sing1_audit)
from wproj.singular import SingularComponent, singular_components
from wproj.weights import WeightMap, Weights, reduce
from wproj.wpoly import WPolynomial, parse_polynomial

W = Weights.of(1, 2, 3)
CONFIG = ScanConfig(W, Subscheme((parse_polynomial("x1-x0^2", W), parse_polynomial("x2-x0^3", W))),
                    Fraction(1), Fraction(0), frozenset({2}), BoxDomain.symmetric(2, 3))


def test_places_compare_by_prime_and_never_equal_a_tuple():
    assert Place(2) == Place(2) and hash(Place(2)) == hash(Place(2))
    assert Place(2) != (2,) and Place(2) != 2 and Place(2) != Place(3)
    assert Place() == ARCHIMEDEAN and Place(None) == ARCHIMEDEAN
    assert Place(prime=7) == Place(7)
    assert repr(Place(2)) == "Place(prime=2)"


def test_places_sort_archimedean_first_then_by_prime():
    places = [Place(5), ARCHIMEDEAN, Place(101), Place(2), Place(3)]
    assert sorted(places) == [ARCHIMEDEAN, Place(2), Place(3), Place(5), Place(101)]
    assert Place(3) <= Place(3) < Place(5) and Place(7) > ARCHIMEDEAN


def test_a_place_is_checked():
    with pytest.raises(ValueError):
        Place(4)
    with pytest.raises(ValueError):
        Place(1)


def test_equal_values_hash_alike_and_serve_as_dict_keys():
    f = parse_polynomial("x0^6 - x1^3 + 3/4*x2^2", W)
    pairs = [
        (Weights.of(1, 2, 3), Weights((1, 2, 3))),
        (Weights.of(1, 2, 3), Weights([1, 2, 3])),  # a list becomes a tuple
        (WPoint.of((1, -2, 3), W), WPoint((Fraction(1), Fraction(-2), Fraction(3)), W)),
        (f, WPolynomial.from_terms([(Fraction(3, 4), (0, 0, 2)), (-1, (0, 3, 0)),
                                    (1, (6, 0, 0))], W)),
        (factorize(-12), Factorization(-1, ((2, 2), (3, 1)))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and a is not b
        assert {a: "x"}[b] == "x" and len({a, b}) == 1
    assert Weights.of(1, 2, 3) != Weights.of(1, 3, 2)
    assert WPoint.of((1, 2, 3), W) != WPoint.of((1, 2, 3), Weights.of(1, 1, 1))
    assert hash(W) == hash((W.q,))  # the hash of the field tuple, as before


def test_values_of_different_classes_are_unequal():
    assert BoxDomain(((1, 2),)) != SUnitGrid((2,), 2)
    assert Weights.of(2) != (2,) and Weights.of(2) != Place(2)


def instances():
    w12 = Weights.of(1, 2)
    return [
        Place(2),
        factorize(12),
        CONFIG.subscheme,
        wheight(WPoint.of((1, 2), w12)),
        WPoint.of((1, 2), w12),
        singular_components(Weights.of(2, 2, 3))[0],
        W,
        reduce(W),
        parse_polynomial("x0+x1", w12),
        BoxDomain.symmetric(2, 3),
        SUnitGrid((2, 3), 10),
        CONFIG,
        ScanReport(CONFIG, [], 0, 0, 0.0, 0),
        AuditRow((1, 1, 1), ()),
        sing1_audit(Weights.of(1, 1), 2),
    ]


def test_every_value_class_refuses_assignment():
    values = instances()
    assert len({type(v) for v in values}) == 15
    for value in values:
        name = type(value)._fields[0]
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, name) is before


def test_values_survive_pickling():
    for value in instances():
        assert pickle.loads(pickle.dumps(value)) == value


def test_a_subscheme_defaults_its_gcd_weights_to_the_degrees():
    f, g = parse_polynomial("x1-x0^2", W), parse_polynomial("x2-x0^3", W)
    assert Subscheme((f, g)).gcd_weights == Weights.of(2, 3)
    assert Subscheme((f, g)) == Subscheme((f, g), Weights.of(2, 3))
    assert Subscheme((f,), Weights.of(5)).gcd_weights == Weights.of(5)


def test_defaults_keywords_and_missing_fields():
    value = HeightValue(m=6, wh_pow_m=Fraction(4), lwh=0.23)
    assert value.per_place is None and value == HeightValue(6, Fraction(4), 0.23, None)
    assert ScanConfig(*[getattr(CONFIG, n) for n in ScanConfig._fields[:-1]]).codim is None
    assert SingularComponent(2, (0, 1), dimension=1).dimension == 1
    with pytest.raises(TypeError):
        WeightMap(W, W)  # no coord_exponents
    with pytest.raises(TypeError):
        BoxDomain(((1, 2),), ((3, 4),))  # one field too many
    with pytest.raises(TypeError):
        SUnitGrid((2,), 10, limit=3)  # no such field


def test_constructors_still_check_their_fields():
    with pytest.raises(ValueError):
        Weights.of(1, 0)
    with pytest.raises(ValueError):
        BoxDomain(((2, 1),))
    with pytest.raises(ValueError):
        SUnitGrid((), 10)
    assert WPoint.of((1, 2), Weights.of(1, 1)).coords == (Fraction(1), Fraction(2))
    assert W.m == 6 and W.qprod == 6  # cached properties still cache on the instance
    assert AuditReport(W, 1, 0, 0, []).counterexamples == []
