import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wproj.errors import NotReduced, ParseError
from wproj.weights import (
    Weights,
    parse_weights,
    reduce,
    veronese_data,
    well_form,
    well_formed_model,
)

weight_tuples = st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=5)


def test_weights_derived_constants():
    w = Weights.of(2, 4, 6, 10)
    assert w.m == 60
    assert w.qprod == 480
    assert w.n == 3
    assert len(w) == 4
    assert str(w) == "(2,4,6,10)"


def test_weights_validation():
    with pytest.raises(ValueError):
        Weights.of(0, 1)
    with pytest.raises(ValueError):
        Weights(())


def test_reduce_genus_two_weights():
    r = reduce(Weights.of(2, 4, 6, 10))
    assert r.target == Weights.of(1, 2, 3, 5)
    assert r.coord_exponents == (2, 2, 2, 2)


def test_reduce_identity_and_untouched():
    assert reduce(Weights.of(1, 1, 1)).is_identity()
    r = reduce(Weights.of(6, 10, 15))
    assert r.target == Weights.of(6, 10, 15)
    assert r.is_identity()


def test_well_form_examples():
    assert well_form(Weights.of(1, 2, 3, 5)).is_identity()
    assert well_form(Weights.of(1, 1, 1, 1)).is_identity()
    wm = well_form(Weights.of(2, 2, 3))
    assert wm.target == Weights.of(1, 1, 3)
    assert wm.coord_exponents == (1, 1, 2)


def test_well_form_requires_reduced():
    with pytest.raises(NotReduced):
        well_form(Weights.of(2, 4))


def test_veronese_data_examples():
    assert veronese_data(Weights.of(1, 2, 3, 5)) == (30, (30, 15, 10, 6), True)
    assert veronese_data(Weights.of(1, 1)) == (1, (1, 1), True)
    assert veronese_data(Weights.of(2, 3)) == (6, (3, 2), True)
    # reduction does not change the exponents, only m
    assert veronese_data(Weights.of(2, 4, 6, 10)).exps == (30, 15, 10, 6)


def test_is_well_formed_examples():
    assert Weights.of(1, 2, 3, 5).is_well_formed()
    assert Weights.of(2, 3, 5).is_well_formed()
    assert not Weights.of(2, 2, 3).is_well_formed()
    # coprime pairs count as well-formed (unique normalization over Q)
    assert Weights.of(2, 3).is_well_formed()
    assert not Weights.of(2, 4).is_well_formed()


@given(weight_tuples)
def test_reduce_then_well_form_is_reduced_and_well_formed(q):
    w = Weights(tuple(q))
    wm = well_formed_model(w)
    target = wm.target
    assert target.is_reduced()
    # strict drop-one condition, checked directly
    n1 = len(target)
    if n1 > 2:
        for i in range(n1):
            rest = [target.q[j] for j in range(n1) if j != i]
            assert math.gcd(*rest) == 1
    assert target.is_well_formed()


@given(weight_tuples)
def test_veronese_exponents_are_integral(q):
    w = Weights(tuple(q))
    data = veronese_data(w)
    assert all(e * qi == w.m for e, qi in zip(data.exps, w.q))


def test_weight_map_composition():
    w = Weights.of(2, 4, 6, 10)
    composite = well_formed_model(w)
    assert composite.source == w
    assert composite.target == Weights.of(1, 2, 3, 5)
    assert composite.map_coords((2, 3, 4, 5)) == (4, 9, 16, 25)


def test_parse_weights():
    assert parse_weights("w=(2,3)") == Weights.of(2, 3)
    assert parse_weights("(1, 2, 3, 5)") == Weights.of(1, 2, 3, 5)
    for bad in ("", "2,3", "(2,3", "(0,1)", "(a,b)", "w=()"):
        with pytest.raises(ParseError):
            parse_weights(bad)
