"""Global weighted heights over Q and the ordinary Weil height oracle.

The multiplicative weighted height is the product over places of
max_i |x_i|_v^{1/q_i}.  Its m-th power (m = lcm of the weights) is an
exact rational because every exponent m/q_i is an integer, so heights
are carried as the pair (wh^m as a Fraction, log height as a float) and
all equality checks happen on the rational side.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .arith import Place, RationalLike, exact_power, log_of_fraction, max_term, relevant_places
from .errors import HypothesisViolated
from .points import WPoint, reduce_projective, veronese
from .record import Record
from .weights import veronese_data


class HeightValue(Record):
    """Exact weighted height: m, wh^m as a rational, and its log."""

    m: int
    wh_pow_m: Fraction
    lwh: float
    per_place: tuple[tuple[Place, Fraction], ...] | None = None


def weil_height(coords: Sequence[RationalLike]) -> tuple[int, float]:
    """Multiplicative and logarithmic height of a point of P^n(Q).

    After reduction to coprime integer coordinates the product over
    places collapses to the maximum absolute value.
    """
    ints = reduce_projective(coords)
    h_mult = max(abs(v) for v in ints)
    return h_mult, log_of_fraction(Fraction(h_mult))


def wheight(x: WPoint) -> HeightValue:
    """Exact weighted height of a point, as wh^m plus its log."""
    m, exps = x.weights.m, veronese_data(x.weights).exps
    per_place = []
    product = Fraction(1)
    for place in relevant_places([c for c in x.coords if c != 0]):
        k, size = max_term(x.coords, exps, place)
        factor = exact_power(size, exps[k])
        per_place.append((place, factor))
        product *= factor
    log_product = log_of_fraction(product)
    return HeightValue(
        m=m,
        wh_pow_m=product,
        # an m past the float range cannot be a float divisor
        lwh=log_product / m if m < 2 ** 1024 else float(Fraction(log_product) / m),
        per_place=tuple(per_place),
    )


def veronese_check(x: WPoint) -> tuple[Fraction, Fraction, bool]:
    """Compare wh(x)^m with the Weil height of the Veronese image.

    Valid when the weights are reduced, well-formed, and the exponents
    m/q_i are coprime; the two rationals are then equal exactly.
    """
    w = x.weights
    data = veronese_data(w)
    if not (w.is_reduced() and w.is_well_formed() and data.is_embedding):
        raise HypothesisViolated(
            f"weights {w} must be reduced, well-formed, with coprime m/q_i"
        )
    lhs = wheight(x).wh_pow_m
    rhs = Fraction(weil_height(veronese(x))[0])
    return lhs, rhs, lhs == rhs
