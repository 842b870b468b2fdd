"""Global weighted heights over Q and the ordinary Weil height oracle.

The multiplicative weighted height is the product over places of
max_i |x_i|_v^{1/q_i}.  Its m-th power (m = lcm of the weights) is an
exact rational because every exponent m/q_i is an integer, so heights
are carried as the pair (wh^m as a Fraction, log height as a float) and
all equality checks happen on the rational side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import Place, RationalLike, log_of_fraction, relevant_places, val
from .errors import AllZero, HypothesisViolated
from .points import WPoint, reduce_projective, veronese
from .weights import veronese_data


@dataclass(frozen=True)
class HeightValue:
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


def max_term_exponent(coords: Sequence[Fraction], exps: Sequence[int], p: int) -> int:
    """The k with max_i |x_i|_p^{e_i} = p^k; zero coordinates are skipped."""
    return max(-e * val(c, p) for c, e in zip(coords, exps) if c != 0)


def max_term(coords: Sequence[Fraction], exps: Sequence[int], place: Place) -> Fraction:
    """max_i |x_i|_v^{e_i} at one place, as an exact rational."""
    if place.is_archimedean:
        return max(abs(c) ** e for c, e in zip(coords, exps))
    return Fraction(place.prime) ** max_term_exponent(coords, exps, place.prime)


def wheight(x: WPoint) -> HeightValue:
    """Exact weighted height of a point, as wh^m plus its log."""
    nonzero = [c for c in x.coords if c != 0]
    if not nonzero:
        raise AllZero("height of the zero tuple is undefined")
    m = x.weights.m
    exps = tuple(m // q for q in x.weights.q)
    per_place = []
    product = Fraction(1)
    for place in relevant_places(nonzero):
        factor = max_term(x.coords, exps, place)
        per_place.append((place, factor))
        product *= factor
    return HeightValue(
        m=m,
        wh_pow_m=product,
        lwh=log_of_fraction(product) / m,
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
