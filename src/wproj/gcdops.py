"""Weighted greatest common divisors and their logarithmic variants.

The weighted GCD of an integer tuple is the product over primes p of
p^min_i(floor(ord_p(x_i)/q_i)); zero coordinates contribute +infinity
to the min.  The generalized (h-) variants use the non-negative part
of the valuation and extend to rational tuples.  A prime dividing every
nonzero numerator of a reduced fraction tuple divides no denominator,
so the finite part of hwgcd is the weighted GCD of the numerators: one
integer kernel serves both.  ``t_nu`` is the same min at a single
place, and ``hwgcd_subscheme`` applies the log weighted GCD to the
values of a subscheme's generators at a point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .arith import (
    ARCHIMEDEAN,
    LogValue,
    Place,
    RationalLike,
    as_fraction,
    factorize,
    floor_log,
    max_term,
    ord_int,
)
from .errors import (
    AllZero,
    ArityMismatch,
    MixedDegree,
    NonIntegralValue,
    NotNormalized,
    PointOnSubscheme,
)
from .record import Record
from .weights import Weights, veronese_data
# evaluate is unused here; perfbench/tracing.py rebinds this name
from .wpoly import MIXED, WPolynomial, evaluate, scaled_value, weighted_degree

if TYPE_CHECKING:  # only for annotations; points imports this module
    from .points import WPoint


class Subscheme(Record):
    """Closed subscheme data: generators plus per-generator GCD weights.

    ``gcd_weights`` defaults to the generators' weighted degrees (the
    orbit-stable choice, since f_j scales with exponent deg f_j under
    the coordinate action).  Mixed-degree generators are allowed but
    then the GCD weights must be supplied explicitly.
    """

    generators: tuple[WPolynomial, ...]
    gcd_weights: Weights = None  # type: ignore[assignment]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a subscheme needs at least one generator")
        ambient = self.generators[0].weights
        for g in self.generators:
            if g.is_zero():
                raise ValueError("zero polynomial cannot generate a subscheme")
            if g.weights != ambient:
                raise ArityMismatch("generators must share one weight tuple")
        if self.gcd_weights is None:
            if self.has_mixed_generator():
                raise MixedDegree("mixed-degree generator: supply gcd_weights explicitly")
            degrees = tuple(max(int(weighted_degree(g)), 1) for g in self.generators)
            object.__setattr__(self, "gcd_weights", Weights(degrees))
        elif len(self.gcd_weights) != len(self.generators):
            raise ArityMismatch("need one gcd weight per generator")

    @property
    def ambient_weights(self) -> Weights:
        return self.generators[0].weights

    def has_mixed_generator(self) -> bool:
        return any(weighted_degree(g) is MIXED for g in self.generators)

    def intersect(self, other: "Subscheme") -> "Subscheme":
        """Scheme intersection: concatenate generator lists."""
        return Subscheme(
            self.generators + other.generators,
            Weights(self.gcd_weights.q + other.gcd_weights.q),
        )

    def values_at(self, coords: Sequence[RationalLike]) -> tuple[int, ...]:
        """Generator values at an integral point, as ints; raises
        NonIntegralValue at the first coordinate or value that is not an
        integer."""
        coords = _integer_tuple(coords, self.ambient_weights)
        values = []
        for d, terms in (g.integer_form for g in self.generators):
            v = scaled_value(terms, coords)
            if v % d:
                raise NonIntegralValue(f"{Fraction(v, d)} is not an integer")
            values.append(v // d)
        return tuple(values)


def _normalize_tuple(xs: Sequence[RationalLike], w: Weights) -> list[Fraction]:
    if len(xs) != len(w):
        raise ArityMismatch(f"expected {len(w)} values, got {len(xs)}")
    vals = [as_fraction(x) for x in xs]
    if all(v == 0 for v in vals):
        raise AllZero("weighted gcd of the all-zero tuple is undefined")
    return vals


def _integer_tuple(xs: Sequence[RationalLike], w: Weights) -> Sequence[int]:
    """xs as ints, after the arity, all-zero and integrality checks."""
    if len(xs) == len(w) and all(type(v) is int for v in xs) and any(xs):
        return xs  # the checks below would pass: skip the Fraction round trip
    out = []
    for v in _normalize_tuple(xs, w):
        if v.denominator != 1:
            raise NonIntegralValue(f"{v} is not an integer")
        out.append(v.numerator)
    return out


def _wgcd_exponents(ints: Sequence[int], w: Weights, primes=None) -> dict[int, int]:
    """Map p -> min_i floor(ord_p(x_i)/q_i) over the primes with positive
    min: those of the gcd, or only the given ``primes``, factoring nothing."""
    g = math.gcd(*ints)
    if g == 1:
        return {}
    nonzero = [(v, q) for v, q in zip(ints, w.q) if v != 0]
    exponents: dict[int, int] = {}
    for p in factorize(g).primes() if primes is None else primes:
        e = min(ord_int(v, p) // q for v, q in nonzero)
        if e > 0:
            exponents[p] = e
    return exponents


def _wgcd_value(ints: Sequence[int], w: Weights) -> int:
    g = math.gcd(*ints)
    if g == 1 or w.m == 1:
        return g  # 1, or every weight is 1: the plain gcd, nothing to factor
    return math.prod(p ** e for p, e in _wgcd_exponents(ints, w).items())


def wgcd(xs: Sequence[RationalLike], w: Weights) -> int:
    """Weighted GCD of an integer tuple (not all zero)."""
    return _wgcd_value(_integer_tuple(xs, w), w)


def log_wgcd(xs: Sequence[RationalLike], w: Weights) -> LogValue:
    """Exact formal sum sum_p min_i(floor(ord_p(x_i)/q_i)) * log p."""
    return LogValue(_wgcd_exponents(_integer_tuple(xs, w), w))


def hwgcd(xs: Sequence[RationalLike], w: Weights) -> int:
    """Generalized weighted GCD of a rational tuple: finite places only,
    with the non-negative valuation part.  Always a positive integer,
    equal to the weighted GCD of the numerators."""
    return _wgcd_value([v.numerator for v in _normalize_tuple(xs, w)], w)


def log_hwgcd(
    xs: Sequence[RationalLike], w: Weights, include_archimedean: bool = False
) -> LogValue:
    """Exact log of the generalized weighted GCD.

    The finite part is sum_p min_i(floor(nu_p+(x_i)/q_i)) * log p.  With
    ``include_archimedean`` the term min_i(nu_oo+(x_i)/q_i) is added
    WITHOUT the floor; nu_oo+(x) = max(-log|x|, 0) decomposes exactly
    into prime logs, and the min is at the k where |x_k|^{1/q_k} is max.
    """
    vals = _normalize_tuple(xs, w)
    total = LogValue(_wgcd_exponents([v.numerator for v in vals], w))
    if include_archimedean:
        k, size = max_term(vals, veronese_data(w).exps, ARCHIMEDEAN)
        total = total + Fraction(1, w.q[k]) * LogValue.of_rational(max(1 / size, 1))
    return total


def t_nu(x: "WPoint", place: Place) -> int:
    """min_i floor(nu+(x_i)/q_i) at one place; zero coordinates absorb
    to +infinity.  At a prime p, nu_p+ of a reduced fraction is ord_p of
    its numerator, so this is the exponent of p in the weighted GCD of
    the numerators.  At oo it is one exact floor, where |x_k|^{1/q_k} is max."""
    if place.is_finite:
        p = place.prime
        return _wgcd_exponents([c.numerator for c in x.coords], x.weights, [p]).get(p, 0)
    k, size = max_term(x.coords, veronese_data(x.weights).exps, ARCHIMEDEAN)
    return floor_log(max(1 / size, Fraction(1)), x.weights.q[k])


def hwgcd_subscheme(x: "WPoint", y: Subscheme) -> LogValue:
    """Log weighted GCD of the generator values at a normalized point.

    The point must be integral with weighted GCD 1 (the unique orbit
    representative); generator values must be integers.  If every
    generator vanishes the point lies on the subscheme.
    """
    if y.ambient_weights != x.weights:
        raise ArityMismatch("subscheme and point weights differ")
    coords = x.coords
    if any(c.denominator != 1 for c in coords):
        raise NotNormalized("point coordinates must be integers")
    if wgcd(coords, x.weights) != 1:
        raise NotNormalized("point must have weighted gcd 1")
    values = y.values_at(coords)
    if not any(values):
        raise PointOnSubscheme("every generator vanishes at the point")
    return log_wgcd(values, y.gcd_weights)
