"""Weighted homogeneous polynomials with exact rational coefficients.

A term (c, (e_0, ..., e_n)) has weighted degree sum(e_i * q_i).  The
polynomial is homogeneous when every term shares one weighted degree;
mixed-degree polynomials are representable but flagged, and operations
that require homogeneity reject them.

Input grammar: terms like "3*x0^2*x1 - x2" with variables x0..xn and
integer or rational ("3/4") coefficients; whitespace-insensitive.
Canonical printing sorts terms by exponent tuple, descending
lexicographically.

Each polynomial caches its integer form: the lcm D of its coefficient
denominators and the integer coefficients of D * f.  Every value is
computed from it: at integer points in int arithmetic, with no Fraction
built.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .arith import RationalLike, as_fraction
from .errors import (
    ArityMismatch,
    MixedDegree,
    NonIntegralExponent,
    ParseError,
    ZeroPolynomial,
)
from .weights import Weights


class _MixedMarker:
    """Marker returned by weighted_degree for mixed polynomials; MIXED is
    its only instance."""

    def __repr__(self):
        return "Mixed"


MIXED = _MixedMarker()

Term = tuple[Fraction, tuple[int, ...]]
IntegerTerm = tuple[int, tuple[tuple[int, int], ...]]  # (a, ((i, e_i), ...))


@dataclass(frozen=True)
class WPolynomial:
    """Multivariate polynomial tied to a weight tuple.

    ``terms`` is canonical: no zero coefficients, no duplicate exponent
    tuples, sorted by exponent tuple descending.
    """

    terms: tuple[Term, ...]
    weights: Weights

    def __post_init__(self):
        merged: dict[tuple[int, ...], Fraction] = {}
        for coeff, exps in self.terms:
            coeff = as_fraction(coeff)
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.weights):
                raise ArityMismatch(
                    f"term has {len(exps)} exponents for {len(self.weights)} variables"
                )
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be non-negative")
            if coeff != 0:
                merged[exps] = merged.get(exps, Fraction(0)) + coeff
        canonical = tuple(
            (coeff, exps)
            for exps, coeff in sorted(merged.items(), reverse=True)
            if coeff != 0
        )
        object.__setattr__(self, "terms", canonical)

    @classmethod
    def from_terms(
        cls, terms: Iterable[tuple[RationalLike, Sequence[int]]], weights: Weights
    ) -> "WPolynomial":
        return cls(tuple((as_fraction(c), tuple(e)) for c, e in terms), weights)

    @classmethod
    def monomial(
        cls, weights: Weights, index: int, power: int = 1, coeff: RationalLike = 1
    ) -> "WPolynomial":
        exps = [0] * len(weights)
        exps[index] = power
        return cls.from_terms([(coeff, exps)], weights)

    @cached_property
    def integer_form(self) -> tuple[int, tuple[IntegerTerm, ...]]:
        """(D, terms) with D * f = sum_k a_k * prod_i x_i^e_i, integral.

        D is the lcm of the coefficient denominators; each term holds its
        integer coefficient a_k and the (i, e_i) pairs with e_i > 0.
        """
        d = math.lcm(*(c.denominator for c, _ in self.terms))
        return d, tuple(
            (c.numerator * (d // c.denominator),
             tuple((i, e) for i, e in enumerate(exps) if e))
            for c, exps in self.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def term_degrees(self) -> tuple[int, ...]:
        q = self.weights.q
        return tuple(sum(e * w for e, w in zip(exps, q)) for _, exps in self.terms)

    def __add__(self, other: "WPolynomial") -> "WPolynomial":
        if self.weights != other.weights:
            raise ArityMismatch("polynomials have different weights")
        return WPolynomial(self.terms + other.terms, self.weights)

    def __neg__(self) -> "WPolynomial":
        return WPolynomial(tuple((-c, e) for c, e in self.terms), self.weights)

    def __sub__(self, other: "WPolynomial") -> "WPolynomial":
        return self + (-other)

    def __str__(self) -> str:
        return to_string(self)


def weighted_degree(f: WPolynomial):
    """Common weighted degree of all terms, or the MIXED marker."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no weighted degree")
    degrees = set(f.term_degrees())
    if len(degrees) == 1:
        return degrees.pop()
    return MIXED


def is_homogeneous(f: WPolynomial) -> bool:
    return weighted_degree(f) is not MIXED


def scaled_value(f: WPolynomial, xs: Sequence[RationalLike]) -> RationalLike:
    """D * f(xs), D = f.integer_form[0], from the integer form: an int at
    an int tuple, a Fraction at a Fraction tuple."""
    total = 0
    for a, powers in f.integer_form[1]:
        for i, e in powers:
            a *= xs[i] ** e
        total += a
    return total


def evaluate(f: WPolynomial, xs: Sequence[RationalLike]) -> Fraction:
    """Exact value of f at a rational tuple."""
    if len(xs) != len(f.weights):
        raise ArityMismatch(f"expected {len(f.weights)} values, got {len(xs)}")
    return Fraction(scaled_value(f, [as_fraction(x) for x in xs]), f.integer_form[0])


def dehomogenize_binary(f: WPolynomial) -> tuple[Fraction, ...]:
    """Collapse a homogeneous binary form to a polynomial in X = x0^q1/x1^q0.

    Each term c * x0^d0 * x1^d1 of weighted degree d maps to c * X^(d0/q1);
    the result is the ascending coefficient tuple of that polynomial.
    Requires q1 | d and q1 | d0 for every term.
    """
    if len(f.weights) != 2:
        raise ArityMismatch("dehomogenize_binary needs a binary form")
    d = weighted_degree(f)
    if d is MIXED:
        raise MixedDegree("dehomogenize_binary needs a weighted homogeneous form")
    q1 = f.weights.q[1]
    if d % q1 != 0:
        raise NonIntegralExponent(f"degree {d} is not divisible by q1 = {q1}")
    coeffs: dict[int, Fraction] = {}
    for coeff, (d0, _d1) in f.terms:
        if d0 % q1 != 0:
            raise NonIntegralExponent(
                f"term exponent {d0} is not divisible by q1 = {q1}"
            )
        coeffs[d0 // q1] = coeff
    top = max(coeffs)
    return tuple(coeffs.get(k, Fraction(0)) for k in range(top + 1))


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR_RE = re.compile(r"^(?:(?P<num>\d+(?:/\d+)?)|x(?P<var>\d+)(?:\^(?P<exp>\d+))?)$")


def parse_polynomial(text: str, weights: Weights) -> WPolynomial:
    """Parse the term grammar above against a fixed weight tuple."""
    compact = text.replace(" ", "").replace("\t", "")
    if not compact:
        raise ParseError("empty polynomial")
    nvars = len(weights)
    terms: list[tuple[Fraction, tuple[int, ...]]] = []
    for chunk in _TERM_SPLIT.split(compact):
        if not chunk:
            continue
        sign = 1
        if chunk[0] in "+-":
            sign = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:]
        if not chunk:
            raise ParseError(f"dangling sign in {text!r}")
        coeff = Fraction(sign)
        exps = [0] * nvars
        for factor in chunk.split("*"):
            match = _FACTOR_RE.match(factor)
            if not match:
                raise ParseError(f"bad factor {factor!r} in {text!r}")
            if match.group("num") is not None:
                coeff *= Fraction(match.group("num"))
            else:
                index = int(match.group("var"))
                if index >= nvars:
                    raise ParseError(
                        f"variable x{index} out of range for {nvars} variables"
                    )
                exps[index] += int(match.group("exp") or 1)
        terms.append((coeff, tuple(exps)))
    return WPolynomial(tuple(terms), weights)


def _format_term(coeff: Fraction, exps: tuple[int, ...]) -> str:
    factors = []
    for i, e in enumerate(exps):
        if e == 1:
            factors.append(f"x{i}")
        elif e > 1:
            factors.append(f"x{i}^{e}")
    if not factors:
        return str(coeff)
    if coeff == 1:
        return "*".join(factors)
    if coeff == -1:
        return "-" + "*".join(factors)
    return str(coeff) + "*" + "*".join(factors)


def to_string(f: WPolynomial) -> str:
    """Canonical text form (terms sorted descending by exponent tuple)."""
    if f.is_zero():
        return "0"
    parts = []
    for i, (coeff, exps) in enumerate(f.terms):
        rendered = _format_term(coeff, exps)
        if i == 0:
            parts.append(rendered)
        elif rendered.startswith("-"):
            parts.append(" - " + rendered[1:])
        else:
            parts.append(" + " + rendered)
    return "".join(parts)
