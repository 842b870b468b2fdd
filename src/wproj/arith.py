"""Exact valuation arithmetic over Q.

Places of Q, integer factorization, p-adic valuations and their
non-negative parts, prime-to-S parts, and exact formal sums of
``c * log p`` terms.  Finite-place data stays in integers (valuation
multiplicities); floating point appears only when a formal sum is
collapsed to a real number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Iterable, Sequence, Union

import sympy

from .errors import ZeroInput

RationalLike = Union[int, Fraction]

#: trial division handles everything below this; sympy takes the cofactor
_TRIAL_LIMIT = 1 << 16


def is_prime(n: int) -> bool:
    return sympy.isprime(n)


def as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# Places
# ---------------------------------------------------------------------------

@total_ordering
@dataclass(frozen=True)
class Place:
    """A place of Q: the archimedean absolute value, or a p-adic one.

    ``prime`` is None for the archimedean place.  Places order with the
    archimedean place first, then finite places by ascending prime, so
    that place lists are deterministic.
    """

    prime: int | None = None

    def __post_init__(self):
        if self.prime is not None and not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not a prime number")

    @property
    def is_archimedean(self) -> bool:
        return self.prime is None

    @property
    def is_finite(self) -> bool:
        return self.prime is not None

    @property
    def kind(self) -> str:
        return "archimedean" if self.prime is None else "finite"

    def _key(self) -> tuple[int, int]:
        return (0, 0) if self.prime is None else (1, self.prime)

    def __lt__(self, other: "Place") -> bool:
        return self._key() < other._key()

    def __str__(self) -> str:
        return "oo" if self.prime is None else str(self.prime)


ARCHIMEDEAN = Place()


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factorization:
    """Sign and sorted prime-power decomposition of a nonzero integer."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        out = self.sign
        for p, e in self.factors:
            out *= p ** e
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


@lru_cache(maxsize=1 << 16)
def _factor_positive(n: int) -> tuple[tuple[int, int], ...]:
    factors: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    p = 5
    step = 2
    while p <= _TRIAL_LIMIT and p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += step
        step = 6 - step  # alternate 5,7,11,13,... (6k +/- 1)
    if n > 1:
        if n < (_TRIAL_LIMIT + 1) ** 2:
            factors.append((n, 1))  # no factor below the limit => prime
        else:
            rest = sympy.factorint(n)
            factors.extend(sorted((int(p), int(e)) for p, e in rest.items()))
    return tuple(sorted(factors))


def factorize(n: int) -> Factorization:
    """Exact prime factorization of a nonzero integer."""
    if n == 0:
        raise ZeroInput("cannot factorize 0")
    sign = 1 if n > 0 else -1
    return Factorization(sign, _factor_positive(abs(n)))


# ---------------------------------------------------------------------------
# Valuations
# ---------------------------------------------------------------------------

def ord_int(n: int, p: int) -> int:
    """Multiplicity of p in a nonzero integer."""
    if n == 0:
        raise ZeroInput("ord_p(0) is +infinity")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val(r: RationalLike, p: int) -> int:
    """p-adic valuation of a nonzero rational: ord_p(num) - ord_p(den)."""
    r = as_fraction(r)
    if r == 0:
        raise ZeroInput("val(0, p) is +infinity; callers must branch")
    return ord_int(r.numerator, p) - ord_int(r.denominator, p)


def val_plus(r: RationalLike, place: Place) -> int | float:
    """Non-negative part of the additive valuation at a place.

    Finite place p: max(ord_p(r), 0), an integer multiplicity.
    Archimedean place: max(-log|r|, 0), a float.
    By convention the value at r = 0 is +infinity (min-absorbing).
    """
    r = as_fraction(r)
    if r == 0:
        return math.inf
    if place.is_finite:
        return max(val(r, place.prime), 0)
    return max(-log_of_fraction(abs(r)), 0.0)


def s_part(n: int, s_primes: Iterable[int]) -> int:
    """Prime-to-S part of |n|: strip every factor of a prime in S."""
    if n == 0:
        raise ZeroInput("the prime-to-S part of 0 is undefined")
    n = abs(n)
    for p in set(s_primes):
        while n % p == 0:
            n //= p
    return n


def relevant_places(values: Sequence[RationalLike]) -> list[Place]:
    """Archimedean place plus every finite place where some value has
    nonzero valuation, in deterministic ascending order."""
    primes: set[int] = set()
    for v in values:
        v = as_fraction(v)
        if v == 0:
            raise ZeroInput("relevant_places requires nonzero values")
        primes.update(factorize(v.numerator).primes())
        if v.denominator > 1:
            primes.update(factorize(v.denominator).primes())
    return [ARCHIMEDEAN] + [Place(p) for p in sorted(primes)]


def log_of_fraction(r: Fraction) -> float:
    """log of a positive rational, safe for arbitrarily large num/den."""
    if r <= 0:
        raise ZeroInput("log of a non-positive rational")
    return math.log(r.numerator) - math.log(r.denominator)


# ---------------------------------------------------------------------------
# Exact formal log sums
# ---------------------------------------------------------------------------

@total_ordering
class LogValue:
    """Exact formal sum  sum_p c_p * log p  over finite primes.

    Coefficients are Fractions; any log of a nonzero rational decomposes
    into such a sum, so local-height values and log-GCDs can be added,
    scaled, compared, and tested for equality with no floating point.
    Comparisons are exact: sign(sum c_p log p) is decided by comparing
    the integer products prod p^(c_p * L) for a common denominator L.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for p, c in coeffs.items():
                c = as_fraction(c)
                if c != 0:
                    clean[p] = c
        self._coeffs = clean

    @classmethod
    def zero(cls) -> "LogValue":
        return cls()

    @classmethod
    def of_prime(cls, p: int, coeff: RationalLike = 1) -> "LogValue":
        return cls({p: as_fraction(coeff)})

    @classmethod
    def of_rational(cls, r: RationalLike) -> "LogValue":
        """Exact log r for a positive rational r."""
        r = as_fraction(r)
        if r <= 0:
            raise ZeroInput("log of a non-positive rational")
        coeffs: dict[int, Fraction] = {}
        for p, e in factorize(r.numerator).factors:
            coeffs[p] = coeffs.get(p, Fraction(0)) + e
        if r.denominator > 1:
            for p, e in factorize(r.denominator).factors:
                coeffs[p] = coeffs.get(p, Fraction(0)) - e
        return cls(coeffs)

    def coefficients(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(sorted(self._coeffs.items()))

    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: "LogValue") -> "LogValue":
        if not isinstance(other, LogValue):
            return NotImplemented
        out = dict(self._coeffs)
        for p, c in other._coeffs.items():
            out[p] = out.get(p, Fraction(0)) + c
        return LogValue(out)

    def __sub__(self, other: "LogValue") -> "LogValue":
        return self + (-other)

    def __neg__(self) -> "LogValue":
        return LogValue({p: -c for p, c in self._coeffs.items()})

    def __mul__(self, scalar: RationalLike) -> "LogValue":
        scalar = as_fraction(scalar)
        return LogValue({p: c * scalar for p, c in self._coeffs.items()})

    __rmul__ = __mul__

    def __float__(self) -> float:
        return sum((float(c) * math.log(p) for p, c in self._coeffs.items()), 0.0)

    def _sign(self) -> int:
        """Exact sign of the represented real number."""
        if not self._coeffs:
            return 0
        denom_lcm = math.lcm(*(c.denominator for c in self._coeffs.values()))
        num = den = 1
        for p, c in self._coeffs.items():
            e = int(c * denom_lcm)
            if e > 0:
                num *= p ** e
            else:
                den *= p ** (-e)
        return (num > den) - (num < den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogValue):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __lt__(self, other: "LogValue") -> bool:
        return (self - other)._sign() < 0

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        if not self._coeffs:
            return "LogValue(0)"
        parts = [f"{c}*log({p})" for p, c in sorted(self._coeffs.items())]
        return "LogValue(" + " + ".join(parts) + ")"
