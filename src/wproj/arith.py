"""Exact valuation arithmetic over Q.

Places of Q, primality (BPSW), integer factorization (Pollard rho
within a fixed budget) and n-th roots, all on the standard library;
p-adic valuations and their non-negative parts, the heights' max term
(``max_term``), prime-to-S parts, exact formal sums of ``c * log p``
terms.  Finite-place data stays in integers (valuation multiplicities);
floats appear only when a formal sum is collapsed to a real number.

Every comparison follows one rule: floats decide outside a proven
margin, and exact work decides inside it under a budget, past which a
typed error (``ComparisonBudgetExceeded``) is raised instead of running
on.  One routine, ``log_sum_sign``, decides the sign of every sum of
logs of integers: ``LogValue`` order, ``max_term``'s comparison at oo
and the Vojta scan's verdict near a tie.  It rewrites the sum over a
coprime base and compares integer products of at most _SIGN_BUDGET
bits; ``floor_log`` compares decimals of at most _EXP_DIGITS digits.
``exact_power`` refuses, as OutputTooLarge, a power of a rational past
_SIGN_BUDGET bits before taking it.
"""

from __future__ import annotations

import decimal
import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Iterable, Sequence, Union

from .errors import (ComparisonBudgetExceeded, FactoringBudgetExceeded, OutputTooLarge, ParseError,
                     ZeroInput)
from .record import Record

RationalLike = Union[int, Fraction]

#: trial division bound; the cofactor it leaves is prime below
#: (_TRIAL_LIMIT + 1)**2, and only a larger one goes to is_prime and rho
_TRIAL_LIMIT = 1 << 16
#: rho steps per split; finding a prime factor p takes on the order of sqrt(p)
_RHO_BUDGET = 1 << 20
#: bits past which is_prime gives up; BPSW took 0.1 s at 1,279 bits and 3.4 s at 4,423
_PRIME_BITS = 1 << 11
#: trial divisors and Miller-Rabin bases, exact below psi_13 (Sorenson-Webster)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3_317_044_064_679_887_385_961_981
#: bits the two integer products of an exact log sum sign may hold together,
#: and the numerator or denominator of an exact power
_SIGN_BUDGET = 1 << 20
#: relative margin past which the float sum decides a log sum sign
_SIGN_MARGIN = 1e-9
#: decimal digits past which floor_log gives up on comparing r with e^m
_EXP_DIGITS = 1 << 11


def is_prime(n: int) -> bool:
    """Primality: exact below psi_13, BPSW (Baillie-Wagstaff 1980) above,
    and FactoringBudgetExceeded past _PRIME_BITS bits with no small factor."""
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _SMALL_PRIMES[-1] ** 2:
        return n > 1
    if n.bit_length() > _PRIME_BITS:
        raise FactoringBudgetExceeded(
            f"a {n.bit_length()}-bit number is past the primality budget of {_PRIME_BITS} bits")
    return _miller_rabin(n) and (n < _PSI_13 or _strong_lucas(n))


def _miller_rabin(n: int) -> bool:
    """Strong probable prime to every base in _SMALL_PRIMES (odd n > 41)."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable prime with Selfridge's parameters: D the first
    of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4 (odd n > 41)."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else 2 - D
    Q, inv2 = (1 - D) // 4, (n + 1) // 2
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    # U_k, V_k, Q^k mod n, from k = 1 up the bits of d = (n + 1) / 2^s
    U, V, Qk = 1, 1, Q % n
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * inv2 % n, (D * U + V) * inv2 % n, Qk * Q % n
    for _ in range(s):  # U_d = 0, or V_(2^r d) = 0 for some r < s
        if U == 0 or V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def _rho_split(n: int) -> int:
    """A proper factor of the odd composite n by Pollard rho with Brent's
    cycle search (BIT 1980), within _RHO_BUDGET steps."""
    steps = 0
    for c in itertools.count(1):
        y = r = g = 1
        while g == 1:
            if steps + r > _RHO_BUDGET:
                raise FactoringBudgetExceeded(f"no factor of {n} in {_RHO_BUDGET} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
                if g != 1:
                    break
            steps += r
            r *= 2
        if g != n:
            return g


def _large_prime_factors(n: int) -> list[int]:
    """Prime factors, with multiplicity, of n > 1 free of primes <= _TRIAL_LIMIT."""
    if n < (_TRIAL_LIMIT + 1) ** 2:
        return [n]
    bits = n.bit_length()
    # roots first, for prime k (a k-th root is above 2^16), up to 4 * _PRIME_BITS
    # bits: 97 roots at most, 0.11 s at 8,192 bits; past _PRIME_BITS is_prime refuses
    for k in filter(is_prime, range(2, bits // 16 + 1 if bits <= 4 * _PRIME_BITS else 0)):
        root, exact = integer_nthroot(n, k)
        if exact:
            return _large_prime_factors(root) * k
    if is_prime(n):
        return [n]
    d = _rho_split(n)
    return _large_prime_factors(d) + _large_prime_factors(n // d)


def integer_nthroot(x: int, n: int) -> tuple[int, bool]:
    """(floor(x^(1/n)), whether it is exact) for x >= 0, n >= 1, by Newton."""
    if x < 0 or n < 1:
        raise ValueError(f"need x >= 0 and n >= 1, got x={x}, n={n}")
    if x < 2:
        return x, True
    r = 1 << -(-x.bit_length() // n)  # 2^ceil(bits/n) > x^(1/n)
    while True:
        y = ((n - 1) * r + x // r ** (n - 1)) // n
        if y >= r:
            return r, r ** n == x
        r = y


def _exact(value: RationalLike) -> RationalLike:
    """An int as it is, or ``as_fraction`` of anything else."""
    return value if isinstance(value, int) else as_fraction(value)


def as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def check_power(bits: int, e: int) -> None:
    """Refuse, as OutputTooLarge, n^e for an int n of ``bits`` bits past
    _SIGN_BUDGET bits before it is taken: it has at least e * (bits - 1) + 1."""
    if e * (bits - 1) >= _SIGN_BUDGET:
        raise OutputTooLarge(f"an exact power would have over {_SIGN_BUDGET} bits")


def exact_power(r: RationalLike, e: int) -> RationalLike:
    """r^e for an int e >= 0, of r's type, or OutputTooLarge from
    ``check_power`` on the bits of its numerator or denominator."""
    check_power(max(r.numerator.bit_length(), r.denominator.bit_length()), e)
    return r ** e


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, with a zero denominator as a ParseError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None


# ---------------------------------------------------------------------------
# Places
# ---------------------------------------------------------------------------

@total_ordering
class Place(Record):
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

class Factorization(Record):
    """Sign and sorted prime-power decomposition of a nonzero integer."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __init__(self, sign: int, factors: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "sign", sign)  # one per factorize call: no generic binding
        object.__setattr__(self, "factors", factors)

    def value(self) -> int:
        out = self.sign
        for p, e in self.factors:
            out *= p ** e
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


@lru_cache(maxsize=None)
def _trial_product() -> int:
    """The product of the primes up to _TRIAL_LIMIT, a 94,027-bit number."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (_TRIAL_LIMIT - 1)
    for p in range(2, math.isqrt(_TRIAL_LIMIT) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, _TRIAL_LIMIT + 1, p)))
    return math.prod(itertools.compress(range(_TRIAL_LIMIT + 1), sieve))


@lru_cache(maxsize=1 << 16)
def _factor_positive(n: int) -> tuple[tuple[int, int], ...]:
    # g is a multiple of every prime up to _TRIAL_LIMIT that divides n: n itself,
    # or past _PRIME_BITS bits gcd(n, _trial_product()), so that a huge n is
    # divided only by its own primes (by every candidate it took 1.7 s at 316,780 bits)
    g = math.gcd(n, _trial_product()) if n.bit_length() > _PRIME_BITS else n
    factors: list[tuple[int, int]] = []
    # the candidates are 2, 3, then 6k +/- 1: 5, 7, 11, 13, ...
    for p in itertools.chain((2, 3), itertools.accumulate(itertools.cycle((2, 4)), initial=5)):
        if p > _TRIAL_LIMIT or p * p > n:
            break
        if g % p == 0 and n % p == 0:  # a composite p may divide g, never n
            e, n = _valuation(n, p)
            factors.append((p, e))
    if n >= (_TRIAL_LIMIT + 1) ** 2:
        factors.extend(Counter(_large_prime_factors(n)).items())
    elif n > 1:
        factors.append((n, 1))  # no factor up to the limit, so prime
    return tuple(sorted(factors))


def factorize(n: int) -> Factorization:
    """Exact prime factorization of a nonzero integer.

    Raises FactoringBudgetExceeded when a cofactor with two prime
    factors above about 2^32 outlasts the rho budget."""
    if n == 0:
        raise ZeroInput("cannot factorize 0")
    sign = 1 if n > 0 else -1
    return Factorization(sign, _factor_positive(abs(n)))


# ---------------------------------------------------------------------------
# Valuations
# ---------------------------------------------------------------------------

def _valuation(n: int, p: int) -> tuple[int, int]:
    """(e, n // p^e) for the multiplicity e of p > 1 in n != 0: divided by p, p^2, p^4, ...
    while they divide, then back down, in about 2 log2(e) steps (e steps took seconds)."""
    if n % p:
        return 0, n
    e, n = _valuation(n // p, p * p)  # n / p = p^(2e) * n', with p^2 not dividing n'
    return (2 * e + 2, n // p) if n % p == 0 else (2 * e + 1, n)


def ord_int(n: int, p: int) -> int:
    """Multiplicity of p in a nonzero integer."""
    if n == 0:
        raise ZeroInput("ord_p(0) is +infinity")
    if p < 2:
        raise ValueError(f"ord_p needs p >= 2, got {p}")
    return _valuation(n, p)[0]


def val(r: RationalLike, p: int) -> int:
    """p-adic valuation of a nonzero rational: ord_p(num) - ord_p(den)."""
    r = as_fraction(r)
    if r == 0:
        raise ZeroInput("val(0, p) is +infinity; callers must branch")
    return ord_int(r.numerator, p) - ord_int(r.denominator, p)


def max_term(
    coords: Sequence[RationalLike], exps: Sequence[RationalLike], place: Place
) -> tuple[int, Fraction]:
    """(k, |x_k|_v) for the first k where |x_k|_v^{e_k} is the max over the
    nonzero coordinates (one at least), for positive rational exponents,
    compared as e_i : e_k = a : b in lowest terms, with no power taken: at
    oo by the sign of a log|x_i| - b log|x_k|, at p on ord_p's multiples."""
    k = size = None
    for i, (c, e) in enumerate(zip(coords, exps)):
        if c == 0:
            continue
        s = abs(_exact(c)) if place.is_archimedean else -val(c, place.prime)
        a, b = (1, 1) if k is None else Fraction(e, exps[k]).as_integer_ratio()
        if k is None or (log_sum_sign([(s.numerator, a), (s.denominator, -a),
                                       (size.numerator, -b), (size.denominator, b)]) > 0
                         if place.is_archimedean else a * s > b * size):
            k, size = i, s
    return k, Fraction(size) if place.is_archimedean else Fraction(place.prime) ** size


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
    """Prime-to-S part of |n|: strip every factor of a prime in S.

    g holds the primes of S that still divide n; squaring it each round
    strips an exponent e in about log2(e) rounds."""
    if n == 0:
        raise ZeroInput("the prime-to-S part of 0 is undefined")
    n = abs(n)
    g = math.gcd(n, math.prod(s_primes))
    while g > 1:
        n //= g
        g = math.gcd(n, g * g)
    return n


def coprime_base(numbers: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1 such that each of the given positive
    integers is a product of their powers, found with gcds alone (factor
    refinement; Bernstein, J. Algorithms 2005, does it in essentially
    linear time).  Splitting b and n at g = gcd(b, n) keeps every number
    seen so far a product of powers of the elements left, and lowers
    their product by g, so the refinement ends."""
    base: list[int] = []
    todo = [n for n in numbers if n > 1]
    while todo:
        n = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(b, n)
            if g > 1:
                del base[i]
                todo += [m for m in (b // g, g, n // g) if m > 1]
                break
        else:
            base.append(n)
    return base


def log_sum_sign(terms: Iterable[tuple[int, RationalLike]]) -> int:
    """Exact sign of sum c * log n over (n, c) pairs, each n >= 1.

    The sum is rewritten over a coprime base of the n, with no
    factoring, and the coefficients of each base element b merged into
    one, c_b.  The logs of pairwise coprime integers > 1 are linearly
    independent over Q (by unique factorization), so the sum is 0
    exactly when every c_b is.  Otherwise the float sum s of the k terms
    c_b * log b with |float(c_b)| >= 2^-1000 decides when |s| exceeds
    max(_SIGN_MARGIN, (k + 4) * 2^-52) * A + T, A the sum of their
    absolute values and T the sum of 2^-999 * log b over the other
    terms, which bounds those: no such term is subnormal, so each is off
    by at most 4 * 2^-53 relative (float(c_b), math.log within one ulp,
    the product) and the summation adds (k - 1) * 2^-53 * A, so
    |s - sum c_b log b| <= (k + 3) * 2^-53 * A * (1 + O(k * 2^-53)) + T.
    Otherwise the products prod b^(c_b * L), L a common denominator, are
    compared on integers, or ComparisonBudgetExceeded is raised past
    _SIGN_BUDGET bits."""
    terms = [(n, _exact(c)) for n, c in terms]
    if any(n < 1 for n, _ in terms):
        raise ValueError("log_sum_sign needs integers n >= 1")
    base = coprime_base(n for n, _ in terms)
    merged: dict[int, RationalLike] = {}
    for n, c in terms:
        for b in base:
            e, n = _valuation(n, b)
            if e:
                merged[b] = merged.get(b, 0) + c * e
    coeffs = {b: c for b, c in merged.items() if c}
    if not coeffs:
        return 0
    try:
        floats = [(float(c), math.log(b)) for b, c in coeffs.items()]
    except OverflowError:  # a coefficient beyond the float range
        floats = []
    logs = [fc * log_b for fc, log_b in floats if abs(fc) >= 2.0 ** -1000]
    tiny = sum(2.0 ** -999 * log_b for fc, log_b in floats if abs(fc) < 2.0 ** -1000)
    total, size = sum(logs), sum(map(abs, logs))
    margin = max(_SIGN_MARGIN, (len(logs) + 4) * 2.0 ** -52)
    if abs(total) > margin * size + tiny:  # never true on an inf or a nan
        return 1 if total > 0 else -1
    denom_lcm = math.lcm(*(c.denominator for c in coeffs.values()))
    exps = [(b, int(c * denom_lcm)) for b, c in coeffs.items()]
    bits = sum(abs(e) * b.bit_length() for b, e in exps)
    if bits > _SIGN_BUDGET:
        raise ComparisonBudgetExceeded(
            f"deciding the sign of {LogValue(coeffs)!r} needs {bits}-bit products, "
            f"above the budget of {_SIGN_BUDGET} bits"
        )
    num = den = 1
    for b, e in exps:
        if e > 0:
            num *= b ** e
        else:
            den *= b ** (-e)
    return (num > den) - (num < den)


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


def floor_log(r: Fraction, q: int) -> int:
    """floor(log(r) / q) for a rational r >= 1, exactly: the float guess k
    is corrected until e^(kq) <= r < e^((k+1)q), each decided by _exp_sign."""
    k = max(math.floor(log_of_fraction(r) / q), 0)
    while k > 0 and _exp_sign(r, k * q) < 0:
        k -= 1
    while _exp_sign(r, (k + 1) * q) > 0:
        k += 1
    return k


def _exp_sign(r: Fraction, m: int) -> int:
    """Sign of r - e^m for a rational r > 0 and an integer m != 0.

    Decimal division and exp are correctly rounded, so at P digits each
    of R and E is within 10^(1-P)/2 of r and e^m relative to itself; a
    gap above 10^(1-P) * (R + E) decides.  e^m is irrational, so some
    precision always does, unless it exceeds _EXP_DIGITS: then
    ComparisonBudgetExceeded is raised."""
    digits = 32
    while digits <= _EXP_DIGITS:
        ctx = decimal.Context(prec=digits, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
        R = Fraction(ctx.divide(r.numerator, r.denominator))
        E = Fraction(ctx.exp(m))
        if abs(R - E) > (R + E) / 10 ** (digits - 1):
            return 1 if R > E else -1
        digits *= 2
    raise ComparisonBudgetExceeded(f"comparing {r} with e^{m} needs over {_EXP_DIGITS} digits")


# ---------------------------------------------------------------------------
# Exact formal log sums
# ---------------------------------------------------------------------------

@total_ordering
class LogValue:
    """Exact formal sum  sum_p c_p * log p  over finite primes.

    Coefficients are Fractions; any log of a nonzero rational decomposes
    into such a sum, so local-height values and log-GCDs can be added,
    scaled, compared, and tested for equality with no floating point.
    Comparisons are exact: the sign of a difference, sum c_p log p, is
    decided by ``log_sum_sign``, the float sum when it is far from 0 and
    otherwise the integer products prod p^(c_p * L) for a common
    denominator L.
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogValue):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __lt__(self, other: "LogValue") -> bool:
        return log_sum_sign((self - other)._coeffs.items()) < 0

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        if not self._coeffs:
            return "LogValue(0)"
        parts = [f"{c}*log({p})" for p, c in sorted(self._coeffs.items())]
        return "LogValue(" + " + ".join(parts) + ")"
