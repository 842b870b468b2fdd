"""Independent oracles used by the test suite.

These deliberately avoid the library's valuation machinery: the wgcd
oracle tests candidate divisors g directly by divisibility of g^{q_i},
the factorization oracle is plain trial division to sqrt(n), and the
local height oracle evaluates generators from their terms and takes
p-adic orders by repeated division.  One reference is not independent:
``archimedean_log_hwgcd`` keeps the library's former min over one
LogValue per coordinate.
"""

from __future__ import annotations

import math
from fractions import Fraction


def trial_division(n: int) -> list[tuple[int, int]]:
    """Factor |n| by trial division up to sqrt(n)."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def brute_wgcd(xs, q) -> int:
    """Largest g >= 1 with g^{q_i} | x_i for every i (0 divisible by all)."""
    nonzero = [abs(x) for x in xs if x != 0]
    if not nonzero:
        raise ValueError("all zero")
    best = 1
    for g in range(2, min(nonzero) + 1):
        if all(x == 0 or x % g ** qi == 0 for x, qi in zip(xs, q)):
            best = g
    return best


def nu_plus_wgcd_exponents(xs, q) -> dict[int, int]:
    """p -> min_i floor(max(ord_p num_i - ord_p den_i, 0) / q_i) over the
    nonzero x_i, for every prime dividing some numerator or denominator;
    only positive exponents are kept.  This is the generalized weighted
    GCD straight from its definition, with no lowest-terms shortcut."""
    factored = [
        (dict(trial_division(x.numerator)), dict(trial_division(x.denominator)), qi)
        for x, qi in ((Fraction(x), qi) for x, qi in zip(xs, q))
        if x != 0
    ]
    if not factored:
        raise ValueError("all zero")
    primes = set()
    for num, den, _ in factored:
        primes.update(num, den)
    out = {}
    for p in primes:
        e = min(max(num.get(p, 0) - den.get(p, 0), 0) // qi for num, den, qi in factored)
        if e > 0:
            out[p] = e
    return out


class WgcdOracleTable:
    """The same candidate-divisor test, precomputed per coordinate.

    mask[i][v] has bit g set iff v == 0 or g^{q_i} divides v, so the
    largest valid g for a tuple is the top bit of the AND of its
    coordinate masks.  Built for exhaustive grid runs.
    """

    def __init__(self, bound: int, q: tuple[int, ...]):
        self.bound = bound
        self.q = q
        all_bits = 0
        for g in range(1, bound + 1):
            all_bits |= 1 << g
        self.masks = []
        for qi in q:
            column = [0] * (bound + 1)
            column[0] = all_bits
            powers = [(g, g ** qi) for g in range(1, bound + 1)]
            for v in range(1, bound + 1):
                bits = 0
                for g, gq in powers:
                    if gq > v:
                        break
                    if v % gq == 0:
                        bits |= 1 << g
                column[v] = bits | (1 << 1)
            self.masks.append(column)

    def largest(self, xs) -> int:
        acc = -1
        for column, x in zip(self.masks, xs):
            bits = column[abs(x)]
            acc = bits if acc == -1 else acc & bits
        return acc.bit_length() - 1


def _ord(r: Fraction, p: int) -> int:
    """ord_p of a nonzero rational, by repeated division."""
    num, den, e = r.numerator, r.denominator, 0
    while num % p == 0:
        num //= p
        e += 1
    while den % p == 0:
        den //= p
        e -= 1
    return e


def _value(terms, coords) -> Fraction:
    """A polynomial given as (coefficient, exponents) terms, at a point."""
    total = Fraction(0)
    for c, exps in terms:
        term = Fraction(c)
        for x, e in zip(coords, exps):
            term *= x ** e
        total += term
    return total


def subscheme_local_height(coords, q, generators, place, mode) -> dict[int, Fraction]:
    """-(1/m) log(max_j |f_j(x)|_v / max_i |x_i|_v^{e_i}) as {p: coefficient
    of log p}, zero coefficients dropped.

    ``generators`` are term lists, ``place`` is None for the archimedean
    place or a prime, and e_i is q_i in "paper" mode, m/q_i in "alt".
    The archimedean ratio is factored by trial division; at a prime the
    max of the p-adic absolute values is read off the ord_p exponents.
    """
    coords = [Fraction(c) for c in coords]
    m = math.lcm(*q)
    exps = list(q) if mode == "paper" else [m // qi for qi in q]
    values = [_value(terms, coords) for terms in generators]
    if place is None:
        ratio = max(abs(x) ** e for x, e in zip(coords, exps)) / max(abs(v) for v in values)
        out = {p: Fraction(e, m) for p, e in trial_division(ratio.numerator)}
        for p, e in trial_division(ratio.denominator):
            out[p] = out.get(p, 0) - Fraction(e, m)
    else:
        den = max(-e * _ord(x, place) for x, e in zip(coords, exps) if x != 0)
        num = max(-_ord(v, place) for v in values if v != 0)
        out = {place: Fraction(den - num, m)}
    return {p: c for p, c in out.items() if c != 0}


def subscheme_global_height(coords, q, generators, mode) -> dict[int, Fraction]:
    """The local heights summed over the archimedean place and every
    prime dividing a numerator or denominator of a nonzero coordinate or
    generator value (found by trial division); elsewhere both maxima
    are 1."""
    coords = [Fraction(c) for c in coords]
    primes = set()
    for r in coords + [_value(terms, coords) for terms in generators]:
        if r != 0:
            primes.update(p for p, _ in trial_division(r.numerator))
            primes.update(p for p, _ in trial_division(r.denominator))
    total: dict[int, Fraction] = {}
    for place in [None, *sorted(primes)]:
        for p, c in subscheme_local_height(coords, q, generators, place, mode).items():
            total[p] = total.get(p, 0) + c
    return {p: c for p, c in total.items() if c != 0}


def exp_sign(r, m: int) -> int:
    """Sign of r - e^m for a rational r and an integer m >= 1, from the
    Taylor partial sums s_n of e^m: the terms after t_n = m^n/n! sum to
    at most t_n * m / (n + 1 - m), so s_n < e^m <= s_n + that bound."""
    r = Fraction(r)
    partial = term = Fraction(1)
    n = 0
    while True:
        n += 1
        term = term * m / n
        partial += term
        if n + 1 > 2 * m:
            if r < partial:
                return -1
            if r > partial + term * m / (n + 1 - m):
                return 1


def floor_log(r, q: int) -> int:
    """floor(log(r) / q) for a rational r >= 1, counting up from 0."""
    k = 0
    while exp_sign(r, (k + 1) * q) > 0:
        k += 1
    return k


def exp_digits(m: int, digits: int) -> int:
    """An integer within one of e^m * 10^digits, for m >= 1."""
    partial = term = Fraction(1)
    n = 0
    while n + 1 <= 2 * m or term * m / (n + 1 - m) > Fraction(1, 10 ** digits):
        n += 1
        term = term * m / n
        partial += term
    return math.floor(partial * 10 ** digits)


def rational_abs_log(r) -> float:
    r = Fraction(r)
    return math.log(abs(r.numerator)) - math.log(r.denominator)


def max_term(coords, exps, prime=None) -> tuple[int, Fraction]:
    """(k, |x_k|_v) for the first k where |x_k|_v^{e_k} is the max over the
    nonzero coordinates, v the place of ``prime`` (oo for None): each
    |x_i|_v^{e_i * L}, L the lcm of the exponents' denominators, is an
    exact rational, and |x|_p comes from p-adic orders by repeated division."""
    L = math.lcm(*(Fraction(e).denominator for e in exps))
    sizes = {
        i: abs(Fraction(c)) if prime is None else Fraction(prime) ** -_ord(Fraction(c), prime)
        for i, c in enumerate(coords)
        if c != 0
    }
    powers = {i: s ** int(Fraction(exps[i]) * L) for i, s in sizes.items()}
    k = min(i for i, v in powers.items() if v == max(powers.values()))
    return k, sizes[k]


def archimedean_log_hwgcd(xs, q):
    """min_i nu_oo+(x_i)/q_i over the nonzero x_i, as the library once took
    it: one LogValue per coordinate and their min, by exact comparison.
    This is the reference for the single-coordinate form, not independent
    of LogValue."""
    from wproj.arith import LogValue

    return min(
        Fraction(1, qi) * LogValue.of_rational(max(1 / abs(Fraction(x)), Fraction(1)))
        for x, qi in zip(xs, q)
        if x != 0
    )
