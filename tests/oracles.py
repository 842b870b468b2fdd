"""Independent oracles used by the test suite.

These deliberately avoid the library's valuation machinery: the wgcd
oracle tests candidate divisors g directly by divisibility of g^{q_i},
and the factorization oracle is plain trial division to sqrt(n).
"""

from __future__ import annotations

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


def rational_abs_log(r) -> float:
    import math

    r = Fraction(r)
    return math.log(abs(r.numerator)) - math.log(r.denominator)
