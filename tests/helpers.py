"""Random-input generators shared by property and acceptance tests."""

from __future__ import annotations

from fractions import Fraction

from wproj.points import WPoint
from wproj.weights import Weights
from wproj.wpoly import WPolynomial


def rand_rational(rng, num_bound, den_bound=None):
    den_bound = den_bound or num_bound
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def rand_point(rng, weights, num_bound=30, den_bound=None):
    while True:
        coords = tuple(
            rand_rational(rng, num_bound, den_bound) for _ in range(len(weights))
        )
        if any(c != 0 for c in coords):
            return WPoint.of(coords, weights)


def rand_integral_point(rng, weights, bound=20):
    while True:
        coords = tuple(rng.randint(-bound, bound) for _ in range(len(weights)))
        if any(c != 0 for c in coords):
            return WPoint.of(coords, weights)


def monomials_of_degree(weights: Weights, degree: int) -> list[tuple[int, ...]]:
    out = []

    def rec(i, left, acc):
        if i == len(weights.q) - 1:
            if left % weights.q[i] == 0:
                out.append(tuple(acc + [left // weights.q[i]]))
            return
        step = weights.q[i]
        for e in range(left // step + 1):
            rec(i + 1, left - e * step, acc + [e])

    rec(0, degree, [])
    return out


def rand_homogeneous(rng, weights: Weights, degree: int | None = None) -> WPolynomial:
    """Random nonzero homogeneous polynomial with small positive integer
    coefficients; degree defaults to m (always has monomials)."""
    degree = weights.m if degree is None else degree
    pool = monomials_of_degree(weights, degree)
    if not pool:
        raise ValueError(f"no monomials of weighted degree {degree} for {weights}")
    chosen = rng.sample(pool, k=min(len(pool), rng.randint(1, 3)))
    return WPolynomial.from_terms(
        [(Fraction(rng.randint(1, 9)), e) for e in chosen], weights
    )


def product(f: WPolynomial, g: WPolynomial) -> WPolynomial:
    """f * g, term by term (the library has no caller for a product)."""
    terms = [
        (c1 * c2, tuple(a + b for a, b in zip(e1, e2)))
        for c1, e1 in f.terms
        for c2, e2 in g.terms
    ]
    return WPolynomial(tuple(terms), f.weights)
