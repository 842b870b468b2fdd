"""Singular locus predicates for weighted projective spaces.

A point is singular exactly when the weights at its nonzero coordinates
share a common factor.  The singular set decomposes into components
indexed by primes p dividing m = lcm(weights): the component of p
consists of the points supported inside J(p) = {i : p | q_i}, and only
maximal index sets matter.
"""

from __future__ import annotations

import math

from .errors import PrimeNotDividingM
from .points import WPoint
from .record import Record
from .weights import Weights


class SingularComponent(Record):
    """One component: its prime, the index set J(p), and its dimension
    as a weighted projective space (#J(p) - 1)."""

    prime: int
    indices: tuple[int, ...]
    dimension: int


def is_singular(x: WPoint) -> bool:
    """gcd of the weights at nonzero coordinates exceeds 1."""
    return math.gcd(*(x.weights.q[i] for i in x.support())) > 1


def _index_set(w: Weights, p: int) -> tuple[int, ...]:
    return tuple(i for i, q in enumerate(w.q) if q % p == 0)


def singular_components(w: Weights) -> list[SingularComponent]:
    """Components for each prime dividing m, maximal index sets only."""
    from .arith import factorize

    if w.m == 1:
        return []
    sets = {p: _index_set(w, p) for p in factorize(w.m).primes()}
    components = []
    for p, indices in sorted(sets.items()):
        if not indices:
            continue
        contained = any(
            other != p and set(indices) < set(other_indices)
            for other, other_indices in sets.items()
        )
        if contained:
            continue
        components.append(SingularComponent(p, indices, len(indices) - 1))
    return components


def component_membership(x: WPoint, p: int) -> bool:
    """Is the support of x contained in J(p)?  Requires p | m."""
    if x.weights.m % p != 0:
        raise PrimeNotDividingM(f"{p} does not divide m = {x.weights.m}")
    indices = set(_index_set(x.weights, p))
    return set(x.support()) <= indices


def hypersurface_well_formed(w: Weights, d: int) -> bool:
    """The two gcd conditions for a degree-d hypersurface to be
    well-formed: every n-subset of weights is coprime, and every
    (n-1)-subset gcd divides d."""
    n1 = len(w)
    if n1 < 2:
        return w.q[0] == 1
    for i in range(n1):
        if math.gcd(*(w.q[j] for j in range(n1) if j != i)) != 1:
            return False
    if n1 < 3:
        return True
    for i in range(n1):
        for j in range(i + 1, n1):
            g = math.gcd(*(w.q[k] for k in range(n1) if k not in (i, j)))
            if d % g != 0:
                return False
    return True
