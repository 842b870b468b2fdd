"""Weight tuples and the reduction / well-forming / Veronese constructions.

A weight tuple w = (q_0, ..., q_n) determines the grading of coordinates;
``m`` is the lcm of the weights and ``qprod`` their product.  Reduction
divides out the common gcd, well-forming removes shared factors from
every n-subset, and the Veronese data gives the exponents m/q_i of the
power map into ordinary projective space.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from typing import NamedTuple, Sequence

from .errors import NotReduced, ParseError
from .record import Record


class Weights(Record):
    """Tuple of positive integer weights with derived constants."""

    q: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(self.q))
        if not self.q:
            raise ValueError("weights must be nonempty")
        for v in self.q:
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"weights must be positive integers, got {v!r}")

    @classmethod
    def of(cls, *q: int) -> "Weights":
        return cls(tuple(q))

    @cached_property
    def m(self) -> int:
        """lcm of the weights."""
        return math.lcm(*self.q)

    @cached_property
    def qprod(self) -> int:
        return math.prod(self.q)

    def __len__(self) -> int:
        return len(self.q)

    @property
    def n(self) -> int:
        """Dimension index: the tuple has n+1 entries."""
        return len(self.q) - 1

    def is_reduced(self) -> bool:
        return math.gcd(*self.q) == 1

    def is_well_formed(self) -> bool:
        """gcd of every n-subset (drop one entry) is 1.

        Pairs are the special case: a coprime pair already gives a space
        isomorphic to the projective line with unique normalization over
        Q, so (a,b) counts as well-formed iff gcd(a,b) = 1.  (The strict
        drop-one reading would only admit (1,1).)
        """
        if len(self.q) == 1:
            return self.q[0] == 1
        if len(self.q) == 2:
            return math.gcd(*self.q) == 1
        return all(
            math.gcd(*(v for j, v in enumerate(self.q) if j != i)) == 1
            for i in range(len(self.q))
        )

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.q) + ")"


class WeightMap(Record):
    """Coordinate power map y_i = x_i^{e_i} between weighted spaces."""

    source: Weights
    target: Weights
    coord_exponents: tuple[int, ...]

    def is_identity(self) -> bool:
        return self.source == self.target and all(e == 1 for e in self.coord_exponents)

    def map_coords(self, coords: Sequence) -> tuple:
        if len(coords) != len(self.coord_exponents):
            raise ValueError("coordinate count does not match the map")
        return tuple(c ** e for c, e in zip(coords, self.coord_exponents))

    def then(self, other: "WeightMap") -> "WeightMap":
        if other.source != self.target:
            raise ValueError("maps do not compose")
        exps = tuple(e * f for e, f in zip(self.coord_exponents, other.coord_exponents))
        return WeightMap(self.source, other.target, exps)


class VeroneseData(NamedTuple):
    m: int
    exps: tuple[int, ...]
    is_embedding: bool


def reduce(w: Weights) -> WeightMap:
    """Divide all weights by their gcd d; coordinates map to d-th powers."""
    d = math.gcd(*w.q)
    target = Weights(tuple(v // d for v in w.q))
    return WeightMap(w, target, (d,) * len(w))


def well_form(w: Weights) -> WeightMap:
    """One-pass well-forming of a reduced weight tuple.

    With d_i = gcd of the other weights and a_i = lcm of the other d_j,
    the map x_i -> x_i^{d_i} lands in weights q_i / a_i, which are
    well-formed.
    """
    if not w.is_reduced():
        raise NotReduced(f"weights {w} have gcd {math.gcd(*w.q)} > 1")
    if len(w) == 1:
        return WeightMap(w, w, (1,))
    n1 = len(w)
    d = [math.gcd(*(w.q[j] for j in range(n1) if j != i)) for i in range(n1)]
    a = [math.lcm(*(d[j] for j in range(n1) if j != i)) for i in range(n1)]
    for i in range(n1):
        if w.q[i] % a[i] != 0:
            raise AssertionError("a_i must divide q_i for reduced weights")
    target = Weights(tuple(w.q[i] // a[i] for i in range(n1)))
    return WeightMap(w, target, tuple(d))


def well_formed_model(w: Weights) -> WeightMap:
    """Composite reduce-then-well-form map to a reduced well-formed tuple."""
    first = reduce(w)
    return first.then(well_form(first.target))


def veronese_data(w: Weights) -> VeroneseData:
    """Exponents m/q_i of the Veronese power map, and whether it embeds
    into ordinary projective space (all exponents coprime)."""
    exps = tuple(w.m // v for v in w.q)
    return VeroneseData(w.m, exps, math.gcd(*exps) == 1)


_WEIGHTS_RE = re.compile(r"^\s*(?:w\s*=\s*)?\(\s*(\d+(?:\s*,\s*\d+)*)\s*,?\s*\)\s*$")


def parse_weights(text: str) -> Weights:
    """Parse the text form "w=(q0,q1,...,qn)" (the "w=" prefix is optional)."""
    match = _WEIGHTS_RE.match(text)
    if not match:
        raise ParseError(f"cannot parse weights from {text!r}")
    values = tuple(int(part) for part in match.group(1).split(","))
    if any(v < 1 for v in values):
        raise ParseError("weights must be positive")
    return Weights(values)
