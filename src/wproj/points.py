"""Weighted projective points over Q.

Two coordinate tuples name the same point when one is obtained from the
other by the action lambda * (x_0,...,x_n) = (lambda^{q_0} x_0, ...,
lambda^{q_n} x_n) for a nonzero rational lambda.  Over Q the only roots
of unity are +/-1, so every orbit in a well-formed space has a unique
integral representative with weighted GCD 1 once a sign convention is
fixed: the first nonzero coordinate of odd weight is made positive
(on even-weight coordinates -1 acts trivially).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterator, Sequence

from .arith import RationalLike, as_fraction, exact_power, integer_nthroot, parse_rational
from .errors import (
    AllZero,
    ArityMismatch,
    IllFormedWeights,
    ParseError,
    WeightMismatch,
    ZeroScalar,
)
from .gcdops import wgcd
from .record import Record
from .weights import WeightMap, Weights, veronese_data


class WPoint(Record):
    """A point of a weighted projective space over Q."""

    coords: tuple[Fraction, ...]
    weights: Weights

    def __init__(self, coords: Sequence[RationalLike], weights: Weights):
        coords = tuple(map(as_fraction, coords))
        if len(coords) != len(weights):
            raise ArityMismatch(f"{len(coords)} coordinates for {len(weights)} weights")
        if not any(coords):
            raise AllZero("a projective point needs a nonzero coordinate")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def of(cls, coords: Sequence[RationalLike], weights: Weights) -> "WPoint":
        return cls(coords, weights)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if c != 0)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def __str__(self) -> str:
        return format_point(self.coords)


def format_point(coords: Sequence[RationalLike]) -> str:
    """"[a0:a1:...:an]", each entry an int or "p/q"."""
    return "[" + ":".join(map(str, coords)) + "]"


_POINT_RE = re.compile(r"^\s*\[\s*(.*?)\s*\]\s*$")
_COORD_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def parse_point(text: str, weights: Weights) -> WPoint:
    """Parse "[a0:a1:...:an]" with integer or "p/q" entries."""
    coords = parse_coords(text)
    return WPoint(coords, weights)


def parse_coords(text: str) -> tuple[Fraction, ...]:
    match = _POINT_RE.match(text)
    if not match:
        raise ParseError(f"cannot parse point from {text!r}")
    parts = [part.strip() for part in match.group(1).split(":")]
    if not parts or any(not part for part in parts):
        raise ParseError(f"cannot parse point from {text!r}")
    out = []
    for part in parts:
        if not _COORD_RE.match(part):
            raise ParseError(f"bad coordinate {part!r}")
        out.append(parse_rational(part))
    return tuple(out)


def scale(x: WPoint, lam: RationalLike) -> WPoint:
    """Apply the coordinate action: coordinate i is multiplied by lam^{q_i}."""
    lam = as_fraction(lam)
    if lam == 0:
        raise ZeroScalar("scaling by 0 leaves the space")
    coords = tuple(c * lam ** q for c, q in zip(x.coords, x.weights.q))
    return WPoint(coords, x.weights)


def apply_weight_map(x: WPoint, wmap: WeightMap) -> WPoint:
    if x.weights != wmap.source:
        raise WeightMismatch("point does not live in the map's source")
    return WPoint(wmap.map_coords(x.coords), wmap.target)


def normalization(x: WPoint) -> tuple[WPoint, int, int]:
    """The normalized point with the two scalars that produce it.

    First scale by lam, the lcm of coordinate denominators (staying
    inside the orbit), then divide out g, the weighted GCD of the
    cleared tuple, then fix the sign.  Returns (point, lam, g).
    Requires well-formed weights for uniqueness.
    """
    if not x.weights.is_well_formed():
        raise IllFormedWeights(f"weights {x.weights} are not well-formed")
    q = x.weights.q
    lam = math.lcm(*(c.denominator for c in x.coords))
    ints = [c * exact_power(lam, qi) for c, qi in zip(x.coords, q)]
    g = wgcd(ints, x.weights)
    reduced = tuple(c / Fraction(g) ** qi for c, qi in zip(ints, q))
    return sign_canon(WPoint(reduced, x.weights)), lam, g


def normalize(x: WPoint) -> WPoint:
    """Unique integral representative with weighted GCD 1 and sign canon."""
    return normalization(x)[0]


def is_sign_canonical(coords: Sequence[RationalLike], q: Sequence[int]) -> bool:
    """Whether the first nonzero odd-weight coordinate, if any, is positive."""
    for c, qi in zip(coords, q):
        if c and qi % 2:
            return c > 0
    return True


def sign_canonical_blocks(
    q: Sequence[int], bound: int
) -> Iterator[tuple[Sequence[int], ...]]:
    """The int tuples with |x_i| <= bound that pass ``is_sign_canonical``
    at weights q, as blocks of per-coordinate value lists whose products,
    in order, enumerate them lexicographically, built without the others.

    While no odd-weight coordinate is nonzero, the next odd-weight one
    takes 0 or 1..bound, never a negative value; after the first
    nonzero one, every later coordinate takes its full range."""
    n = len(q)
    full = range(-bound, bound + 1)
    last_odd = max((i for i, qi in enumerate(q) if qi % 2), default=-1)

    def blocks(prefix: tuple[int, ...], i: int):
        # the odd-weight entries of prefix are all 0: the sign is undecided
        fixed = [(c,) for c in prefix]
        if i > last_odd:
            yield (*fixed, *[full] * (n - i))
        elif q[i] % 2:
            yield from blocks(prefix + (0,), i + 1)
            yield (*fixed, range(1, bound + 1), *[full] * (n - i - 1))
        else:
            for v in full:
                yield from blocks(prefix + (v,), i + 1)

    return blocks((), 0)


def sign_canon(x: WPoint) -> WPoint:
    """Representative with the first nonzero odd-weight coordinate positive."""
    if is_sign_canonical(x.coords, x.weights.q):
        return x
    flipped = tuple(-c if qi % 2 else c for c, qi in zip(x.coords, x.weights.q))
    return WPoint(flipped, x.weights)


def _rational_nth_roots(ratio: Fraction, n: int) -> list[Fraction]:
    """All rational solutions of lam^n = ratio (at most two)."""
    if n % 2 == 0 and ratio < 0:
        return []
    rnum, num_exact = integer_nthroot(abs(ratio.numerator), n)
    rden, den_exact = integer_nthroot(ratio.denominator, n)
    if not (num_exact and den_exact):
        return []
    root = Fraction(rnum, rden)
    if n % 2 == 1:
        return [root if ratio > 0 else -root]
    return [root, -root]


def equals(x: WPoint, y: WPoint) -> bool:
    """Orbit equality: is y = lam * x for some nonzero rational lam?

    Zero patterns must match; candidate lambdas are the rational q_i-th
    roots of y_i/x_i at a pivot coordinate, each verified everywhere.
    """
    if x.weights != y.weights:
        raise WeightMismatch("points live in different weighted spaces")
    if x.support() != y.support():
        return False
    pivot = x.support()[0]
    q = x.weights.q
    ratio = y.coords[pivot] / x.coords[pivot]
    for lam in _rational_nth_roots(ratio, q[pivot]):
        if all(yc == xc * lam ** qi for xc, yc, qi in zip(x.coords, y.coords, q)):
            return True
    return False


def veronese(x: WPoint) -> tuple[int, ...]:
    """Image of the point under the power map x_i -> x_i^{m/q_i},
    reduced to coprime integer coordinates with the sign canon of
    ordinary projective space (first nonzero coordinate positive)."""
    exps = veronese_data(x.weights).exps
    image = tuple(exact_power(c, e) for c, e in zip(x.coords, exps))
    return reduce_projective(image)


def reduce_projective(coords: Sequence[RationalLike]) -> tuple[int, ...]:
    """Coprime-integer canonical form of an ordinary projective point: the
    normal form at weights (1, ..., 1)."""
    x = normalize(WPoint(tuple(coords), Weights((1,) * len(coords))))
    return tuple(c.numerator for c in x.coords)
