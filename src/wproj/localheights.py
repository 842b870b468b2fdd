"""Local weighted heights per place, and their sums over places.

For a form f and a point x off its zero set, the local height at a
place v is -(1/m) * log(|f(x)|_v / max_i |x_i|_v^{e_i}) where the
denominator exponents are e_i = q_i ("paper" mode, the printed metric)
or e_i = m/q_i ("alt" mode, the variant whose denominator is weighted
homogeneous of degree m).  One form-based local height serves every
divisor: a hyperplane section and a principal divisor are the same
computation, and a subscheme takes the min over its generators.  Both
|f(x)|_v and the denominator come from the max-term routine that the
weighted height uses.  Values are exact LogValue sums; global heights
sum over the finitely many places that can contribute.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import LogValue, Place, relevant_places
from .errors import MixedDegree, OnSupport, PointOnSubscheme
from .gcdops import Subscheme
from .heights import max_term, max_term_exponent, wheight
from .points import WPoint
from .weights import Weights
from .wpoly import WPolynomial, evaluate, is_homogeneous

Mode = str  # "paper" | "alt"


class DivisorKind(enum.Enum):
    PRINCIPAL = "principal"
    SUBSCHEME_MIN = "subscheme-min"


@dataclass(frozen=True)
class DivisorSpec:
    """A divisor-like payload: a single form, or a subscheme min."""

    kind: DivisorKind
    polynomial: WPolynomial | None = None
    subscheme: Subscheme | None = None

    def __post_init__(self):
        if self.kind is DivisorKind.SUBSCHEME_MIN:
            if self.subscheme is None:
                raise ValueError("SUBSCHEME_MIN needs a subscheme payload")
        else:
            if self.polynomial is None or self.polynomial.is_zero():
                raise ValueError(f"{self.kind.value} needs a nonzero polynomial")

    @classmethod
    def principal(cls, f: WPolynomial) -> "DivisorSpec":
        return cls(DivisorKind.PRINCIPAL, polynomial=f)

    @classmethod
    def subscheme_min(cls, y: Subscheme) -> "DivisorSpec":
        return cls(DivisorKind.SUBSCHEME_MIN, subscheme=y)


def _check_mode(mode: Mode) -> None:
    if mode not in ("paper", "alt"):
        raise ValueError(f"mode must be 'paper' or 'alt', got {mode!r}")


def _denominator_exponents(w: Weights, mode: Mode) -> tuple[int, ...]:
    return w.q if mode == "paper" else tuple(w.m // q for q in w.q)


def _log_max_term(
    coords: Sequence[Fraction], exps: Sequence[int], place: Place
) -> LogValue:
    """Exact log of max_i |x_i|_v^{e_i} at one place."""
    if place.is_archimedean:
        return LogValue.of_rational(max_term(coords, exps, place))
    return LogValue.of_prime(place.prime, max_term_exponent(coords, exps, place.prime))


def denominator_log(x: WPoint, place: Place, mode: Mode) -> LogValue:
    """Exact log of the local height's denominator at one place."""
    return _log_max_term(x.coords, _denominator_exponents(x.weights, mode), place)


def zeta_principal(
    x: WPoint,
    f: WPolynomial,
    place: Place,
    mode: Mode = "paper",
) -> LogValue:
    """Local height of the divisor of a nonzero regular form at one place.

    Any homogeneous form is accepted (a hyperplane section is the case of
    a linear form); the printed formula is reproduced verbatim in paper
    mode.
    """
    _check_mode(mode)
    if not is_homogeneous(f):
        raise MixedDegree("principal divisor form must be weighted homogeneous")
    value = evaluate(f, x.coords)
    if value == 0:
        raise OnSupport(f"the form vanishes at {x}")
    value_log = _log_max_term((value,), (1,), place)
    return Fraction(1, x.weights.m) * (denominator_log(x, place, mode) - value_log)


zeta_hyperplane = zeta_principal


def zeta_subscheme(
    x: WPoint,
    y: Subscheme,
    place: Place,
    mode: Mode = "paper",
) -> LogValue:
    """Min over generators of the principal local heights; generators
    vanishing at x contribute +infinity (they are skipped)."""
    _check_mode(mode)
    values = y.rational_values_at(x.coords)
    candidates = []
    for g, value in zip(y.generators, values):
        if value == 0:
            continue
        candidates.append(zeta_principal(x, g, place, mode))
    if not candidates:
        raise PointOnSubscheme("every generator vanishes at the point")
    return min(candidates)


def _support_values(x: WPoint, spec: DivisorSpec) -> list[Fraction]:
    if spec.kind is DivisorKind.SUBSCHEME_MIN:
        values = [v for v in spec.subscheme.rational_values_at(x.coords) if v != 0]
        if not values:
            raise PointOnSubscheme("every generator vanishes at the point")
        return values
    value = evaluate(spec.polynomial, x.coords)
    if value == 0:
        raise OnSupport(f"the form vanishes at {x}")
    return [value]


def global_sum(
    x: WPoint,
    spec: DivisorSpec,
    mode: Mode = "paper",
) -> LogValue:
    """Sum of the local heights over every place that can contribute.

    Outside the places dividing a coordinate or a generator value both
    the numerator and the denominator have valuation 0, so the sum over
    the returned place set is the full sum over all places, exactly.
    """
    _check_mode(mode)
    values = _support_values(x, spec)
    places = relevant_places([c for c in x.coords if c != 0] + values)
    total = LogValue.zero()
    for place in places:
        if spec.kind is DivisorKind.SUBSCHEME_MIN:
            total = total + zeta_subscheme(x, spec.subscheme, place, mode)
        else:
            total = total + zeta_principal(x, spec.polynomial, place, mode)
    return total


def height_discrepancy(
    x: WPoint, form: WPolynomial, mode: Mode = "paper"
) -> tuple[float, float, float]:
    """Empirical gap between the global divisor-height sum for a form
    and the log weighted height of the point.

    Returns (global sum, log weighted height, difference).  The two
    notions agree only up to bounded functions, and for nontrivial
    weights the printed metric and the height definition diverge; this
    helper exists to tabulate that gap, not to resolve it.
    """
    total = float(global_sum(x, DivisorSpec.principal(form), mode))
    lwh = wheight(x).lwh
    return total, lwh, total - lwh
