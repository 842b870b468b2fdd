"""Local weighted heights per place, and their sums over places.

The local height of a closed subscheme Y = V(f_1, ..., f_k) at a
place v and a point x off Y is

    -(1/m) * log(max_j |f_j(x)|_v / max_i |x_i|_v^{e_i}),

the min over j of the local heights of the divisors div(f_j)
(Silverman's lambda_Y = min_j lambda_{div f_j}).  The denominator
exponents are e_i = q_i ("paper" mode, the printed metric) or
e_i = m/q_i ("alt" mode, the variant whose denominator is weighted
homogeneous of degree m).  A principal divisor div(f), a hyperplane
section included, is the one-generator case V(f), so one body serves
every divisor.  Each log max is e_k log|x_k|_v, k from ``arith.max_term``
as in the weighted height.  Values are exact LogValue sums; global heights
sum over the finitely many places that can contribute.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .arith import LogValue, Place, max_term, relevant_places, val
from .errors import MixedDegree, PointOnSubscheme
from .gcdops import Subscheme
from .heights import wheight
from .points import WPoint
from .weights import veronese_data
from .wpoly import WPolynomial, evaluate

Mode = str  # "paper" | "alt"


def _check_mode(mode: Mode) -> None:
    if mode not in ("paper", "alt"):
        raise ValueError(f"mode must be 'paper' or 'alt', got {mode!r}")


def _log_max_term(coords: Sequence[Fraction], exps: Sequence[int], place: Place) -> LogValue:
    """Exact log of max_i |x_i|_v^{e_i} at one place: e_k log|x_k|_v."""
    k, size = max_term(coords, exps, place)
    if place.is_finite:
        return LogValue.of_prime(place.prime, exps[k] * val(size, place.prime))
    return exps[k] * LogValue.of_rational(size)


def denominator_log(x: WPoint, place: Place, mode: Mode) -> LogValue:
    """Exact log of the local height's denominator at one place."""
    w = x.weights
    return _log_max_term(x.coords, w.q if mode == "paper" else veronese_data(w).exps, place)


def _generator_values(x: WPoint, y: Subscheme, mode: Mode) -> tuple[Fraction, ...]:
    """The generator values at x, after every check on the inputs.

    Mixed-degree generators are rejected before anything is evaluated,
    so the answer does not depend on the representative of x."""
    _check_mode(mode)
    if y.has_mixed_generator():
        raise MixedDegree("local heights need weighted homogeneous generators")
    values = tuple(evaluate(g, x.coords) for g in y.generators)
    if not any(values):
        raise PointOnSubscheme("every generator vanishes at the point")
    return values


def _local_height(
    x: WPoint, values: tuple[Fraction, ...], place: Place, mode: Mode
) -> LogValue:
    value_log = _log_max_term(values, (1,) * len(values), place)
    return Fraction(1, x.weights.m) * (denominator_log(x, place, mode) - value_log)


def zeta_subscheme(
    x: WPoint,
    y: Subscheme,
    place: Place,
    mode: Mode = "paper",
) -> LogValue:
    """Local height of a subscheme at one place; generators vanishing at
    x drop out of the max (they would contribute +infinity to the min)."""
    return _local_height(x, _generator_values(x, y, mode), place, mode)


def zeta_principal(
    x: WPoint,
    f: WPolynomial,
    place: Place,
    mode: Mode = "paper",
) -> LogValue:
    """Local height of the divisor of a nonzero form: the subscheme V(f)."""
    return zeta_subscheme(x, Subscheme((f,)), place, mode)


zeta_hyperplane = zeta_principal


def global_sum(
    x: WPoint,
    y: Subscheme,
    mode: Mode = "paper",
) -> LogValue:
    """Sum of the local heights over every place that can contribute.

    Outside the places dividing a coordinate or a generator value both
    the numerator and the denominator have valuation 0, so the sum over
    the returned place set is the full sum over all places, exactly.
    """
    values = _generator_values(x, y, mode)
    places = relevant_places([v for v in x.coords + values if v != 0])
    return sum((_local_height(x, values, place, mode) for place in places), LogValue.zero())


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
    total = float(global_sum(x, Subscheme((form,)), mode))
    lwh = wheight(x).lwh
    return total, lwh, total - lwh
