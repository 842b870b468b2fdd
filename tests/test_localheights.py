import math
import random
from fractions import Fraction

import pytest

from wproj.arith import ARCHIMEDEAN, LogValue, Place, relevant_places
from wproj.errors import MixedDegree, PointOnSubscheme
from wproj.gcdops import Subscheme
from wproj.localheights import (
    denominator_log,
    global_sum,
    height_discrepancy,
    zeta_hyperplane,
    zeta_principal,
    zeta_subscheme,
)
from wproj.points import WPoint, normalize
from wproj.weights import Weights
from wproj.wpoly import WPolynomial, evaluate, parse_polynomial

from helpers import monomials_of_degree, rand_homogeneous, rand_integral_point, rand_point
from oracles import subscheme_global_height, subscheme_local_height

W23 = Weights.of(2, 3)
X34 = WPoint.of((3, 4), W23)
F_X0 = parse_polynomial("x0", W23)


def test_zeta_hyperplane_desk_case():
    w112 = Weights.of(1, 1, 2)
    x = WPoint.of((1, 2, 3), w112)
    form = parse_polynomial("x0+x1", w112)
    value = zeta_hyperplane(x, form, ARCHIMEDEAN, "paper")
    assert value == Fraction(1, 2) * LogValue.of_rational(3)
    assert float(value) == pytest.approx(0.5 * math.log(3))
    # all factors 1 at any finite place for [1:1]
    w11 = Weights.of(1, 1)
    one = WPoint.of((1, 1), w11)
    assert zeta_hyperplane(one, parse_polynomial("x0", w11), Place(5)).is_zero()


def test_zeta_principal_desk_cases():
    arch = zeta_principal(X34, F_X0, ARCHIMEDEAN, "paper")
    assert arch == Fraction(1, 6) * LogValue.of_rational(Fraction(64, 3))
    at3 = zeta_principal(X34, F_X0, Place(3), "paper")
    assert at3 == Fraction(1, 6) * LogValue.of_rational(3)
    assert zeta_principal(X34, F_X0, Place(2), "paper").is_zero()


def test_zeta_on_support_raises():
    with pytest.raises(PointOnSubscheme):
        zeta_principal(WPoint.of((0, 1), W23), F_X0, Place(2))


def test_mixed_generators_are_rejected_at_every_representative():
    # x0+x1 is mixed in weights (2,3) and vanishes at [-1:1] but not at
    # [-4:8], the same point; with explicit gcd weights the subscheme is
    # valid, so only an up-front check answers alike at both
    y = Subscheme(
        (parse_polynomial("x0+x1", W23), parse_polynomial("x1", W23)), Weights.of(1, 3)
    )
    for coords in ((-1, 1), (-4, 8)):
        x = WPoint.of(coords, W23)
        for place in (ARCHIMEDEAN, Place(2)):
            with pytest.raises(MixedDegree):
                zeta_subscheme(x, y, place)
        with pytest.raises(MixedDegree):
            global_sum(x, y)


def test_zeta_rejects_mixed_without_override():
    w12 = Weights.of(1, 2)
    mixed = parse_polynomial("x1-x0", w12)
    x = WPoint.of((1, 2), w12)
    with pytest.raises(MixedDegree):
        zeta_principal(x, mixed, ARCHIMEDEAN)


def test_global_sum_desk_case():
    total = global_sum(X34, Subscheme((F_X0,)), "paper")
    assert total == LogValue.of_rational(2)
    assert float(total) == pytest.approx(math.log(2))
    assert global_sum(WPoint.of((1, 1), W23), Subscheme((F_X0,))).is_zero()


def test_zeta_subscheme_single_generator_matches_principal():
    y = Subscheme((F_X0,))
    for place in (ARCHIMEDEAN, Place(2), Place(3)):
        assert zeta_subscheme(X34, y, place) == zeta_principal(X34, F_X0, place)


def test_zeta_subscheme_desk_case():
    w123 = Weights.of(1, 2, 3)
    x = WPoint.of((1, 5, 9), w123)
    f1 = parse_polynomial("x1-x0^2", w123)
    f2 = parse_polynomial("x2-x0^3", w123)
    y = Subscheme((f1, f2))
    expected = min(
        zeta_principal(x, f1, Place(2)), zeta_principal(x, f2, Place(2))
    )
    assert zeta_subscheme(x, y, Place(2)) == expected


def test_zeta_subscheme_skips_vanishing_generators():
    w11 = Weights.of(1, 1)
    x = WPoint.of((1, 1), w11)
    y = Subscheme((parse_polynomial("x0-x1", w11), parse_polynomial("x0", w11)))
    assert zeta_subscheme(x, y, Place(2)) == zeta_principal(
        x, parse_polynomial("x0", w11), Place(2)
    )
    all_vanish = Subscheme((parse_polynomial("x0-x1", w11),))
    with pytest.raises(PointOnSubscheme):
        zeta_subscheme(x, all_vanish, Place(2))


def test_min_rule_for_concatenated_generators():
    rng = random.Random(53)
    w = Weights.of(1, 2, 3)
    for _ in range(60):
        x = rand_integral_point(rng, w, bound=10)
        f1 = rand_homogeneous(rng, w)
        f2 = rand_homogeneous(rng, w)
        if evaluate(f1, x.coords) == 0 or evaluate(f2, x.coords) == 0:
            continue
        y1 = Subscheme((f1,))
        y2 = Subscheme((f2,))
        both = y1.intersect(y2)
        for place in relevant_places(
            [c for c in x.coords if c != 0]
            + [evaluate(f1, x.coords), evaluate(f2, x.coords)]
        ):
            lhs = zeta_subscheme(x, both, place)
            rhs = min(zeta_subscheme(x, y1, place), zeta_subscheme(x, y2, place))
            assert lhs == rhs


def test_superset_generators_can_only_lower_the_min():
    rng = random.Random(59)
    w = Weights.of(2, 3)
    for _ in range(60):
        x = rand_integral_point(rng, w, bound=10)
        f1 = rand_homogeneous(rng, w)
        f2 = rand_homogeneous(rng, w)
        values = [evaluate(f1, x.coords), evaluate(f2, x.coords)]
        if 0 in values:
            continue
        subset = Subscheme((f1,))
        superset = Subscheme((f1, f2))
        for place in relevant_places([c for c in x.coords if c != 0] + values):
            assert zeta_subscheme(x, superset, place) <= zeta_subscheme(x, subset, place)


def test_additivity_through_products():
    # zeta of div(f*g) differs from zeta_f + zeta_g exactly by one extra
    # denominator term; equivalently log|fg| = log|f| + log|g| per place
    rng = random.Random(61)
    w = Weights.of(1, 2)
    for _ in range(40):
        x = rand_integral_point(rng, w, bound=12)
        f = rand_homogeneous(rng, w)
        g = rand_homogeneous(rng, w)
        vf, vg = evaluate(f, x.coords), evaluate(g, x.coords)
        if vf == 0 or vg == 0:
            continue
        fg = f * g
        for place in relevant_places([c for c in x.coords if c != 0] + [vf, vg]):
            zf = zeta_principal(x, f, place)
            zg = zeta_principal(x, g, place)
            zfg = zeta_principal(x, fg, place)
            den = Fraction(1, w.m) * denominator_log(x, place, "paper")
            assert zfg + den == zf + zg


def test_product_formula_identity_exact():
    rng = random.Random(67)
    w = Weights.of(2, 3)
    for _ in range(60):
        x = rand_integral_point(rng, w, bound=15)
        f = rand_homogeneous(rng, w)
        value = evaluate(f, x.coords)
        if value == 0:
            continue
        places = relevant_places([c for c in x.coords if c != 0] + [value])
        total = LogValue.zero()
        denominator_total = LogValue.zero()
        for place in places:
            total = total + zeta_principal(x, f, place)
            denominator_total = denominator_total + denominator_log(x, place, "paper")
        assert total == Fraction(1, w.m) * denominator_total
        assert abs(float(total) - float(denominator_total) / w.m) <= 1e-9


def test_positivity_alt_mode_full_degree():
    # alt-mode finite-place values are >= 0 for integer-coefficient forms
    # of weighted degree m at integral normalized points
    rng = random.Random(71)
    w = Weights.of(2, 3)
    for _ in range(60):
        x = normalize(rand_integral_point(rng, w, bound=15))
        f = rand_homogeneous(rng, w)  # degree m by construction
        if evaluate(f, x.coords) == 0:
            continue
        for place in relevant_places(
            [c for c in x.coords if c != 0] + [evaluate(f, x.coords)]
        ):
            if place.is_finite:
                assert zeta_principal(x, f, place, "alt") >= LogValue.zero()


def test_positivity_fails_below_full_degree():
    # frozen counterexample: degree-2 form at a normalized point has a
    # negative finite-place value in both modes
    x = WPoint.of((2, 8), W23)
    assert zeta_principal(x, F_X0, Place(2), "alt") == Fraction(-1, 3) * LogValue.of_rational(2)
    assert zeta_principal(x, F_X0, Place(2), "paper") < LogValue.zero()


def test_local_heights_vanish_off_relevant_places():
    assert zeta_principal(X34, F_X0, Place(7)).is_zero()
    assert zeta_principal(X34, F_X0, Place(11)).is_zero()


def test_subscheme_global_cross_check_against_hwgcd():
    # finite-place part of the subscheme height matches the log weighted
    # gcd of the generator values when gcd weights equal the degrees and
    # the denominators vanish (integral normalized point, paper mode)
    from wproj.gcdops import hwgcd_subscheme

    w111 = Weights.of(1, 1, 1)
    x = WPoint.of((1, 4, 7), w111)
    y = Subscheme((
        parse_polynomial("x1-x0", w111),
        parse_polynomial("x2-x0", w111),
    ), Weights.of(1, 1))
    finite_total = LogValue.zero()
    for place in relevant_places([1, 4, 7, 3, 6]):
        if place.is_finite:
            finite_total = finite_total + zeta_subscheme(x, y, place)
    # max_i |x_i|^{q_i} = 1 at finite places here, so zeta reduces to
    # (1/m) * ord_p(f_j(x)) and the min matches the floor-free part;
    # with unit weights the floors are trivial and the values agree
    assert finite_total == hwgcd_subscheme(x, y)


def test_alt_mode_global_sum_is_the_weighted_height():
    # in alt mode the denominators are exactly the height's max terms,
    # so the global sum of any principal divisor is lwh(x), exactly, at
    # integral and rational points alike
    from wproj.heights import wheight

    rng = random.Random(73)
    for q in ((2, 3), (1, 2, 3), (2, 3, 5)):
        w = Weights(q)
        checked = 0
        for i in range(60):
            if i % 2:
                x = rand_point(rng, w, num_bound=6, den_bound=4)
            else:
                x = rand_integral_point(rng, w, bound=15)
            f = rand_homogeneous(rng, w)
            if evaluate(f, x.coords) == 0:
                continue
            total = global_sum(x, Subscheme((f,)), "alt")
            hv = wheight(x)
            assert w.m * total == LogValue.of_rational(hv.wh_pow_m)
            checked += 1
        assert checked >= 40


def test_height_discrepancy_reports_gap():
    total, lwh, gap = height_discrepancy(X34, F_X0, "paper")
    assert total == pytest.approx(math.log(2))
    assert lwh == pytest.approx(math.log(27) / 6)
    assert gap == pytest.approx(math.log(2) - math.log(27) / 6)


def test_unknown_mode_is_rejected():
    with pytest.raises(ValueError):
        zeta_principal(X34, F_X0, Place(2), mode="other")
    with pytest.raises(ValueError):
        global_sum(X34, Subscheme((F_X0,)), mode="other")


def _monomial(coords, exps):
    return math.prod(c ** e for c, e in zip(coords, exps))


def _oracle_generator(rng, w, coords, vanish):
    """Terms of a random homogeneous form of weighted degree at most 6;
    with ``vanish`` it is c1*M1 + c2*M2 with c2 chosen to kill it at
    coords, when the degree has two monomials and M2 is nonzero there."""
    degree = rng.choice([d for d in range(1, 7) if monomials_of_degree(w, d)])
    pool = monomials_of_degree(w, degree)
    chosen = rng.sample(pool, k=min(len(pool), rng.randint(1, 3)))
    terms = [(Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.choice((1, 1, 2, 3))), e)
             for e in chosen]
    if vanish:
        m1 = chosen[0]
        others = [e for e in pool if e != m1 and _monomial(coords, e) != 0]
        if others:
            m2 = rng.choice(others)
            c1 = terms[0][0]
            terms = [(c1, m1), (-c1 * _monomial(coords, m1) / _monomial(coords, m2), m2)]
    return terms


def test_subscheme_local_heights_match_the_oracle():
    # 1-3 generators per case, some vanishing at the point, against a
    # Fraction and trial-division oracle at every relevant place and in sum
    rng = random.Random(79)
    extra = (Place(7), Place(11))
    several = vanishing = on_subscheme = 0
    for q in ((2, 3), (1, 2, 3), (2, 3, 5)):
        w = Weights(q)
        for i in range(60):
            if i % 2:
                x = rand_point(rng, w, num_bound=6, den_bound=4)
            else:
                x = rand_integral_point(rng, w, bound=12)
            gens = [
                _oracle_generator(rng, w, x.coords, vanish=rng.random() < 0.4)
                for _ in range(rng.randint(1, 3))
            ]
            y = Subscheme(tuple(WPolynomial.from_terms(t, w) for t in gens))
            values = [evaluate(g, x.coords) for g in y.generators]
            for mode in ("paper", "alt"):
                if not any(values):
                    with pytest.raises(PointOnSubscheme):
                        zeta_subscheme(x, y, ARCHIMEDEAN, mode)
                    with pytest.raises(PointOnSubscheme):
                        global_sum(x, y, mode)
                    continue
                nonzero = [v for v in values if v != 0]
                places = relevant_places([c for c in x.coords if c != 0] + nonzero)
                for place in places + [p for p in extra if p not in places]:
                    expected = subscheme_local_height(
                        x.coords, q, gens, place.prime if place.is_finite else None, mode
                    )
                    assert dict(zeta_subscheme(x, y, place, mode).coefficients()) == expected
                expected = subscheme_global_height(x.coords, q, gens, mode)
                assert dict(global_sum(x, y, mode).coefficients()) == expected
            on_subscheme += not any(values)
            vanishing += 0 in values and any(values)
            several += len(values) - values.count(0) >= 2
    assert several >= 40 and vanishing >= 10 and on_subscheme >= 1
