import itertools
import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp

from wproj import arith
from wproj.arith import (
    ARCHIMEDEAN,
    Factorization,
    LogValue,
    Place,
    _strong_lucas,
    coprime_base,
    factorize,
    integer_nthroot,
    is_prime,
    log_sum_sign,
    max_term,
    ord_int,
    relevant_places,
    s_part,
    val,
    val_plus,
)
from wproj.errors import ComparisonBudgetExceeded, FactoringBudgetExceeded, ZeroInput

import oracles
from helpers import tie_prone_tuples
from oracles import trial_division

nonzero_rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
).filter(lambda r: r != 0)


def test_factorize_one():
    assert factorize(1) == Factorization(1, ())


def test_factorize_minus_twelve():
    assert factorize(-12) == Factorization(-1, ((2, 2), (3, 1)))


def test_factorize_large_matches_trial_division():
    n = 10 ** 12 + 39
    fact = factorize(n)
    assert fact.value() == n
    assert fact.factors == tuple(trial_division(n))


@given(st.integers(min_value=-10 ** 9, max_value=10 ** 9).filter(lambda n: n != 0))
def test_factorize_roundtrip(n):
    fact = factorize(n)
    assert fact.value() == n
    primes = fact.primes()
    assert primes == tuple(sorted(primes))


def test_factorize_zero():
    with pytest.raises(ZeroInput):
        factorize(0)


# sympy is the independent oracle for the integer number theory

PSI_13 = 3_317_044_064_679_887_385_961_981  # least strong pseudoprime to the first 13 prime bases


def test_is_prime_matches_sympy_below_2_17():
    assert [n for n in range(-3, 1 << 17) if is_prime(n) != sympy.isprime(n)] == []


@pytest.mark.parametrize("base", [1 << 32, 1 << 64, PSI_13, 1 << 100])
def test_is_prime_matches_sympy_near(base):
    rng = random.Random(base)
    ns = [base + rng.randint(-10 ** 6, 10 ** 6) for _ in range(400)]
    primes = [int(sympy.nextprime(n)) for n in ns[:8]]  # these pass Miller-Rabin
    ns += primes + [p * q for p, q in zip(primes, primes[1:])]
    assert [n for n in ns if is_prime(n) != sympy.isprime(n)] == []
    assert all(is_prime(p) for p in primes)


@pytest.mark.parametrize("n", [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    5394826801, 232250619601, 9746347772161, 1436697831295441, 60977817398996785,
    3825123056546413051,  # strong pseudoprime to the bases 2 through 37
    PSI_13,
])
def test_is_prime_rejects_pseudoprimes(n):
    assert sympy.isprime(n) is False
    assert is_prime(n) is False


def test_strong_lucas_matches_sympy():
    # 5459, 5777, 10877, ... are strong Lucas pseudoprimes: composites it accepts
    odd = [n for n in range(43, 60_000, 2) if math.isqrt(n) ** 2 != n]
    assert [n for n in odd if _strong_lucas(n) != is_strong_lucas_prp(n)] == []
    assert _strong_lucas(5459) and _strong_lucas(5777)


def test_factorize_matches_sympy_on_products_of_large_primes():
    rng = random.Random(6)
    for _ in range(8):
        primes = [int(sympy.nextprime(rng.randrange(1 << 16, 1 << rng.randint(17, 32))))
                  for _ in range(rng.randint(2, 4))]
        n = math.prod(primes) * rng.choice((1, primes[0], 12))
        assert dict(factorize(n).factors) == sympy.factorint(n), primes


def test_integer_nthroot_matches_sympy():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 12)
        root = rng.randint(0, 10 ** rng.randint(1, 30))
        for x in (root ** n - 1, root ** n, root ** n + 1, rng.randint(0, 10 ** 40)):
            if x >= 0:
                assert integer_nthroot(x, n) == sympy.integer_nthroot(x, n), (x, n)


def test_factoring_budget_raises_a_typed_error_quickly():
    # two primes above 2^60: rho would need about 2^31 steps
    n = (2 ** 61 - 1) * (2 ** 89 - 1)
    start = time.perf_counter()
    with pytest.raises(FactoringBudgetExceeded) as exc:
        factorize(n)
    assert time.perf_counter() - start < 10
    assert (exc.value.code, exc.value.exit_code) == ("factoring-budget", 3)


def test_primality_past_the_bit_budget_raises_at_once():
    assert is_prime(2 ** 1279 - 1)
    n = 2 ** arith._PRIME_BITS + 1  # F_11: no factor below 2^13
    start = time.perf_counter()
    with pytest.raises(FactoringBudgetExceeded):
        is_prime(n)
    assert time.perf_counter() - start < 0.1  # BPSW takes about 0.4 s at 2^11 bits
    assert not is_prime(2 ** arith._PRIME_BITS * 3)  # a small factor still decides


M127, M1279 = 2 ** 127 - 1, 2 ** 1279 - 1


def test_a_prime_power_past_the_primality_cap_is_factored_by_its_root():
    # (2^1279 - 1)^2 has 2,558 bits: is_prime refused it before its root was tried
    assert factorize(M1279 ** 2).factors == ((M1279, 2),)
    assert factorize(-(M1279 ** 3) * 6).factors == ((2, 1), (3, 1), (M1279, 3))


def test_past_the_primality_cap_only_a_power_within_four_caps_is_factored():
    cap = arith._PRIME_BITS
    n = (2 ** 2203 - 1) * (2 ** 2281 - 1) * M1279 * (2 ** 607 - 1)  # 6,370 bits, no power
    start = time.perf_counter()
    with pytest.raises(FactoringBudgetExceeded):
        factorize(n)  # 78 roots, then is_prime refuses
    assert time.perf_counter() - start < 2
    square = (2 ** 4423 - 1) ** 2  # a Mersenne prime squared, past 4 caps
    assert square.bit_length() > 4 * cap
    start = time.perf_counter()
    with pytest.raises(FactoringBudgetExceeded):
        factorize(square)
    assert time.perf_counter() - start < 0.5  # refused at once, no root tried


def test_a_huge_number_is_divided_only_by_its_own_small_primes():
    # |2^200000 - 3^200000| has 316,780 bits: dividing it by each of the
    # 21,845 trial candidates took 1.7 s before its cofactor was refused
    arith._trial_product()  # built once per process, about 0.02 s
    start = time.perf_counter()
    with pytest.raises(FactoringBudgetExceeded):
        factorize(abs(2 ** 200000 - 3 ** 200000))
    assert time.perf_counter() - start < 0.6
    assert factorize(2 ** 3000 * 65521 ** 3 * M127).factors == ((2, 3000), (65521, 3), (M127, 1))


def test_factors_past_the_cap_are_the_ones_multiplied():
    rng = random.Random(20)
    primes = list(sympy.primerange(2, 2 ** 16))
    assert arith._trial_product() == math.prod(primes)
    assert arith._trial_product().bit_length() == 94027
    cofactors = ({}, {65537: 1}, {M127: 1}, {65537: 1, 65539: 1}, {65537: 2})
    for _ in range(40):
        factors = {rng.choice(primes): rng.randint(1, 400) for _ in range(rng.randint(1, 6))}
        factors.update(rng.choice(cofactors))
        n = math.prod(p ** e for p, e in factors.items())
        if n.bit_length() <= arith._PRIME_BITS:  # past the cap
            factors[3] = factors.get(3, 0) + arith._PRIME_BITS
            n *= 3 ** arith._PRIME_BITS
        assert factorize(n).factors == tuple(sorted(factors.items()))


def test_place_validation_and_order():
    with pytest.raises(ValueError):
        Place(4)
    assert ARCHIMEDEAN < Place(2) < Place(3) < Place(101)
    assert str(ARCHIMEDEAN) == "oo"
    assert Place(7).kind == "finite"


def test_val_examples():
    assert val(Fraction(8, 3), 2) == 3
    assert val(Fraction(8, 3), 3) == -1
    assert val(48, 2) == 4
    # the same exponent must appear in the factorization
    assert dict(factorize(48).factors)[2] == 4
    with pytest.raises(ZeroInput):
        val(0, 2)


@given(nonzero_rationals, nonzero_rationals, st.sampled_from([2, 3, 5, 7]))
def test_val_is_a_homomorphism(a, b, p):
    assert val(a * b, p) == val(a, p) + val(b, p)


def test_val_plus_examples():
    assert val_plus(Fraction(8, 3), Place(2)) == 3
    assert val_plus(Fraction(8, 3), ARCHIMEDEAN) == 0
    assert val_plus(Fraction(1, 5), ARCHIMEDEAN) == pytest.approx(math.log(5))
    assert val_plus(0, Place(2)) == math.inf
    assert val_plus(0, ARCHIMEDEAN) == math.inf
    assert val_plus(Fraction(1, 3), Place(3)) == 0  # negative valuation clips


def test_s_part_examples():
    assert s_part(720, {2, 3}) == 5
    assert s_part(7, {2, 3}) == 7
    assert s_part(-8, {2}) == 1
    with pytest.raises(ZeroInput):
        s_part(0, {2})


@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(lambda n: n != 0))
def test_s_part_complement(n):
    stripped = s_part(n, {2, 3, 5})
    cofactor = abs(n) // stripped
    assert stripped * cofactor == abs(n)
    assert math.gcd(stripped, 30) == 1
    assert all(p in (2, 3, 5) for p, _ in factorize(cofactor).factors)


@given(
    st.integers(min_value=-10 ** 12, max_value=10 ** 12).filter(bool),
    st.integers(min_value=-10 ** 12, max_value=10 ** 12).filter(bool),
    st.frozensets(st.sampled_from([2, 3, 5, 7, 11, 13])),
)
def test_s_part_is_multiplicative(a, b, s_primes):
    # the scan multiplies per-coordinate prime-to-S parts on this identity
    assert s_part(a * b, s_primes) == s_part(a, s_primes) * s_part(b, s_primes)


def _strip_by_trial_division(n, s_primes):
    n = abs(n)
    for p in s_primes:
        while n % p == 0:
            n //= p
    return n


@pytest.mark.parametrize("s_primes", [(), (2,), (2, 3), (3, 5, 7), (2, 3, 5, 7, 11, 13), (199_999,)])
def test_s_part_matches_trial_division(s_primes):
    s = frozenset(s_primes)
    for n in range(1, 200_000):
        assert s_part(n, s) == s_part(-n, s) == _strip_by_trial_division(n, s_primes), n
    big = -(2 ** 300) * 3 ** 200 * 5 * 7 ** 3 * 199_999 ** 2 * 1_000_003
    assert s_part(big, s) == _strip_by_trial_division(big, s_primes)
    with pytest.raises(ZeroInput):
        s_part(0, s)


def test_relevant_places_examples():
    assert relevant_places([1, 1]) == [ARCHIMEDEAN]
    assert relevant_places([3, 4]) == [ARCHIMEDEAN, Place(2), Place(3)]
    assert relevant_places([Fraction(8, 3)]) == [ARCHIMEDEAN, Place(2), Place(3)]
    with pytest.raises(ZeroInput):
        relevant_places([1, 0])


@given(nonzero_rationals)
def test_product_formula_float(r):
    # sum over places of log|r|_v vanishes
    total = math.log(abs(r))
    for place in relevant_places([r]):
        if place.is_finite:
            total += -val(r, place.prime) * math.log(place.prime)
    assert abs(total) <= 1e-12


@given(nonzero_rationals)
def test_product_formula_formal(r):
    lhs = LogValue.of_rational(abs(r))
    rhs = LogValue.zero()
    for place in relevant_places([r]):
        if place.is_finite:
            rhs = rhs + LogValue.of_prime(place.prime, val(r, place.prime))
    assert lhs == rhs


def test_logvalue_arithmetic_and_order():
    two = LogValue.of_rational(2)
    three = LogValue.of_rational(3)
    assert two < three
    assert 3 * two > LogValue.of_rational(7)  # 8 > 7
    assert 3 * two < LogValue.of_rational(9)
    assert (two + three) == LogValue.of_rational(6)
    assert (three - three).is_zero()
    assert float(two) == pytest.approx(math.log(2))
    assert LogValue.of_rational(Fraction(2, 3)) == two - three
    assert min([three, two, LogValue.zero()]) == LogValue.zero()


@given(
    st.fractions(min_value=1, max_value=500, max_denominator=60),
    st.fractions(min_value=1, max_value=500, max_denominator=60),
)
def test_logvalue_order_matches_floats(a, b):
    lhs = LogValue.of_rational(a)
    rhs = LogValue.of_rational(b)
    assert (lhs == rhs) == (a == b)
    assert (lhs < rhs) == (a < b)
    if a != b:
        assert (float(lhs) < float(rhs)) == (lhs < rhs)


def test_logvalue_fractional_coefficients():
    half_log9 = Fraction(1, 2) * LogValue.of_rational(9)
    assert half_log9 == LogValue.of_rational(3)
    assert float(half_log9) == pytest.approx(math.log(3))


def test_ord_int():
    assert ord_int(48, 2) == 4
    assert ord_int(-48, 3) == 1
    with pytest.raises(ZeroInput):
        ord_int(0, 2)
    for p in (1, 0, -1):  # p = 1 would divide for ever
        with pytest.raises(ValueError):
            ord_int(48, p)


def _one_step_valuation(n, p):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


@given(st.sampled_from([2, 3, 5, 7, 65521, 2**31 - 1]), st.integers(0, 300),
       st.integers(-10**30, 10**30).filter(bool))
def test_valuation_is_the_one_step_loop(p, e, n):
    assert arith._valuation(p**e * n, p) == _one_step_valuation(p**e * n, p)


def test_huge_prime_powers_are_divided_out_at_once():
    # dividing by p one power at a time took 2.3 s for 2^100000 and 3.9 s
    # for ord_int(3^100000, 3)
    start = time.perf_counter()
    assert arith.factorize(2**100000 * 3**40000 * 5).factors == ((2, 100000), (3, 40000), (5, 1))
    assert ord_int(-(3**100000) * 2, 3) == 100000
    assert time.perf_counter() - start < 0.5


def _integer_sign(value):
    # the comparison LogValue used before the float test: always on integers
    coeffs = dict(value.coefficients())
    if not coeffs:
        return 0
    denom_lcm = math.lcm(*(c.denominator for c in coeffs.values()))
    num = den = 1
    for p, c in coeffs.items():
        e = int(c * denom_lcm)
        if e > 0:
            num *= p ** e
        else:
            den *= p ** (-e)
    return (num > den) - (num < den)


def _cmp(a, b):
    return (a > b) - (a < b)


def test_logvalue_compare_of_large_coefficients_is_quick():
    # the integer comparison built 10^7-bit products here (about 2 s)
    start = time.perf_counter()
    assert not LogValue({2: 10 ** 7}) < LogValue({3: 6 * 10 ** 6})
    assert LogValue({3: 6 * 10 ** 6}) < LogValue({2: 10 ** 7})
    assert time.perf_counter() - start < 0.1


def test_logvalue_order_matches_the_integer_comparison():
    rng = random.Random(20261018)
    primes = (2, 3, 5, 7, 11, 13)
    small = [LogValue.zero()]
    for _ in range(200):
        small.append(LogValue({
            p: Fraction(rng.randint(-40, 40), rng.randint(1, 6))
            for p in rng.sample(primes, rng.randint(1, 4))
        }))
    # near ties with integer coefficients: 2^7 against 5^3, and the
    # convergents b/a of log_2 3 (3^a against 2^b)
    near = [LogValue({2: 7}), LogValue({5: 3})]
    for a, b in ((12, 19), (306, 485), (665, 1054), (15601, 24727), (31867, 50508),
                 (79335, 125743)):
        near += [LogValue({3: a}), LogValue({2: b}), LogValue({3: a, 5: 1})]
    for values, draws in ((small, 40), (near, len(near))):
        for a in values:
            for b in rng.sample(values, draws):
                assert _cmp(a, b) == _integer_sign(a - b), (a, b)
    # coefficients too small for a normal float are left to the integers
    tiny = Fraction(1, 10 ** 400)
    assert LogValue({2: tiny}) > LogValue.zero()
    assert LogValue({2: tiny}) < LogValue({3: tiny})


def test_logvalue_near_tie_is_decided_on_integers():
    # 24727/15601 is a convergent of log_2 3: the float sum is inside
    # the margin, so the integers decide
    three, two = LogValue({3: 15601}), LogValue({2: 24727})
    gap = 15601 * math.log(3) - 24727 * math.log(2)
    total = 15601 * math.log(3) + 24727 * math.log(2)
    assert abs(gap) <= arith._SIGN_MARGIN * total
    assert 3 ** 15601 < 2 ** 24727
    assert three < two and two > three and not two < three


def test_logvalue_tiny_coefficient_beside_a_deciding_term():
    # 10^-400 log 2 is below any normal float, and clearing its denominator
    # would take 10^400-bit products; each such term is bounded by
    # 2^-999 log p, so the -15601 log 3 term decides
    assert LogValue({2: Fraction(1, 10 ** 400), 3: -15601}) < LogValue.zero()
    assert LogValue({2: Fraction(1, 10 ** 400), 3: 15601}) > LogValue.zero()
    assert LogValue({2: Fraction(1, 2 ** 990), 3: Fraction(-1, 10 ** 400)}) > LogValue.zero()
    # here the bound on the tiny term exceeds the other term, so the integers
    # decide: 2^-1001 * (2 log 2 - log 3) > 0, and 2^-1000 * (log 2 - 0.7 log 3)
    # < 0, which the float of the first term alone gets wrong
    assert LogValue({2: Fraction(1, 2 ** 1000), 3: Fraction(-1, 2 ** 1001)}) > LogValue.zero()
    assert LogValue({2: Fraction(1, 2 ** 1000), 3: Fraction(-7, 10 * 2 ** 1000)}) < LogValue.zero()


def test_logvalue_sign_past_the_budget_raises_a_typed_error():
    start = time.perf_counter()
    with pytest.raises(ComparisonBudgetExceeded) as exc:
        LogValue({3: 15601 * 10 ** 9}) < LogValue({2: 24727 * 10 ** 9})
    assert time.perf_counter() - start < 0.1
    assert (exc.value.code, exc.value.exit_code) == ("comparison-budget", 3)
    assert f"{arith._SIGN_BUDGET} bits" in str(exc.value)
    # a huge coefficient beyond the float range is not decided by floats either
    with pytest.raises(ComparisonBudgetExceeded):
        LogValue({2: 10 ** 400, 3: -(10 ** 400)}) < LogValue.zero()


# integers sharing many factors in many ways, and some that share none
smooth_or_not = st.one_of(
    st.lists(st.sampled_from([2, 3, 4, 6, 9, 10, 12, 15, 18, 35]), max_size=6).map(math.prod),
    st.integers(1, 10 ** 12),
)


@given(st.lists(smooth_or_not, max_size=6))
def test_coprime_base_generates_every_input(numbers):
    base = coprime_base(numbers)
    assert all(b > 1 for b in base)
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(base, 2))
    for n in numbers:
        for b in base:
            while n % b == 0:
                n //= b
        assert n == 1


@given(st.lists(
    st.tuples(smooth_or_not.filter(lambda n: n < 10 ** 4),
              st.fractions(-6, 6, max_denominator=6)),
    max_size=5,
))
def test_log_sum_sign_matches_the_integer_comparison(terms):
    denom_lcm = math.lcm(*(c.denominator for _, c in terms))
    num = den = 1
    for n, c in terms:
        e = int(c * denom_lcm)
        if e > 0:
            num *= n ** e
        else:
            den *= n ** (-e)
    assert log_sum_sign(terms) == (num > den) - (num < den)


@given(st.lists(st.tuples(smooth_or_not, st.integers(-1000, 1000)), max_size=5))  # under the budget
def test_log_sum_sign_of_int_coefficients_is_that_of_their_fractions(terms):
    assert log_sum_sign(terms) == log_sum_sign([(n, Fraction(c)) for n, c in terms])


def test_float_coordinates_and_coefficients_are_refused():
    with pytest.raises(TypeError):
        log_sum_sign([(2, 1.0)])
    with pytest.raises(TypeError):
        max_term((5, -7.0, 3), (6, 3, 2), ARCHIMEDEAN)


def test_log_sum_sign_of_an_exact_tie_is_zero_without_powering():
    N = 10 ** 7
    start = time.perf_counter()
    assert log_sum_sign([(3, 1), (3, Fraction(-1, N + 1)), (3, Fraction(-N, N + 1))]) == 0
    assert time.perf_counter() - start < 0.1
    assert log_sum_sign([(12, 2), (6, -1), (24, -1)]) == 0  # 144 = 6 * 24
    assert log_sum_sign([(18, 1), (12, Fraction(-1, 2)), (27, Fraction(-1, 2))]) == 0
    assert log_sum_sign([(1, 5)]) == log_sum_sign([]) == 0
    with pytest.raises(ValueError):
        log_sum_sign([(0, 1), (2, 1)])  # log 0 has no coefficient over any base
    with pytest.raises(ComparisonBudgetExceeded):
        log_sum_sign([(3, 1), (2, Fraction(-16785921, 10590737))])


def test_log_sum_sign_tests_the_merged_coefficients_on_floats():
    # on the raw terms, huge opposite coefficients put the float sum
    # inside the margin; merged, 10^6 log 2 - 600000 log 3 is far from 0
    start = time.perf_counter()
    assert log_sum_sign([(4, 10 ** 18), (2, -2 * 10 ** 18 + 10 ** 6), (3, -600000)]) == 1
    assert log_sum_sign([(12, 10 ** 15), (6, -10 ** 15), (2, -10 ** 15 + 1)]) == 1
    assert time.perf_counter() - start < 0.1


@given(
    st.integers(2, 40), st.integers(1, 4), st.integers(10 ** 15, 10 ** 40),
    st.fractions(-6, 6, max_denominator=6),
    st.lists(st.tuples(smooth_or_not.filter(lambda n: n < 10 ** 4),
                       st.fractions(-6, 6, max_denominator=6)), max_size=4),
)
def test_log_sum_sign_cancels_huge_coefficients_before_the_floats(b, j, C, d, others):
    # C log b^j + (-j C + d) log b = d log b: the merged coefficients are small
    small = sum((LogValue({n: c}) for n, c in [(b, d)] + others), LogValue.zero())
    assert log_sum_sign([(b ** j, C), (b, -j * C + d)] + others) == _integer_sign(small)


@given(
    tie_prone_tuples(),
    st.sampled_from(["q", "m/q", "1/q", "1"]),
    st.sampled_from([None, 2, 3, 5]),
)
def test_max_term_matches_the_brute_force_oracle(coords_weights, kind, prime):
    coords, q = coords_weights
    m = math.lcm(*q)
    exps = {
        "q": q,
        "m/q": [m // v for v in q],
        "1/q": [Fraction(1, v) for v in q],
        "1": [1] * len(q),
    }[kind]
    place = ARCHIMEDEAN if prime is None else Place(prime)
    assert max_term(coords, exps, place) == oracles.max_term(coords, exps, prime)


def test_max_term_takes_the_first_index_of_a_tie():
    # |-2|^2 = |4|^1 = |2|^2 at oo; |1/2|_2^2 = |1/4|_2 at 2; zeros are skipped
    assert max_term((0, -2, 4, 2), (1, 2, 1, 2), ARCHIMEDEAN) == (1, 2)
    assert max_term((Fraction(1, 2), Fraction(1, 4)), (2, 1), Place(2)) == (0, 2)
    assert max_term((3, 9), (Fraction(1, 2), Fraction(1, 4)), ARCHIMEDEAN) == (0, 3)


def test_max_term_raises_no_coordinate_to_a_power():
    # raising every coordinate to its own exponent, (2/3)^7154819 among
    # them, took about 3 s; raising 3 to the ratio 10^8, 158M bits, longer
    start = time.perf_counter()
    exps = (7 * 1009 * 1013, 1013, 1009)
    assert max_term((Fraction(2, 3), 3, 5), exps, ARCHIMEDEAN) == (2, 5)
    assert max_term((3, 2), (10 ** 8, 1), ARCHIMEDEAN) == (0, 3)
    assert max_term((2, 3), (Fraction(1, 10 ** 8), 1), ARCHIMEDEAN) == (1, 3)
    assert time.perf_counter() - start < 0.1


def test_max_term_inside_the_float_margin_is_exact_under_the_budget():
    # 301994/190537 and 16785921/10590737 are convergents of log_2 3, so
    # 2^a and 3^b agree to within 1e-12 relative in their logs: the floats
    # cannot tell them apart.  2^301994 > 3^190537 takes 985,062 bits.
    assert max_term((2, 3), (301994, 190537), ARCHIMEDEAN) == (0, 2)
    assert max_term((3, 2), (1, Fraction(301994, 190537)), ARCHIMEDEAN) == (1, 2)
    with pytest.raises(ComparisonBudgetExceeded):
        max_term((2, 3), (16785921, 10590737), ARCHIMEDEAN)
