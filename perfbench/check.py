"""Independent output checks for the benchmark workloads.

Nothing here imports wproj: every expected value is recomputed with
plain integer and Fraction code (trial division, divisor search, exact
integer powers), so a defect in the library cannot hide in its own
oracle.  Checks count failed items instead of raising; each check
returns ``(attempted, failed, reasons)`` where ``reasons`` tallies the
failed items by cause.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction

from workloads import point_text, weights_text


# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------

def factor(n: int) -> dict[int, int]:
    """Prime factorization of |n| >= 1 by trial division."""
    n = abs(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def ordp(n: int, p: int) -> int:
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def brute_wgcd(values, weights) -> int:
    """Largest d >= 1 with d**q dividing every nonzero value, by search.

    Any such d divides the plain gcd g of the values, so the search runs
    over the divisors of g.
    """
    nonzero = [(abs(v), q) for v, q in zip(values, weights) if v != 0]
    g = 0
    for v, _ in nonzero:
        g = math.gcd(g, v)
    if g <= 1:
        return 1
    if all(q == 1 for _, q in nonzero):
        return g
    best = 1
    i = 1
    while i * i <= g:
        if g % i == 0:
            for d in (i, g // i):
                if d > best and all(v % d ** q == 0 for v, q in nonzero):
                    best = d
        i += 1
    return best


def strip_primes(n: int, primes) -> int:
    n = abs(n)
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def rat(value) -> str:
    return str(Fraction(value))


def log_formal(r: Fraction, scale: Fraction = Fraction(1)) -> dict[int, Fraction]:
    """Exact log of a positive rational as {prime: coefficient} times scale."""
    out: dict[int, Fraction] = {}
    for p, e in factor(r.numerator).items():
        out[p] = out.get(p, Fraction(0)) + e * scale
    for p, e in factor(r.denominator).items():
        out[p] = out.get(p, Fraction(0)) - e * scale
    return {p: c for p, c in out.items() if c != 0}


def add_formal(a: dict, b: dict) -> dict:
    out = dict(a)
    for p, c in b.items():
        out[p] = out.get(p, Fraction(0)) + c
    return {p: c for p, c in out.items() if c != 0}


def formal_json(f: dict) -> list:
    return [[p, rat(c)] for p, c in sorted(f.items())]


def formal_float(f: dict) -> float:
    return sum((float(c) * math.log(p) for p, c in f.items()), 0.0)


def close(a, b, rel=1e-9) -> bool:
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=rel, abs_tol=1e-11)


def parse_point(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.strip("[]").split(":"))


# The one defect the check knows of (ROADMAP item 2): on a row where
# lhs equals rhs exactly, the scan's float comparison can flag the row
# exceptional.  Such rows are counted under this reason and printed with
# every result, but not counted as failed; every other disagreement,
# including a wrong verdict off a tie, is a failure.
KNOWN_TIE_DEFECT = "known_defect_tie_flagged_exceptional"


def count_failed(reasons: Counter, items: int) -> int:
    """Failed items: every reason except the known tie defect."""
    return min(sum(n for r, n in reasons.items() if r != KNOWN_TIE_DEFECT), items)


# ---------------------------------------------------------------------------
# vojta-scan
# ---------------------------------------------------------------------------

def scan_candidates(spec) -> list[tuple[int, ...]]:
    """The domain, enumerated independently in lexicographic order."""
    if spec.domain[0] == "box":
        ranges = [range(lo, hi + 1) for lo, hi in spec.domain[1]]
        return [
            p for p in itertools.product(*ranges)
            if 0 not in p and brute_wgcd(p, spec.weights) == 1
        ]
    _, primes, max_value = spec.domain
    units = sorted(
        math.prod(p ** e for p, e in zip(primes, exps))
        for exps in itertools.product(*(range(max_value.bit_length()) for _ in primes))
        if math.prod(p ** e for p, e in zip(primes, exps)) <= max_value
    )
    return [(1,) + tail for tail in itertools.product(units, repeat=len(spec.weights) - 1)]


def scan_values(spec, point) -> tuple[int, ...]:
    """Generator values x_j - c_j * x_0."""
    return tuple(point[j + 1] - c * point[0] for j, c in enumerate(spec.shifts))


def _rhs_float(spec, point) -> float:
    """The float formula of the README and acceptance criterion 9."""
    log_max = max(math.log(abs(v)) / q for v, q in zip(point, spec.weights))
    stripped = strip_primes(math.prod(point), spec.s_primes)
    exponent = math.prod(spec.weights) * (len(spec.shifts) - 1)
    return math.exp(float(spec.epsilon) * log_max + math.log(stripped) / exponent)


def _exceptional_exact(spec, point, lhs) -> tuple[bool, bool]:
    """(lhs > rhs, lhs == rhs) for rhs = max_i |x_i|^(eps/q_i) * s^(1/(q(r-1))),
    decided on integers.

    Raising both sides to a common denominator D of the exponents
    leaves integer powers, and x -> x**D keeps the order of positives.
    """
    c = Fraction(1, math.prod(spec.weights) * (len(spec.shifts) - 1))
    exps = [spec.epsilon / q for q in spec.weights]
    D = math.lcm(c.denominator, *(e.denominator for e in exps))
    stripped = strip_primes(math.prod(point), spec.s_primes)
    s_term = stripped ** int(c * D)
    left = lhs ** D
    right = max(abs(x) ** int(e * D) * s_term for x, e in zip(point, exps))
    return left > right, left == right


def check_scan_csv(text: str, spec, expected: list[tuple[int, ...]]):
    reasons: Counter = Counter()
    lines = text.split("\n")
    if not lines or lines[0] != "point,lhs,rhs,ratio,exceptional" or lines[-1] != "":
        return len(expected), len(expected), Counter({"unparseable": len(expected)})
    rows = {}
    order = []
    for line in lines[1:-1]:
        parts = line.split(",")
        try:
            point = parse_point(parts[0])
            rows[point] = (int(parts[1]), float(parts[2]), float(parts[3]), parts[4])
        except (ValueError, IndexError):
            reasons["unparseable"] += 1
            continue
        order.append(point)
    expected_set = set(expected)
    reasons["extra"] += sum(1 for p in rows if p not in expected_set)
    in_order = [p for p in order if p in expected_set]
    for point in expected:
        row = rows.get(point)
        if row is None:
            reasons["missing"] += 1
            continue
        lhs, rhs, ratio, exc = row
        want_lhs = brute_wgcd(scan_values(spec, point), spec.gcd_weights)
        want_rhs = _rhs_float(spec, point)
        if lhs != want_lhs:
            reasons["lhs"] += 1
        elif not close(rhs, want_rhs) or not close(ratio, want_lhs / want_rhs):
            reasons["rhs_or_ratio"] += 1
        else:
            above, tie = _exceptional_exact(spec, point, lhs)
            if exc == str(above).lower():
                continue
            reasons[KNOWN_TIE_DEFECT if tie and exc == "true" else "exceptional"] += 1
    if in_order != [p for p in expected if p in rows]:
        reasons["order"] += 1
    return len(expected), count_failed(reasons, len(expected)), reasons


# ---------------------------------------------------------------------------
# sing1-audit
# ---------------------------------------------------------------------------

def audit_points(weights, bound: int) -> list[tuple[int, ...]]:
    """Canonical representatives: weighted gcd 1, first nonzero odd-weight
    coordinate positive, lexicographic order."""
    out = []
    for p in itertools.product(range(-bound, bound + 1), repeat=len(weights)):
        if not any(p) or brute_wgcd(p, weights) != 1:
            continue
        lead = next((v for v, q in zip(p, weights) if v != 0 and q % 2 == 1), 1)
        if lead > 0:
            out.append(p)
    return out


def _log_hwgcd_zero(point, weights) -> bool:
    # finite part: the weighted gcd of integers; archimedean part:
    # min_i log max(1/|x_i|, 1) / q_i, which is 0 for nonzero integers
    return brute_wgcd(point, weights) == 1 and all(abs(v) >= 1 for v in point if v)


def _is_singular(point, weights) -> bool:
    return math.gcd(*(q for v, q in zip(point, weights) if v != 0)) > 1


def _valuations(point, weights) -> list:
    primes = sorted({p for v in point if v for p in factor(v)})
    table = []
    for p in primes:
        floors = [ordp(v, p) // q if v else "inf" for v, q in zip(point, weights)]
        table.append({"prime": p, "floors": floors,
                      "min": min(f for f in floors if f != "inf")})
    return table


def check_audit_json(text: str, weights, points):
    reasons: Counter = Counter()
    try:
        record = json.loads(text)
        summary = record["summary"]
        rows = {parse_point(r["point"]): r for r in record["counterexamples"]}
    except (ValueError, KeyError, TypeError):
        return len(points), len(points), Counter({"unparseable": len(points)})
    zero = [p for p in points if _log_hwgcd_zero(p, weights)]
    singular = [p for p in points if _is_singular(p, weights)]
    counterexamples = [p for p in zero if not _is_singular(p, weights)]
    for key, want in (("points", len(points)), ("zero_log_hwgcd", len(zero)),
                      ("singular", len(singular)),
                      ("counterexamples", len(counterexamples))):
        if summary.get(key) != want:
            reasons["summary_" + key] += 1
    wanted = set(counterexamples)
    reasons["extra"] += sum(1 for p in rows if p not in wanted)
    for p in counterexamples:
        row = rows.get(p)
        if row is None:
            reasons["missing"] += 1
        elif row.get("log_hwgcd_zero") is not True or row.get("singular") is not False:
            reasons["verdict"] += 1
        elif row.get("valuations") != _valuations(p, weights):
            reasons["valuations"] += 1
    if [parse_point(r["point"]) for r in record["counterexamples"]] != counterexamples:
        reasons["order"] += 1
    return len(points), count_failed(reasons, len(points)), reasons


# ---------------------------------------------------------------------------
# scalar commands
# ---------------------------------------------------------------------------

def _parse_coords(text: str) -> list[Fraction]:
    return [Fraction(v) for v in text.strip("[]").split(":")]


def _height(coords, weights) -> dict:
    m = math.lcm(*weights)
    exps = [m // q for q in weights]
    nonzero = [c for c in coords if c != 0]
    primes = sorted({p for c in nonzero
                     for p in list(factor(c.numerator)) + list(factor(c.denominator))})
    per_place = [["oo", max(abs(c) ** e for c, e in zip(coords, exps))]]
    for p in primes:
        best = max(-e * (ordp(c.numerator, p) - ordp(c.denominator, p))
                   for c, e in zip(coords, exps) if c != 0)
        per_place.append([str(p), Fraction(p) ** best])
    product = math.prod(f for _, f in per_place)
    return {
        "point": point_text(coords), "weights": weights_text(weights), "m": m,
        "wh_pow_m": rat(product),
        "lwh": (math.log(product.numerator) - math.log(product.denominator)) / m,
        "per_place": [[name, rat(f)] for name, f in per_place],
    }


def _wgcd(coords, weights) -> dict:
    g = brute_wgcd([int(c) for c in coords], weights)
    formal = log_formal(Fraction(g))
    return {"weights": weights_text(weights), "wgcd": rat(g), "log_wgcd": math.log(g),
            "formal": formal_json(formal)}


def _hwgcd(coords, weights) -> dict:
    # nu_p^+(n/d) = ord_p(n) for coprime n/d, so the finite part is the
    # weighted gcd of the numerators
    g = brute_wgcd([c.numerator for c in coords], weights)
    formal = log_formal(Fraction(g))
    L = math.lcm(*weights)
    arch = [(max(1 / abs(c), Fraction(1)), q) for c, q in zip(coords, weights) if c != 0]
    r, q = min(arch, key=lambda t: t[0] ** (L // t[1]))
    formal = add_formal(formal, log_formal(r, Fraction(1, q)))
    return {"weights": weights_text(weights), "hwgcd": rat(g), "log_hwgcd": formal_float(formal),
            "formal": formal_json(formal), "archimedean": True}


def _sign_canon(coords, weights) -> list:
    for c, q in zip(coords, weights):
        if c != 0 and q % 2 == 1:
            if c < 0:
                return [v * (-1) ** w for v, w in zip(coords, weights)]
            break
    return list(coords)


def _normalize(coords, weights) -> dict:
    lam = math.lcm(*(c.denominator for c in coords))
    cleared = [c * lam ** q for c, q in zip(coords, weights)]
    g = brute_wgcd([int(c) for c in cleared], weights)
    reduced = [c / g ** q for c, q in zip(cleared, weights)]
    out = {"point": point_text(_sign_canon(reduced, weights)), "wgcd": rat(g)}
    if lam != 1:
        out["denominator_scale"] = rat(lam)
    return out


def _veronese(coords, weights) -> dict:
    d = math.gcd(*weights)
    m = math.lcm(*weights)
    exps = [m // q for q in weights]
    image = [c ** e for c, e in zip(coords, exps)]
    lam = math.lcm(*(v.denominator for v in image))
    ints = [int(v * lam) for v in image]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    if next(v for v in ints if v != 0) < 0:
        ints = [-v for v in ints]
    return {
        "weights": weights_text(weights), "reduced_weights": weights_text([q // d for q in weights]),
        "reduction_exponents": [d] * len(weights), "m": m, "exponents": exps,
        "is_embedding": math.gcd(*exps) == 1, "image": point_text(ints),
    }


def _singular(coords, weights) -> dict:
    m = math.lcm(*weights)
    sets = {p: tuple(i for i, q in enumerate(weights) if q % p == 0) for p in factor(m)}
    components = [
        {"prime": p, "indices": list(idx), "dimension": len(idx) - 1}
        for p, idx in sorted(sets.items())
        if not any(o != p and set(idx) < set(oi) for o, oi in sets.items())
    ]
    return {"weights": weights_text(weights), "components": components,
            "point": point_text(coords),
            "singular": math.gcd(*(q for c, q in zip(coords, weights) if c != 0)) > 1}


def _zeta_formal(coords, weights, place) -> dict:
    """Paper-mode local height of the divisor x0 at one place."""
    m = math.lcm(*weights)
    if place == "oo":
        den = max(abs(c) ** q for c, q in zip(coords, weights))
        return log_formal(den / abs(coords[0]), Fraction(1, m))
    p = int(place)

    def val(c: Fraction) -> int:
        return ordp(c.numerator, p) - ordp(c.denominator, p)

    best = max(-q * val(c) for c, q in zip(coords, weights) if c != 0)
    coeff = Fraction(best + val(coords[0]), m)
    return {p: coeff} if coeff else {}


def _zeta(coords, weights, place) -> dict:
    formal = _zeta_formal(coords, weights, place)
    return {"point": point_text(coords), "place": place, "metric": "paper",
            "zeta": formal_float(formal), "formal": formal_json(formal)}


def _global_height(coords, weights) -> dict:
    primes = sorted({p for c in coords if c != 0
                     for p in list(factor(c.numerator)) + list(factor(c.denominator))})
    total: dict = {}
    for place in ["oo"] + [str(p) for p in primes]:
        total = add_formal(total, _zeta_formal(coords, weights, place))
    return {"point": point_text(coords), "metric": "paper",
            "value": formal_float(total), "formal": formal_json(total)}


_EXPECTED = {
    "height": _height, "wgcd": _wgcd, "hwgcd": _hwgcd, "normalize": _normalize,
    "veronese": _veronese, "singular": _singular, "global-height": _global_height,
}


def check_scalar(text: str, cmd):
    """Check one scalar command's JSON record; returns (attempted, failed, reasons)."""
    coords = _parse_coords(cmd.point)
    if cmd.kind == "zeta":
        want = _zeta(coords, cmd.weights, cmd.place)
    else:
        want = _EXPECTED[cmd.kind](coords, cmd.weights)
    try:
        got = json.loads(text)
    except ValueError:
        return 1, 1, Counter({cmd.kind + ":unparseable": 1})
    ok = isinstance(got, dict) and set(got) == set(want) and all(
        close(got[k], v) if isinstance(v, float) else got[k] == v
        for k, v in want.items()
    )
    return 1, int(not ok), Counter() if ok else Counter({cmd.kind: 1})
