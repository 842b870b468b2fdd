#!/usr/bin/env python3
"""The scan harness: weighted-GCD inequality tables and the sing1 audit.

The S-unit preset compares wgcd(x1 - 1, x2 - 1) against
max(|x1|^(1/q1), |x2|^(1/q2))^epsilon on pairs of {2,3}-units; the
inequality is conditional on Vojta's conjecture and is only tabulated,
so "exceptional" rows are observations, not refutations.

The audit enumerates canonical integral points and reports the ones
with log hwgcd zero that the gcd test calls nonsingular.
"""

from fractions import Fraction

from wproj.gcdops import Subscheme
from wproj.scan import ScanConfig, SUnitGrid, sing1_audit, vojta_scan
from wproj.weights import Weights
from wproj.wpoly import parse_polynomial

w = Weights.of(1, 2, 3)
config = ScanConfig(
    weights=w,
    subscheme=Subscheme(
        (parse_polynomial("x1-x0", w), parse_polynomial("x2-x0", w)),
        Weights.of(2, 3),
    ),
    epsilon=Fraction(1, 2),
    delta=Fraction(0),
    s_primes=frozenset({2, 3}),
    domain=SUnitGrid((2, 3), 10_000),
)

report = vojta_scan(config)
print(f"candidates          : {report.total_candidates}")
print(f"rows                : {len(report.rows)}")
print(f"skipped on subscheme: {report.skipped_on_subscheme}")
print(f"exceptional rows    : {report.exceptional_count}")
print(f"max ratio           : {report.max_ratio:.6f}")

by_ratio = sorted(report.rows, key=lambda row: -row.ratio)[:8]
print("\nlargest lhs/rhs ratios:")
for row in by_ratio:
    point = "[" + ":".join(str(v) for v in row.point) + "]"
    print(f"  {point:22s} lhs = {row.lhs:6d}  rhs = {row.rhs:12.4f}"
          f"  ratio = {row.ratio:.4f}  exceptional = {row.exceptional}")

print("\nsing1 audit, weights (2,3,5), bound 3:")
audit = sing1_audit(Weights.of(2, 3, 5), 3)
print(f"points checked      : {audit.total_points}")
print(f"log hwgcd zero      : {audit.total_points}")
print(f"singular            : {audit.singular_points}")
print(f"counterexamples     : {len(audit.counterexamples)}")
sample = [row.point for row in audit.counterexamples[:6]]
print(f"first few           : {sample}")
print("(the implication 'log hwgcd 0 => singular' fails off the")
print(" coordinate strata; [1:1:1] is the canonical witness)")
