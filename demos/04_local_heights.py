#!/usr/bin/env python3
"""Local heights per place, their global sums, and the metric modes.

Every local value is an exact formal sum of log-prime terms, so the
place-by-place table sums to an exact identity: for a form f and a
point x off its zero set, the global sum equals (1/m) times the sum of
the log-max denominators, because the product formula kills log|f(x)|.

The "paper" mode prints the metric with denominator exponents q_i; the
"alt" mode uses m/q_i, the variant whose denominator has weighted
degree m.  The final section tabulates the gap between the divisor
height and the log weighted height (they agree only up to bounded
functions, and the two printed conventions differ for nontrivial
weights).
"""

from wproj.arith import relevant_places
from wproj.gcdops import Subscheme
from wproj.localheights import (
    global_sum,
    height_discrepancy,
    zeta_principal,
)
from wproj.points import WPoint
from wproj.weights import Weights
from wproj.wpoly import parse_polynomial

w = Weights.of(2, 3)
x = WPoint.of((3, 4), w)
f = parse_polynomial("x0", w)

print(f"point {x}, weights {w}, divisor of {f}")
print(f"{'place':>6} | {'paper mode':>14} | {'alt mode':>14}")
for place in relevant_places([3, 4]):
    paper = float(zeta_principal(x, f, place, "paper"))
    alt = float(zeta_principal(x, f, place, "alt"))
    print(f"{str(place):>6} | {paper:14.9f} | {alt:14.9f}")

total = global_sum(x, Subscheme((f,)), "paper")
print(f"\nglobal sum (paper) = {float(total):.12f}  (= log 2 exactly: "
      f"{total.coefficients()})")

total_alt = global_sum(x, Subscheme((f,)), "alt")
print(f"global sum (alt)   = {float(total_alt):.12f}")

print("\ndivisor height vs log weighted height (empirical gap):")
for coords in ((3, 4), (5, 7), (9, 10), (2, 27)):
    pt = WPoint.of(coords, w)
    total, lwh, gap = height_discrepancy(pt, f, "paper")
    print(f"  x = {str(pt):9s} divisor sum = {total:9.6f}   lwh = {lwh:9.6f}"
          f"   gap = {gap:+.6f}")
