"""Workload inputs, derived from the seed alone.

Seed 0 (the default) reproduces the README configurations exactly.
Other seeds keep each workload's input size and change its inputs:
the S-unit generators are shifted, the box is translated, the audit
weights are permuted, and the scalar commands get other points.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 0


def weights_text(q) -> str:
    return "(" + ",".join(str(v) for v in q) + ")"


def point_text(coords) -> str:
    return "[" + ":".join(str(Fraction(c)) for c in coords) + "]"


@dataclass(frozen=True)
class ScanSpec:
    """A vojta-scan run; generator j is x_{j+1} - shifts[j] * x_0."""

    weights: tuple[int, ...]
    shifts: tuple[int, ...]
    gcd_weights: tuple[int, ...]
    epsilon: Fraction
    s_primes: tuple[int, ...]
    domain: tuple  # ("box", bounds) or ("sunit", primes, max_value)
    gcd_flag: tuple[str, ...]

    def argv(self, workers: int = 1) -> list[str]:
        gens = ";".join(
            f"x{j + 1}-x0" if c == 1 else f"x{j + 1}-{c}*x0"
            for j, c in enumerate(self.shifts)
        )
        if self.domain[0] == "sunit":
            _, primes, max_value = self.domain
            domain = f"sunit:{','.join(map(str, primes))}:{max_value}"
        else:
            bounds = self.domain[1]
            if len(set(bounds)) == 1 and bounds[0][0] == -bounds[0][1]:
                domain = f"box:{bounds[0][1]}"
            else:
                domain = "box:" + ",".join(f"{lo}..{hi}" for lo, hi in bounds)
        argv = ["vojta-scan", "--weights", weights_text(self.weights), "--generators", gens,
                *self.gcd_flag, "--epsilon", str(self.epsilon),
                "--s-primes", ",".join(map(str, self.s_primes)),
                "--domain", domain, "--format", "csv"]
        return argv + (["--workers", str(workers)] if workers != 1 else [])

    def visited(self, candidates: int) -> int:
        """Tuples the enumeration visits before its filters."""
        if self.domain[0] == "box":
            return math.prod(hi - lo + 1 for lo, hi in self.domain[1])
        return candidates


@dataclass(frozen=True)
class AuditSpec:
    weights: tuple[int, ...]
    bound: int

    def argv(self) -> list[str]:
        return ["sing1-audit", "--weights", weights_text(self.weights),
                "--bound", str(self.bound), "--format", "json"]

    def visited(self, candidates: int) -> int:
        return (2 * self.bound + 1) ** len(self.weights)


@dataclass(frozen=True)
class ScalarCmd:
    kind: str
    point: str
    weights: tuple[int, ...]
    place: str | None = None  # "oo" or a prime, for zeta

    def argv(self) -> list[str]:
        argv = [self.kind, self.point, "--weights", weights_text(self.weights)]
        if self.kind == "hwgcd":
            argv += ["--archimedean", "on"]
        if self.kind in ("zeta", "global-height"):
            argv += ["--divisor", "x0"]
        if self.kind == "zeta":
            argv += ["--place", "inf" if self.place == "oo" else self.place]
        return argv


def sunit_preset(seed: int) -> ScanSpec:
    rng = random.Random(seed)
    shifts = (1, 1) if seed == DEFAULT_SEED else (rng.randint(1, 6), rng.randint(1, 6))
    return ScanSpec(
        weights=(1, 2, 3), shifts=shifts, gcd_weights=(2, 3), epsilon=Fraction(1),
        s_primes=(2, 3), domain=("sunit", (2, 3), 1_000_000),
        gcd_flag=("--main2-default",),
    )


def box_scan(seed: int) -> ScanSpec:
    # radius 14 with translations of at most 2 keeps every point of radius
    # 12 (where the known exact ties lie) and 0 in every range
    rng = random.Random(seed)
    offsets = (0, 0, 0) if seed == DEFAULT_SEED else tuple(rng.randint(-2, 2) for _ in range(3))
    return ScanSpec(
        weights=(1, 1, 2), shifts=(1, 1), gcd_weights=(1, 1), epsilon=Fraction(1, 2),
        s_primes=(2,), domain=("box", tuple((d - 14, d + 14) for d in offsets)),
        gcd_flag=("--gcd-weights", "(1,1)"),
    )


def sing1_audit(seed: int) -> AuditSpec:
    # a permutation of (2,3,5) keeps the number of canonical points
    perms = list(itertools.permutations((2, 3, 5)))
    weights = perms[0] if seed == DEFAULT_SEED else random.Random(seed).choice(perms)
    return AuditSpec(weights=weights, bound=11)


SCALAR_KINDS = ("height", "wgcd", "hwgcd", "normalize", "veronese", "singular",
                "zeta", "global-height")


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 40), rng.choice((1, 1, 2, 3, 4, 9)))


def scalar_commands(seed: int):
    """Endless cycle over the scalar subcommands with seeded points."""
    rng = random.Random(seed)
    while True:
        for kind in SCALAR_KINDS:
            if kind == "wgcd":
                d = rng.randint(2, 6)
                coords = (d ** 2 * rng.randint(-9, 9) or d, d ** 3 * rng.randint(1, 9))
                yield ScalarCmd(kind, point_text(coords), (2, 3))
            elif kind == "veronese":
                w = rng.choice(((2, 4, 6, 10), (1, 2, 3, 5), (2, 3, 5)))
                coords = [rng.randint(1, 9) * rng.choice((1, -1)) for _ in w]
                yield ScalarCmd(kind, point_text(coords), w)
            elif kind == "singular":
                w = rng.choice(((1, 2, 3, 5), (2, 4, 6, 10), (6, 10, 15)))
                coords = [rng.choice((0, 0, 1, -2, 3, 7)) for _ in w]
                coords[rng.randrange(len(w))] = rng.randint(1, 9)
                yield ScalarCmd(kind, point_text(coords), w)
            else:
                coords = (_rational(rng), _rational(rng))
                place = None
                if kind == "zeta":
                    place = rng.choice(("oo", "2", "3", "5", "7"))
                yield ScalarCmd(kind, point_text(coords), (2, 3), place)
