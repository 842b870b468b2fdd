"""Random-input generators shared by property and acceptance tests, and
a runner for fresh interpreters."""

from __future__ import annotations

import io
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from wproj.points import WPoint, sign_canonical_blocks
from wproj.weights import Weights
from wproj.wpoly import WPolynomial

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*argv: str, timeout: float) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of a fresh ``python *argv`` with src on
    PYTHONPATH.  Past ``timeout`` seconds of wall clock the process is
    killed and subprocess.TimeoutExpired fails the calling test alone."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                         timeout=timeout)
    return out.returncode, out.stdout, out.stderr


def run_wproj(*args: str, timeout: float) -> tuple[int, str, str]:
    """``run_python`` on ``python -m wproj.cli *args``."""
    return run_python("-m", "wproj.cli", *args, timeout=timeout)


def run_wproj_closing(nbytes: int, *args: str, unbuffered: bool,
                      timeout: float) -> tuple[int, bytes, bytes]:
    """(exit code, first ``nbytes`` of stdout, stderr) of ``python -m
    wproj.cli *args`` whose stdout pipe is closed after ``nbytes`` are read,
    as ``| head -c nbytes`` does; with PYTHONUNBUFFERED set or unset."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "wproj.cli", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        head = proc.stdout.read(nbytes)
        proc.stdout.close()
        _, err = proc.communicate(timeout=timeout)
    finally:
        proc.kill()
        proc.wait()
    return proc.returncode, head, err


def run_wproj_without_stdout(*args: str, timeout: float) -> tuple[int, str]:
    """(exit code, stderr) of ``python -m wproj.cli *args`` started with fd 1
    closed, as ``>&-`` starts it, so that its ``sys.stdout`` is None."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-m", "wproj.cli", *args], env=env,
                         stderr=subprocess.PIPE, text=True, timeout=timeout,
                         preexec_fn=lambda: os.close(1))
    return out.returncode, out.stderr


def written(write, *args) -> str:
    """The text that the stream writer ``write(*args, out)`` writes."""
    out = io.StringIO()
    write(*args, out)
    return out.getvalue()


def rand_rational(rng, num_bound, den_bound=None):
    den_bound = den_bound or num_bound
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def rand_point(rng, weights, num_bound=30, den_bound=None):
    while True:
        coords = tuple(
            rand_rational(rng, num_bound, den_bound) for _ in range(len(weights))
        )
        if any(c != 0 for c in coords):
            return WPoint.of(coords, weights)


def rand_integral_point(rng, weights, bound=20):
    while True:
        coords = tuple(rng.randint(-bound, bound) for _ in range(len(weights)))
        if any(c != 0 for c in coords):
            return WPoint.of(coords, weights)


def monomials_of_degree(weights: Weights, degree: int) -> list[tuple[int, ...]]:
    out = []

    def rec(i, left, acc):
        if i == len(weights.q) - 1:
            if left % weights.q[i] == 0:
                out.append(tuple(acc + [left // weights.q[i]]))
            return
        step = weights.q[i]
        for e in range(left // step + 1):
            rec(i + 1, left - e * step, acc + [e])

    rec(0, degree, [])
    return out


def rand_homogeneous(rng, weights: Weights, degree: int | None = None) -> WPolynomial:
    """Random nonzero homogeneous polynomial with small positive integer
    coefficients; degree defaults to m (always has monomials)."""
    degree = weights.m if degree is None else degree
    pool = monomials_of_degree(weights, degree)
    if not pool:
        raise ValueError(f"no monomials of weighted degree {degree} for {weights}")
    chosen = rng.sample(pool, k=min(len(pool), rng.randint(1, 3)))
    return WPolynomial.from_terms(
        [(Fraction(rng.randint(1, 9)), e) for e in chosen], weights
    )


def product(f: WPolynomial, g: WPolynomial) -> WPolynomial:
    """f * g, term by term (the library has no caller for a product)."""
    terms = [
        (c1 * c2, tuple(a + b for a, b in zip(e1, e2)))
        for c1, e1 in f.terms
        for c2, e2 in g.terms
    ]
    return WPolynomial(tuple(terms), f.weights)


def sign_canonical_tuples(q, bound):
    """The tuples of ``sign_canonical_blocks``, in lexicographic order."""
    blocks = sign_canonical_blocks(q, bound)
    return itertools.chain.from_iterable(itertools.starmap(itertools.product, blocks))


def block_points(blocks):
    """The points of ``wproj.scan.prefix_blocks``'s (prefix, values) blocks,
    in order, as ``candidate_points`` and the audit's ``_canonical_points``
    yield them."""
    return [prefix + (v,) for prefix, values in blocks for v in values]


def tie_prone_tuples(max_len=4, max_weight=5):
    """A hypothesis strategy of (coords, weights): rationals, not all zero,
    drawn often from small powers of 2 and 3, so that |x_i|^{e_i} ties."""
    entry = st.one_of(
        st.sampled_from([0, 1, -2, 4, -8, Fraction(1, 2), Fraction(-1, 4), 3, 9, Fraction(2, 3)]),
        st.fractions(-60, 60, max_denominator=60),
    )
    return st.integers(1, max_len).flatmap(lambda n: st.tuples(
        st.lists(entry, min_size=n, max_size=n).filter(any),
        st.lists(st.integers(1, max_weight), min_size=n, max_size=n).map(tuple),
    ))
