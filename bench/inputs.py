"""Seeded inputs for the benchmark workloads.

Every input is derived from the benchmark seed alone, and this module does
not import weyrlab: the planted pencils are built and scrambled with the
benchmark's own Q(i) arithmetic, so the checks in checks.py can compare
weyrlab's answers with structure weyrlab never saw.

An op is one call of `weyrlab.cli.main` on a fixed argument list.  Each
workload's list has at least 100 ops, so every run has enough samples for
a 90th percentile with ten samples beyond it.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

MAX_DIM = 6
# Trial sizes n = 2..6 are drawn by the suite, so single-trial latencies
# spread over a decade; ops of several trials have a far steadier median.
# Even trials of a suite run are type_v perturbations and odd ones type_u,
# so an even number of trials per op gives both shapes in equal numbers.
BOUNDS_OPS = 100
BOUNDS_TRIALS = 4
WEYR_OPS = 100
WEYR_TRIALS = 2

ANALYZE_SIZES = tuple(range(4, 13))
ANALYZE_PER_SIZE = 6  # planted pencils per size, and as many dense ones
DENSE_ENTRY_BOUND = 3
# Dense pencils drawn per one kept; see _dense_ops.
DENSE_CANDIDATES = 3
SCRAMBLE_BOUND = 2
BLOCK_MAX = 3
INFINITE_BLOCK_SHARE = 0.25


def q(re, im=0):
    """An element of Q(i) as a (re, im) pair of Fractions."""
    return (Fraction(re), Fraction(im))


# Eigenvalues of the planted pencils.  All lie on weyrlab's root-search grid,
# so the determinant deflates there without the divisor search.
PALETTE = (q(0), q(1), q(-1), q(2), q(0, 1), q(1, 1), q(Fraction(1, 2)), q(Fraction(-1, 2)))


@dataclass
class Op:
    """One CLI call and what the checks need to know about its answer."""

    kind: str  # "verify", "planted" or "dense"
    argv: list[str]
    trials: int = 0
    seed: int = 0
    n: int = 0
    finite_blocks: list[tuple[tuple[Fraction, Fraction], int]] = field(default_factory=list)
    infinite_blocks: list[int] = field(default_factory=list)
    e_rows: list[list[tuple[Fraction, Fraction]]] = field(default_factory=list)
    a_rows: list[list[tuple[Fraction, Fraction]]] = field(default_factory=list)


def _matmul(x, y):
    """Product of matrices of Gaussian integers held as (re, im) pairs of ints."""
    out = []
    for row in x:
        out_row = []
        for j in range(len(y[0])):
            re = im = 0
            for (a, b), y_row in zip(row, y):
                c, d = y_row[j]
                re += a * c - b * d
                im += a * d + b * c
            out_row.append((re, im))
        out.append(out_row)
    return out


def format_scalar(z) -> str:
    """weyrlab's scalar text format: `a/b`, `a/b+c/d*i` or `a/b-c/d*i`."""

    def frac(f: Fraction) -> str:
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    re, im = z
    if not im:
        return frac(re)
    return f"{frac(re)}{'+' if im > 0 else '-'}{frac(abs(im))}*i"


def _unimodular(rng: random.Random, n: int):
    """Integer matrix of determinant 1 from 2n random elementary row operations."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(1, SCRAMBLE_BOUND) * rng.choice((1, -1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return [[(x, 0) for x in r] for r in rows]


def _planted(rng: random.Random, n: int) -> Op:
    """Weierstrass form (I, J(v)) and (J(0), I) blocks, scrambled as (S E T, S A T)."""
    finite, infinite = [], []
    remaining = n
    while remaining:
        size = rng.randint(1, min(remaining, BLOCK_MAX))
        if rng.random() < INFINITE_BLOCK_SHARE:
            infinite.append(size)
        else:
            finite.append((rng.choice(PALETTE), size))
        remaining -= size
    # Entries are doubled so that the palette's halves stay Gaussian integers.
    two = (2, 0)
    e = [[(0, 0)] * n for _ in range(n)]
    a = [[(0, 0)] * n for _ in range(n)]
    off = 0
    for value, size in finite:
        for i in range(size):
            e[off + i][off + i] = two
            a[off + i][off + i] = (int(2 * value[0]), int(2 * value[1]))
            if i + 1 < size:
                a[off + i][off + i + 1] = two
        off += size
    for size in infinite:
        for i in range(size):
            a[off + i][off + i] = two
            if i + 1 < size:
                e[off + i][off + i + 1] = two
        off += size
    s, t = _unimodular(rng, n), _unimodular(rng, n)

    def halve(m):
        return [[(Fraction(re, 2), Fraction(im, 2)) for re, im in row] for row in m]

    return Op(
        kind="planted",
        argv=[],
        n=n,
        finite_blocks=finite,
        infinite_blocks=infinite,
        e_rows=halve(_matmul(_matmul(s, e), t)),
        a_rows=halve(_matmul(_matmul(s, a), t)),
    )


def _integer_det(rows) -> int:
    """Exact determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _dense(rng: random.Random, n: int) -> tuple[Op, int]:
    """Dense integer pencil, redrawn until det(x E - A) is nonzero at some x in 0..n.

    Also returns the product of the Gaussian divisor counts of det E and
    det A, the leading and trailing coefficients of det(x E - A).
    """
    b = DENSE_ENTRY_BOUND
    while True:
        e = [[rng.randint(-b, b) for _ in range(n)] for _ in range(n)]
        a = [[rng.randint(-b, b) for _ in range(n)] for _ in range(n)]
        for x in range(n + 1):
            if _integer_det([[x * ei - ai for ei, ai in zip(er, ar)] for er, ar in zip(e, a)]):
                op = Op(
                    kind="dense",
                    argv=[],
                    n=n,
                    e_rows=[[q(v) for v in r] for r in e],
                    a_rows=[[q(v) for v in r] for r in a],
                )
                work = _gaussian_divisor_count(_integer_det(e)) * _gaussian_divisor_count(_integer_det(a))
                return op, work


_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _gaussian_divisor_count(m: int) -> int:
    """Gaussian-integer divisors of m, counting a cofactor above 10^6 as one prime."""
    m = abs(m)
    if m == 0:
        return 1
    count = 1
    for p in _SMALL_PRIMES:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            count *= 2 * e + 1 if p == 2 else e + 1 if p % 4 == 3 else (e + 1) ** 2
    if m > 1:
        count *= 2 if m > 10**6 or m % 4 == 3 else 4
    return count


def _dense_ops(seed: int, n: int) -> list[Op]:
    """ANALYZE_PER_SIZE dense pencils of size n, stratified by root-search work.

    Root search on a dense pencil tries pairs of Gaussian divisors of the
    leading and trailing coefficients, so its cost spans two orders of
    magnitude between pencils of one size.  Drawing DENSE_CANDIDATES times
    as many pencils, sorting them by that divisor product and keeping one
    at random from each consecutive group gives every seed the same mix of
    cheap and expensive searches, the expensive ones included.
    """
    rng = random.Random(f"analyze:{seed}:dense:{n}")
    drawn = [_dense(rng, n) for _ in range(ANALYZE_PER_SIZE * DENSE_CANDIDATES)]
    ranked = [op for op, _ in sorted(drawn, key=lambda drawn_op: drawn_op[1])]
    groups = [ranked[i : i + DENSE_CANDIDATES] for i in range(0, len(ranked), DENSE_CANDIDATES)]
    return [rng.choice(group) for group in groups]


def _verify_ops(workload: str, seed: int) -> list[Op]:
    suite, count, trials = {
        "bounds": ("perturbation_bounds", BOUNDS_OPS, BOUNDS_TRIALS),
        "weyr": ("weyr_equality", WEYR_OPS, WEYR_TRIALS),
    }[workload]
    rng = random.Random(f"{workload}:{seed}")
    seeds = rng.sample(range(2**31), count)
    return [
        Op(
            kind="verify",
            argv=[
                "verify", "--suite", suite, "--trials", str(trials), "--seed", str(s),
                "--max-dim", str(MAX_DIM), "--format", "json",
            ],
            trials=trials,
            seed=s,
        )
        for s in seeds
    ]


def _analyze_ops(seed: int, out_dir: str) -> list[Op]:
    """Planted and dense pencils alternating, sizes cycling 4..12, files written to out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    dense = {n: _dense_ops(seed, n) for n in ANALYZE_SIZES}
    ops = []
    for rep in range(ANALYZE_PER_SIZE):
        for n in ANALYZE_SIZES:
            planted = _planted(random.Random(f"analyze:{seed}:planted:{n}:{rep}"), n)
            for op in (planted, dense[n][rep]):
                path = os.path.join(out_dir, f"{op.kind}-n{n}-{rep}.json")
                record = {
                    "n": n,
                    "E": [[format_scalar(z) for z in r] for r in op.e_rows],
                    "A": [[format_scalar(z) for z in r] for r in op.a_rows],
                }
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(record, fh)
                op.argv = ["analyze", "--pencil", path, "--format", "json"]
                ops.append(op)
    return ops


def build_ops(workload: str, seed: int, out_dir: str) -> list[Op]:
    if workload == "analyze":
        return _analyze_ops(seed, out_dir)
    return _verify_ops(workload, seed)
