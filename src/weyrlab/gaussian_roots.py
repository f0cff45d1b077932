"""Exact enumeration of the Q(i) roots of a polynomial.

One search serves every degree.  After clearing denominators, a square-free
factor f has Gaussian-integer coefficients f_j with leading coefficient c,
and for every root r in Q(i) the product z = c*r is a Gaussian integer
with |z| <= B = |c| + max |f_j| (Cauchy's bound).  The search reads z off
its residues modulo a power of a rational prime p = 3 (mod 4) (Loos,
"Computing rational zeros of integral polynomials by p-adic expansion",
SIAM J. Comput. 12, 1983):

- such a p stays prime in Z[i], so Z[i]/(p) is the field with p^2
  elements, and the roots of f mod p are found by trying all p^2 residues;
- p is skipped when it divides c, or when a root mod p is also a root of
  f' mod p.  Only the finitely many primes dividing c or the discriminant
  can fail, so the primes 3, 7, 11, 19, ... in turn soon give a usable one;
- each simple root mod p has exactly one Newton lift modulo p, p^2, p^4,
  ..., and once the modulus m exceeds 2B the symmetric residues of c*r
  mod m are the real and imaginary parts of z.

A root mod p need not be the residue of a root in Q(i): the lift of a root
of an irreducible factor of higher degree gives some z as well.  So each
candidate z/c is verified by exact evaluation, and only exact zeros are
returned.  Roots outside Q(i) are never approximated; they stay inside the
returned residual polynomial.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .errors import ZeroPolynomialError
from .polynomials import Polynomial, squarefree_decomposition
from .scalars import GaussianRational, gr, lex_key

__all__ = ["gaussian_rational_roots"]

GInt = tuple[int, int]  # a + b*i with integer a, b


def _mul(a: GInt, b: GInt, m: int) -> GInt:
    return ((a[0] * b[0] - a[1] * b[1]) % m, (a[0] * b[1] + a[1] * b[0]) % m)


def _eval(coeffs: list[GInt], z: GInt, m: int) -> GInt:
    """Horner evaluation modulo m; coefficients lowest degree first."""
    acc = (0, 0)
    for c in reversed(coeffs):
        re, im = _mul(acc, z, m)
        acc = ((re + c[0]) % m, (im + c[1]) % m)
    return acc


def _inert_primes() -> Iterator[int]:
    """The rational primes p = 3 (mod 4) in increasing order."""
    p = 3
    while True:
        if all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 4


def _simple_roots_mod_p(coeffs: list[GInt], deriv: list[GInt]) -> tuple[int, list[GInt]]:
    """The first usable inert prime p and all roots of coeffs mod p, each simple."""
    lead = coeffs[-1]
    for p in _inert_primes():
        if lead[0] % p == 0 and lead[1] % p == 0:
            continue
        roots = [(a, b) for a in range(p) for b in range(p) if _eval(coeffs, (a, b), p) == (0, 0)]
        if all(_eval(deriv, r, p) != (0, 0) for r in roots):
            return p, roots


def _lift(coeffs: list[GInt], deriv: list[GInt], r: GInt, p: int, bound: int) -> tuple[GInt, int]:
    """Newton-lift a simple root r mod p to a root mod m > 2 * bound; returns (root, m)."""
    m = p
    while m <= 2 * bound:
        m *= m
        a, b = _eval(deriv, r, m)
        n_inv = pow(a * a + b * b, -1, m)  # 1/(a + bi) = (a - bi)/(a^2 + b^2)
        step = _mul(_eval(coeffs, r, m), (a * n_inv, -b * n_inv), m)
        r = ((r[0] - step[0]) % m, (r[1] - step[1]) % m)
    return r, m


def _roots_of_squarefree(f: Polynomial) -> list[GaussianRational]:
    """All Q(i) roots of a square-free nonconstant f."""
    denom = math.lcm(*(x.denominator for c in f.coeffs for x in (c.re, c.im)))
    coeffs = [(int(c.re * denom), int(c.im * denom)) for c in f.coeffs]
    deriv = [(k * a, k * b) for k, (a, b) in enumerate(coeffs)][1:]
    lead = coeffs[-1]
    # |a| + |b| >= |a + bi|, so this integer is at least B.
    bound = abs(lead[0]) + abs(lead[1]) + max(abs(a) + abs(b) for a, b in coeffs)
    p, residues = _simple_roots_mod_p(coeffs, deriv)
    roots = []
    for r in residues:
        r, m = _lift(coeffs, deriv, r, p, bound)
        re, im = (v - m if 2 * v > m else v for v in _mul(lead, r, m))
        cand = gr(re, im) / gr(*lead)
        if f.evaluate(cand).is_zero:
            roots.append(cand)
    return roots


def gaussian_rational_roots(
    p: Polynomial,
) -> tuple[tuple[tuple[GaussianRational, int], ...], Polynomial]:
    """All roots of p in Q(i) with multiplicities, plus the rootless residual.

    The identity p = prod (x - r_i)^{m_i} * residual holds exactly; the
    residual keeps p's leading scale and has no roots in Q(i).
    """
    if p.is_zero:
        raise ZeroPolynomialError("cannot extract roots of the zero polynomial")
    roots: list[tuple[GaussianRational, int]] = []
    zero_mult = next(k for k, c in enumerate(p.coeffs) if c)
    if zero_mult:
        roots.append((gr(0), zero_mult))
        p = Polynomial(p.coeffs[zero_mult:])
    lead, factors = squarefree_decomposition(p)
    residual = Polynomial.constant(lead)
    for f, mult in factors:
        found = _roots_of_squarefree(f)
        for r in found:
            roots.append((r, mult))
            f = f.exact_div(Polynomial.linear_root(r))
        if f.degree > 0:
            residual = residual * f**mult
    roots.sort(key=lambda rm: lex_key(rm[0]))
    return tuple(roots), residual
