"""Polynomials over Q(i) and determinant polynomials of matrix pencils.

The determinant of x*P - Q has degree at most n, so it is fixed by its
values at the n + 1 integer points x = 0..n.  Each value is one scalar
determinant over Q(i); Newton's divided differences interpolate them and
the Newton form is expanded to coefficients.  Every step is exact, so no
polynomial matrix is ever eliminated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, ZeroPolynomialError
from .linalg import Matrix, determinant
from .scalars import GaussianRational, as_scalar, gr

__all__ = [
    "Polynomial",
    "pencil_det_poly",
    "poly_gcd",
    "squarefree_part",
    "squarefree_decomposition",
]

_ZERO = gr(0)
_ONE = gr(1)


@dataclass(frozen=True)
class Polynomial:
    """Coefficients lowest degree first; the zero polynomial is ()."""

    coeffs: tuple[GaussianRational, ...]

    @staticmethod
    def from_coeffs(coeffs) -> Polynomial:
        cs = [as_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        return Polynomial(tuple(cs))

    @staticmethod
    def zero() -> Polynomial:
        return Polynomial(())

    @staticmethod
    def one() -> Polynomial:
        return Polynomial((_ONE,))

    @staticmethod
    def constant(c) -> Polynomial:
        return Polynomial.from_coeffs([c])

    @staticmethod
    def linear_root(r: GaussianRational) -> Polynomial:
        """The monic factor (x - r)."""
        return Polynomial((-r, _ONE))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> GaussianRational:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: Polynomial) -> Polynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial.from_coeffs(out)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __neg__(self) -> Polynomial:
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Polynomial) -> Polynomial:
        if not self.coeffs or not other.coeffs:
            return Polynomial.zero()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return Polynomial.from_coeffs(out)

    def scale(self, c: GaussianRational) -> Polynomial:
        return Polynomial.from_coeffs([c * a for a in self.coeffs])

    def evaluate(self, z: GaussianRational) -> GaussianRational:
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def divmod(self, other: Polynomial) -> tuple[Polynomial, Polynomial]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial.zero(), self
        quot = [_ZERO] * (dq + 1)
        lead_inv = _ONE / other.leading()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * lead_inv
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    if b:
                        rem[k + j] = rem[k + j] - c * b
        return Polynomial.from_coeffs(quot), Polynomial.from_coeffs(rem)

    def exact_div(self, other: Polynomial) -> Polynomial:
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ArithmeticError("polynomial division was not exact")
        return q

    def monic(self) -> Polynomial:
        if self.is_zero:
            return self
        return self.scale(_ONE / self.leading())

    def derivative(self) -> Polynomial:
        return Polynomial.from_coeffs(
            [gr(k) * c for k, c in enumerate(self.coeffs)][1:]
        )

    def __pow__(self, k: int) -> Polynomial:
        out = Polynomial.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = str(c)
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            if k == 0:
                parts.append(cs)
            elif k == 1:
                parts.append(f"{cs}*x")
            else:
                parts.append(f"{cs}*x^{k}")
        return " + ".join(parts)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return a.monic()


def squarefree_part(p: Polynomial) -> Polynomial:
    if p.is_zero:
        raise ZeroPolynomialError("square-free part of the zero polynomial")
    if p.is_constant:
        return Polynomial.one()
    return p.exact_div(poly_gcd(p, p.derivative())).monic()


def squarefree_decomposition(p: Polynomial) -> tuple[GaussianRational, list[tuple[Polynomial, int]]]:
    """Yun decomposition p = lead * prod f_i^i with monic square-free f_i.

    Pairs with trivial factors (f_i constant) are omitted.
    """
    if p.is_zero:
        raise ZeroPolynomialError("square-free decomposition of the zero polynomial")
    lead = p.leading()
    p = p.monic()
    out: list[tuple[Polynomial, int]] = []
    if p.is_constant:
        return lead, out
    dp = p.derivative()
    g = poly_gcd(p, dp)
    w = p.exact_div(g)
    y = dp.exact_div(g)
    i = 1
    while not w.is_constant:
        z = y - w.derivative()
        f = poly_gcd(w, z)
        if f.degree > 0:
            out.append((f, i))
        w = w.exact_div(f)
        y = z.exact_div(f)
        i += 1
    return lead, out


def pencil_det_poly(p_mat: Matrix, q_mat: Matrix) -> Polynomial:
    """det(x * p_mat - q_mat) as an exact polynomial."""
    if p_mat.rows != p_mat.cols or (p_mat.rows, p_mat.cols) != (q_mat.rows, q_mat.cols):
        raise DimensionMismatch("determinant pencil needs equal square matrices")
    n = p_mat.rows
    # Divided differences on the nodes 0..n: afterwards c[k] = f[0, ..., k].
    # The node matrices k * p_mat - q_mat are stepped by one addition each.
    node = -q_mat
    c = [determinant(node)]
    for _ in range(n):
        node = node + p_mat
        c.append(determinant(node))
    for j in range(1, n + 1):
        for k in range(n, j - 1, -1):
            c[k] = (c[k] - c[k - 1]) / j
    # Newton form c[0] + x (c[1] + (x - 1) (c[2] + ...)), expanded from inside.
    det = Polynomial.constant(c[n])
    for k in range(n - 1, -1, -1):
        det = det * Polynomial.from_coeffs([-k, 1]) + Polynomial.constant(c[k])
    return det
