"""Polynomial ring operations and interpolated pencil determinants."""

import itertools
import random

import pytest

from weyrlab.errors import DimensionMismatch
from weyrlab.linalg import Matrix
from weyrlab.polynomials import (
    Polynomial,
    pencil_det_poly,
    poly_gcd,
    squarefree_decomposition,
    squarefree_part,
)
from weyrlab.scalars import gr


def random_poly(rng, max_deg=4, bound=3):
    return Polynomial.from_coeffs([gr(rng.randint(-bound, bound)) for _ in range(rng.randint(0, max_deg + 1))])


def leibniz_det(p_mat: Matrix, q_mat: Matrix) -> Polynomial:
    """Independent oracle: det(x p - q) by the permutation-sum formula."""
    n = p_mat.rows
    total = Polynomial.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        term = Polynomial.constant(gr(sign))
        for i in range(n):
            term = term * Polynomial.from_coeffs([-q_mat.at(i, perm[i]), p_mat.at(i, perm[i])])
        total = total + term
    return total


def test_normal_form():
    assert Polynomial.from_coeffs([1, 2, 0, 0]) == Polynomial.from_coeffs([1, 2])
    assert Polynomial.from_coeffs([0]).is_zero
    assert Polynomial.zero().degree == -1
    assert Polynomial.from_coeffs([3]).degree == 0


def test_arithmetic_and_divmod():
    rng = random.Random(3)
    for _ in range(120):
        a, b = random_poly(rng), random_poly(rng)
        if b.is_zero:
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree
    x = Polynomial.from_coeffs([0, 1])
    assert (x + Polynomial.one()) * (x - Polynomial.one()) == Polynomial.from_coeffs([-1, 0, 1])


def test_evaluate_horner():
    p = Polynomial.from_coeffs([1, -2, 1])  # (x-1)^2
    assert p.evaluate(gr(1)).is_zero
    assert p.evaluate(gr(3)) == gr(4)
    d = gr(0, 1) - gr(1)
    assert p.evaluate(gr(0, 1)) == d * d


def test_gcd_contains_common_factor():
    rng = random.Random(9)
    for _ in range(60):
        f, g, h = random_poly(rng, 2), random_poly(rng, 2), random_poly(rng, 2)
        if f.is_zero or g.is_zero or h.is_zero:
            continue
        d = poly_gcd(f * g, f * h)
        # f divides the gcd of (fg, fh)
        assert d.divmod(f.monic())[1].is_zero
    assert poly_gcd(Polynomial.zero(), Polynomial.zero()).is_zero


def test_squarefree_decomposition_reconstructs():
    rng = random.Random(13)
    for _ in range(40):
        p = Polynomial.one()
        for mult in (1, 2, 3):
            f = random_poly(rng, 2)
            if f.degree >= 1:
                p = p * f ** mult
        if p.is_constant:
            continue
        lead, factors = squarefree_decomposition(p)
        rebuilt = Polynomial.constant(lead)
        for f, mult in factors:
            assert poly_gcd(f, f.derivative()).is_constant  # square-free
            rebuilt = rebuilt * f ** mult
        assert rebuilt == p
    sf = squarefree_part(Polynomial.from_coeffs([1, -2, 1]))  # (x-1)^2
    assert sf == Polynomial.from_coeffs([-1, 1])


def test_pencil_det_examples():
    i2 = Matrix.identity(2)
    j2 = Matrix.from_rows([[0, 1], [0, 0]])
    # cofactor oracle: det([[x, -1], [0, x]]) = x^2
    assert pencil_det_poly(i2, j2) == Polynomial.from_coeffs([0, 0, 1])
    assert pencil_det_poly(Matrix.zeros(2, 2), i2) == Polynomial.one()
    # det([[x-1, 0], [0, -1]]) = -(x-1)
    assert pencil_det_poly(Matrix.from_rows([[1, 0], [0, 0]]), i2) == Polynomial.from_coeffs([1, -1])
    with pytest.raises(DimensionMismatch):
        pencil_det_poly(Matrix.zeros(2, 3), Matrix.zeros(2, 3))


def test_pencil_det_against_leibniz_oracle():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 4)
        p = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        q = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        assert pencil_det_poly(p, q) == leibniz_det(p, q)


def test_pencil_det_matches_sympy():
    # Gaussian entries and a singular E (one row of E is a combination of
    # the others), so the degree drops below n and infinity is an eigenvalue.
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    x = sympy.Symbol("x")
    rng = random.Random(23)

    def draw():
        return gr(rng.randint(-3, 3), rng.randint(-3, 3))

    def to_sympy(c):
        return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
            c.im.numerator, c.im.denominator
        )

    for n in [1, 2, 3, 4, 5, 6, 7, 7]:
        e_rows = [[draw() for _ in range(n)] for _ in range(n)]
        r = rng.randrange(n)
        weights = [draw() for _ in range(n)]
        e_rows[r] = [sum((weights[i] * e_rows[i][j] for i in range(n) if i != r), gr(0)) for j in range(n)]
        e = Matrix.from_rows(e_rows)
        a = Matrix.from_rows([[draw() for _ in range(n)] for _ in range(n)])
        m = sympy.Matrix(n, n, lambda i, j: x * to_sympy(e.at(i, j)) - to_sympy(a.at(i, j)))
        dm = DomainMatrix.from_Matrix(m)
        expected = sympy.Poly(dm.domain.to_sympy(dm.det()), x).all_coeffs()[::-1]
        det = pencil_det_poly(e, a)
        assert det.degree < n
        assert [to_sympy(c) for c in det.coeffs] == expected


def test_poly_str_is_stable():
    p = Polynomial.from_coeffs([gr(1), gr(0), gr(-2, 1)])
    assert str(p) == "1 + (-2+1*i)*x^2"
    assert str(Polynomial.zero()) == "0"
