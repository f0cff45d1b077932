"""Matrices, RREF, and canonical subspace arithmetic."""

import random
from fractions import Fraction

import pytest

from weyrlab.errors import DimensionMismatch, SingularMatrixError
from weyrlab.linalg import (
    Matrix,
    Subspace,
    column_space,
    contains,
    determinant,
    map_image,
    map_preimage,
    matrix_inverse,
    null_space,
    outer_product,
    rref,
    subspace_intersect,
    subspace_sum,
    vector,
)
from weyrlab.scalars import gr


def random_matrix(rng, rows, cols, bound=3):
    return Matrix.from_rows([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def test_rref_identity():
    reduced, pivots, rank = rref(Matrix.identity(3))
    assert reduced == Matrix.identity(3)
    assert pivots == (0, 1, 2)
    assert rank == 3


def test_rref_rank_one_matches_minor_oracle():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    # 2x2 minor oracle: ad - bc
    minor = m.at(0, 0) * m.at(1, 1) - m.at(0, 1) * m.at(1, 0)
    assert minor.is_zero
    assert rref(m)[2] == 1


def test_rref_zero():
    assert rref(Matrix.zeros(2, 2))[2] == 0


def test_null_space_examples():
    assert null_space(Matrix.identity(2)).is_zero()
    ns = null_space(Matrix.from_rows([[1, 2]]))
    assert ns.dim == 1
    assert ns == Subspace.from_spanning(2, [vector([-2, 1])])
    assert (Matrix.from_rows([[1, 2]]) * ns.basis).is_zero()
    assert null_space(Matrix.zeros(2, 2)) == Subspace.full(2)


def test_column_space_examples():
    assert column_space(Matrix.identity(2)) == Subspace.full(2)
    assert column_space(Matrix.from_rows([[1], [0]])) == Subspace.from_spanning(2, [vector([1, 0])])
    assert column_space(Matrix.from_rows([[1, 2], [2, 4]])).dim == 1


def test_rank_nullity_random():
    rng = random.Random(5)
    for _ in range(150):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert null_space(m).dim + rref(m)[2] == m.cols


def test_subspace_canonicality_under_shuffle():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 6)
        vecs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        redundant = vecs + [[2 * x for x in v] for v in vecs] + [[0] * n]
        shuffled = redundant[:]
        rng.shuffle(shuffled)
        a = Subspace.from_spanning(n, [vector(v) for v in redundant])
        b = Subspace.from_spanning(n, [vector(v) for v in shuffled])
        assert a == b
        assert a.basis.entries == b.basis.entries


def test_intersection_example_with_membership_oracle():
    e1, e2, e3 = vector([1, 0, 0]), vector([0, 1, 0]), vector([0, 0, 1])
    u = Subspace.from_spanning(3, [e1, e2])
    v = Subspace.from_spanning(3, [e2, e3])
    w = subspace_intersect(u, v)
    assert w == Subspace.from_spanning(3, [e2])
    for b in w.basis_vectors():
        line = Subspace.from_spanning(3, [b])
        assert contains(u, line) and contains(v, line)


def test_ambient_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        subspace_sum(Subspace.full(2), Subspace.full(3))
    with pytest.raises(DimensionMismatch):
        subspace_intersect(Subspace.full(2), Subspace.zero(3))


def test_zassenhaus_dimension_identity():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randint(1, 6)
        u = Subspace.from_spanning(n, [vector([rng.randint(-3, 3) for _ in range(n)]) for _ in range(rng.randint(0, n))])
        v = Subspace.from_spanning(n, [vector([rng.randint(-3, 3) for _ in range(n)]) for _ in range(rng.randint(0, n))])
        s = subspace_sum(u, v)
        i = subspace_intersect(u, v)
        assert u.dim + v.dim == s.dim + i.dim
        assert contains(s, u) and contains(s, v)
        assert contains(u, i) and contains(v, i)


def test_map_image_and_preimage_examples():
    s = Subspace.from_spanning(2, [vector([1, 1])])
    assert map_image(Matrix.identity(2), s) == s
    assert map_preimage(Matrix.zeros(2, 2), Subspace.zero(2)) == Subspace.full(2)
    j2 = Matrix.from_rows([[0, 1], [0, 0]])
    # J2 x = (x2, 0) always lies on the first axis.
    assert map_preimage(j2, Subspace.from_spanning(2, [vector([1, 0])])) == Subspace.full(2)


def test_preimage_is_exact_solution_set():
    rng = random.Random(31)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix(rng, rows, cols)
        s = Subspace.from_spanning(rows, [vector([rng.randint(-2, 2) for _ in range(rows)]) for _ in range(rng.randint(0, 2))])
        pre = map_preimage(m, s)
        # every column of m B_pre is a combination of the columns of B_s
        assert rref(s.basis.hstack(m * pre.basis))[2] == s.dim
        # and the image of the preimage lands inside s
        assert contains(s, map_image(m, pre))


def test_matrix_inverse():
    rng = random.Random(41)
    found = 0
    while found < 25:
        m = random_matrix(rng, 3, 3)
        if rref(m)[2] < 3:
            continue
        found += 1
        assert m * matrix_inverse(m) == Matrix.identity(3)
        assert matrix_inverse(m) * m == Matrix.identity(3)
    with pytest.raises(SingularMatrixError):
        matrix_inverse(Matrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(DimensionMismatch):
        matrix_inverse(Matrix.zeros(2, 3))


def test_determinant():
    # a zero leading entry forces one row swap, which flips the sign
    assert determinant(Matrix.from_rows([[0, 1], [1, 0]])) == gr(-1)
    assert determinant(Matrix.from_rows([[0, 2, 1], [3, 1, 0], [1, 0, 0]])) == gr(-1)
    assert determinant(Matrix.from_rows([[1, 2], [2, 4]])) == gr(0)
    assert determinant(Matrix.from_rows([[gr(0, 1), 1], [1, gr(0, 1)]])) == gr(-2)
    assert determinant(Matrix.zeros(0, 0)) == gr(1)
    rng = random.Random(43)
    for _ in range(25):
        a, b = random_matrix(rng, 3, 3), random_matrix(rng, 3, 3)
        assert determinant(a * b) == determinant(a) * determinant(b)
        assert (determinant(a) == gr(0)) == (rref(a)[2] < 3)
    with pytest.raises(DimensionMismatch):
        determinant(Matrix.zeros(2, 3))


def test_outer_product():
    m = outer_product(vector([1, 2]), vector([3, 4, 5]))
    assert m == Matrix.from_rows([[3, 4, 5], [6, 8, 10]])


def test_matrix_shape_validation():
    with pytest.raises(DimensionMismatch):
        Matrix(2, 2, (gr(0),) * 3)
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix.identity(2) * Matrix.identity(3)


def test_matrix_algebra_basics():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert a * b == Matrix.from_rows([[2, 1], [4, 3]])
    assert (a + b) - b == a
    assert a.scale(gr(Fraction(1, 2))) == Matrix.from_rows([[Fraction(1, 2), 1], [Fraction(3, 2), 2]])
    assert a.hstack(b).row(0) == vector([1, 2, 0, 1])
    assert a.vstack(b).column(0) == vector([1, 3, 0, 1])
