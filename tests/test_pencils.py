"""Operator pencils: regularity, representations, chains, Weyr, spectrum."""

import random
from fractions import Fraction

import pytest

from weyrlab.errors import NotRegularError, NotResolventPointError, SingularMatrixError
from weyrlab.linalg import Matrix, Subspace, vector
from weyrlab.pencils import CanonicalSpec, OperatorPencil, jordan_block, sorted_points
from weyrlab.polynomials import Polynomial
from weyrlab.relations import LinearRelation
from weyrlab.scalars import INF, gr

I2 = Matrix.identity(2)
J2 = jordan_block(gr(0), 2)
J3 = jordan_block(gr(0), 3)


def pencil(e_rows, a_rows):
    return OperatorPencil.from_matrices(Matrix.from_rows(e_rows), Matrix.from_rows(a_rows))


def random_regular_pencil(rng, n, bound=3):
    while True:
        p = OperatorPencil.from_matrices(
            Matrix.from_rows([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]),
            Matrix.from_rows([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]),
        )
        if p.is_regular:
            return p


def test_regularity_and_resolvent_points():
    p = OperatorPencil.from_matrices(I2, J2)
    assert p.is_regular
    assert not p.resolvent_point(gr(0))
    assert p.resolvent_point(gr(1))
    zero = pencil([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert not zero.is_regular
    d = pencil([[1, 0], [0, 0]], [[1, 0], [0, 1]])
    assert d.is_regular
    assert not d.resolvent_point(INF)
    assert OperatorPencil.from_matrices(I2, J2).resolvent_point(INF)


def test_representations_invertible_e():
    t = Matrix.from_rows([[1, 2], [3, 4]])
    p = OperatorPencil.from_matrices(I2, t)
    assert p.kernel_representation() == LinearRelation.from_graph(t)
    assert p.range_representation() == LinearRelation.from_graph(t)


def test_kernel_representation_with_singular_e():
    p = pencil([[1, 0], [0, 0]], [[1, 0], [0, 1]])
    kr = p.kernel_representation()
    # pairs ((y1, 0), (y1, y2)): dimension 2, multivalued part span{e2}
    assert kr.span.dim == 2
    assert kr == LinearRelation(2, 2, Subspace.from_spanning(4, [(1, 0, 1, 0), (0, 0, 0, 1)]))
    assert kr.mul_part() == Subspace.from_spanning(2, [vector([0, 1])])


def test_representations_of_zero_pencil():
    zero = pencil([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert zero.range_representation() == LinearRelation(2, 2, Subspace.zero(4))
    assert zero.kernel_representation() == LinearRelation(2, 2, Subspace.full(4))


def test_resolvent_forms_match_shifted_representations():
    p = pencil([[1, 0], [0, 1]], [[2, 0], [0, 3]])
    assert p.resolvent_form_range(gr(0), gr(1)) == p.range_representation().shift(gr(1))
    assert p.resolvent_form_kernel(gr(0), gr(1)) == p.kernel_representation().shift(gr(1))
    # lambda = mu reduces to the shift at mu
    assert p.resolvent_form_range(gr(1), gr(1)) == p.range_representation().shift(gr(1))

    rng = random.Random(3)
    candidates = [gr(0), gr(1), gr(-1), gr(2), gr(-2), gr(0, 1), gr(3), gr(-4)]
    for _ in range(25):
        q = random_regular_pencil(rng, rng.randint(1, 4))
        mu = next(c for c in candidates if q.resolvent_point(c))
        lam = gr(rng.randint(-3, 3))
        assert q.resolvent_form_range(mu, lam) == q.range_representation().shift(lam)
        assert q.resolvent_form_kernel(mu, lam) == q.kernel_representation().shift(lam)


def test_resolvent_form_requires_resolvent_point():
    p = OperatorPencil.from_matrices(I2, J2)
    with pytest.raises(NotResolventPointError):
        p.resolvent_form_range(gr(0), gr(1))


def test_root_subspaces_nilpotent_block():
    p = OperatorPencil.from_matrices(Matrix.identity(3), J3)
    assert [p.root_subspace(gr(0), k).dim for k in (1, 2, 3)] == [1, 2, 3]
    # agrees with the relation-power oracle on the graph
    rel = LinearRelation.from_graph(J3)
    for k in (1, 2, 3):
        assert p.root_subspace(gr(0), k) == rel.root_subspace(gr(0), k)


def test_root_chain_dims_nilpotent_block():
    p = OperatorPencil.from_matrices(Matrix.identity(3), J3)
    assert [s.dim for s in p.root_chain(gr(0))] == [1, 2, 3]
    assert p.root_chain(gr(1)) == []
    assert p.root_subspace(gr(0), 0).is_zero() and p.root_subspace(gr(0), -1).is_zero()


def test_root_subspace_matches_kernel_representation_levels():
    rng = random.Random(43)
    for _ in range(12):
        n = rng.randint(1, 4)
        p = random_regular_pencil(rng, n)
        kr = p.kernel_representation()
        points = list(p.spectrum().eigenvalue_points()) + [gr(0), gr(1, 1), INF]
        for at in points:
            for k in range(0, n + 2):
                assert p.root_subspace(at, k) == kr.root_subspace(at, k)


def test_spectrum_is_cached():
    p = OperatorPencil.from_matrices(I2, J2)
    assert p.spectrum() is p.spectrum()


def test_root_subspace_chain_at_infinity():
    p = OperatorPencil.from_matrices(J2, I2)
    s1 = p.root_subspace(INF, 1)
    s2 = p.root_subspace(INF, 2)
    assert (s1.dim, s2.dim) == (1, 2)
    # chain e1, e2 per the infinity chain equations E x1 = 0, E x2 = A x1
    assert s1 == Subspace.from_spanning(2, [vector([1, 0])])
    assert s2.is_full()


def test_root_subspace_blocked_chain():
    p = pencil([[1, 0], [0, 0]], [[1, 0], [0, 1]])
    for k in (1, 2, 3):
        assert p.root_subspace(INF, k) == Subspace.from_spanning(2, [vector([0, 1])])


def test_weyr_tables():
    p = OperatorPencil.from_matrices(Matrix.identity(3), J3)
    assert p.weyr_table(gr(0)).indices == (1, 1, 1)
    d = pencil([[1, 0], [0, 0]], [[1, 0], [0, 1]])
    assert d.weyr_table(gr(1)).indices == (1,)
    assert d.weyr_table(INF).indices == (1,)
    scalar = OperatorPencil.from_matrices(Matrix.identity(1), Matrix.from_rows([[5]]))
    assert scalar.weyr_table(gr(0)).indices == ()


def test_weyr_requires_regular():
    zero = pencil([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    with pytest.raises(NotRegularError):
        zero.weyr_table(gr(0))
    with pytest.raises(NotRegularError):
        zero.spectrum()


def test_spectrum_examples():
    sp = pencil([[1, 0], [0, 1]], [[1, 0], [0, 2]]).spectrum()
    assert sp.finite_eigenvalues == ((gr(1), 1), (gr(2), 1))
    assert not sp.has_infinity
    assert sp.infinity_multiplicity == 0

    spj = OperatorPencil.from_matrices(J2, I2).spectrum()
    assert spj.finite_eigenvalues == ()
    assert spj.has_infinity and spj.infinity_multiplicity == 2
    assert OperatorPencil.from_matrices(J2, I2).det_poly == Polynomial.one()


def test_spectrum_multiplicity_budget():
    rng = random.Random(7)
    for _ in range(30):
        p = random_regular_pencil(rng, rng.randint(1, 5))
        sp = p.spectrum()
        finite = sum(m for _, m in sp.finite_eigenvalues)
        assert finite + max(sp.residual.degree, 0) + sp.infinity_multiplicity == p.n


def test_fredholm_data():
    p = OperatorPencil.from_matrices(I2, J2)
    assert p.fredholm_data(gr(0)) == (1, 1)
    assert p.fredholm_data(gr(1)) == (0, 0)
    assert p.fredholm_data(INF) == (0, 0)
    d = pencil([[1, 0], [0, 0]], [[1, 0], [0, 1]])
    assert d.fredholm_data(INF) == (1, 1)


def test_from_canonical_blocks():
    p = OperatorPencil.from_canonical(CanonicalSpec(((gr(2), 2),)))
    assert p.e_mat == I2
    assert p.a_mat == Matrix.from_rows([[2, 1], [0, 2]])

    q = OperatorPencil.from_canonical(CanonicalSpec(((INF, 2),)))
    assert (q.e_mat, q.a_mat) == (J2, I2)
    assert q.spectrum().has_infinity and q.spectrum().infinity_multiplicity == 2

    # Finite blocks are assembled first, whatever the listed order.
    mixed = [(INF, 1), (gr(2), 2), (INF, 2), (gr(0), 1)]
    finite_first = [(gr(2), 2), (gr(0), 1), (INF, 1), (INF, 2)]
    assert OperatorPencil.from_canonical(CanonicalSpec(tuple(mixed))) == OperatorPencil.from_canonical(
        CanonicalSpec(tuple(finite_first))
    )


def test_canonical_spec_validation_and_weyr_oracle():
    with pytest.raises(ValueError):
        CanonicalSpec(((gr(1), 0),))
    with pytest.raises(ValueError):
        CanonicalSpec(((INF, 0),))
    spec = CanonicalSpec(((gr(1), 3), (INF, 2), (gr(1), 1), (gr(0), 2), (INF, 1)))
    assert spec.total_size == 9
    assert spec.eigenvalue_points() == (gr(1), gr(0), INF)
    assert spec.expected_weyr_indices(gr(1)) == (2, 1, 1)
    assert spec.expected_weyr_indices(gr(0)) == (1, 1)
    assert spec.expected_weyr_indices(INF) == (2, 1)
    assert spec.expected_weyr_indices(gr(7)) == ()


def test_apply_equivalence():
    p = OperatorPencil.from_canonical(CanonicalSpec(((gr(2), 2),)))
    assert p.apply_equivalence(I2, I2) == p
    with pytest.raises(SingularMatrixError):
        p.apply_equivalence(Matrix.from_rows([[1, 1], [1, 1]]), I2)

    s = Matrix.from_rows([[1, 2], [0, 1]])
    t = Matrix.from_rows([[1, 0], [-3, 1]])
    q = p.apply_equivalence(s, t)
    assert q.spectrum().finite_eigenvalues == p.spectrum().finite_eigenvalues
    assert q.weyr_table(gr(2)).indices == p.weyr_table(gr(2)).indices
    # kernels transform by T^{-1}: dimensions are preserved at every point
    for at in (gr(2), gr(0), INF):
        assert q.weyr_table(at).indices == p.weyr_table(at).indices


def test_planted_weyr_structure_survives_equivalence():
    eigen = gr(Fraction(1, 2))
    spec = CanonicalSpec(((eigen, 2), (eigen, 2), (gr(1), 1), (INF, 2)))
    p = OperatorPencil.from_canonical(spec)
    s = Matrix.from_rows(
        [[1, 0, 0, 0, 0, 0, 0],
         [2, 1, 0, 0, 0, 0, 0],
         [0, 0, 1, 0, 0, -1, 0],
         [0, 1, 0, 1, 0, 0, 0],
         [0, 0, 0, 0, 1, 0, 0],
         [0, 0, 0, 0, 2, 1, 0],
         [1, 0, 0, 0, 0, 0, 1]]
    )
    t = Matrix.from_rows(s.columns())
    q = p.apply_equivalence(s, t)
    assert q.weyr_table(eigen).indices == spec.expected_weyr_indices(eigen) == (2, 2)
    assert q.weyr_table(INF).indices == spec.expected_weyr_indices(INF) == (1, 1)
    assert q.weyr_table(gr(1)).indices == (1,)


def test_sorted_points_is_deterministic():
    pts = sorted_points([INF, gr(1), gr(0), gr(0, 1), gr(-1)])
    assert pts == [gr(-1), gr(0), gr(0, 1), gr(1), INF]
