"""Linear relation calculus, root subspaces, Weyr tables, point spectra."""

import random

import pytest

from weyrlab.errors import DimensionMismatch, NoResolventPointError, NotResolventPointError
from weyrlab.linalg import Matrix, Subspace, vector
from weyrlab.relations import LinearRelation, WeyrTable, chain_level
from weyrlab.scalars import INF, gr


def graph(rows):
    return LinearRelation.from_graph(Matrix.from_rows(rows))


J2 = [[0, 1], [0, 0]]
J3 = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]


def random_graph_relation(rng, n, bound=3):
    return graph([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


def random_relation(rng, n, bound=2):
    d = rng.randint(0, 2 * n)
    vecs = [vector([rng.randint(-bound, bound) for _ in range(2 * n)]) for _ in range(d)]
    return LinearRelation(n, n, Subspace.from_spanning(2 * n, vecs))


# -- constructors -------------------------------------------------------------

def test_graph_of_identity_is_identity_relation():
    assert graph([[1, 0], [0, 1]]) == LinearRelation.identity(2)


def test_from_pairs_canonicalizes_shuffled_redundant_spans():
    pairs = [(1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1), (2, 0, 2, 0)]
    rng = random.Random(3)
    rng.shuffle(pairs)
    assert LinearRelation(2, 2, Subspace.from_spanning(4, pairs)) == LinearRelation.identity(2)


def test_graph_span_dimension():
    assert graph(J2).span.dim == 2


def test_pair_length_validation():
    with pytest.raises(DimensionMismatch):
        LinearRelation(2, 2, Subspace.from_spanning(3, [(1, 1, 0)]))


# -- composition, inverse ------------------------------------------------------


def test_compose_with_identity():
    rng = random.Random(7)
    l = random_relation(rng, 3)
    assert LinearRelation.identity(3).compose(l) == l
    assert l.compose(LinearRelation.identity(3)) == l


def test_inverse_is_involution():
    rng = random.Random(11)
    for _ in range(20):
        l = random_relation(rng, rng.randint(1, 4))
        assert l.inverse().inverse() == l


def test_compose_zero_inverse_with_identity_graph():
    out = graph([[0, 0], [0, 0]]).inverse().compose(LinearRelation.identity(2))
    assert out == LinearRelation(2, 2, Subspace.from_spanning(4, [(0, 0, 1, 0), (0, 0, 0, 1)]))


def test_compose_dimension_check():
    with pytest.raises(DimensionMismatch):
        LinearRelation.identity(2).compose(LinearRelation.identity(3))


# -- kernel, domain, range, mul -------------------------------------------------

def test_identity_parts():
    n = 3
    i = LinearRelation.identity(n)
    assert i.kernel().is_zero()
    assert i.mul_part().is_zero()
    assert i.domain().is_full()
    assert i.range_of().is_full()


def test_mul_of_inverse_is_kernel():
    l = graph(J2)
    assert l.inverse().mul_part() == Subspace.from_spanning(2, [vector([1, 0])])


def test_purely_multivalued_element():
    l = LinearRelation(2, 2, Subspace.from_spanning(4, [(0, 0, 1, 0)]))
    assert l.domain().is_zero()
    assert l.mul_part() == Subspace.from_spanning(2, [vector([1, 0])])


def test_inverse_swaps_roles_randomized():
    rng = random.Random(13)
    for _ in range(40):
        l = random_relation(rng, rng.randint(1, 4))
        assert l.kernel() == l.inverse().mul_part()
        assert l.domain() == l.inverse().range_of()


# -- shift and power -------------------------------------------------------------

def test_shift_examples():
    rng = random.Random(17)
    l = random_relation(rng, 3)
    assert l.shift(gr(0)) == l
    assert LinearRelation.identity(2).shift(gr(1)) == graph([[0, 0], [0, 0]])
    shifted = graph([[2, 0], [0, 3]]).shift(gr(2))
    assert shifted.kernel() == Subspace.from_spanning(2, [vector([1, 0])])


def test_power_examples():
    assert LinearRelation.identity(3).power(5) == LinearRelation.identity(3)
    assert graph(J3).power(3) == graph([[0] * 3] * 3)
    rng = random.Random(19)
    for _ in range(20):
        l = random_relation(rng, rng.randint(1, 3))
        assert l.power(2) == l.compose(l)
        assert l.power(0) == LinearRelation.identity(l.dim_x)


def test_shift_requires_square():
    rect = LinearRelation(1, 2, Subspace.from_spanning(3, [(1, 0, 0)]))
    with pytest.raises(DimensionMismatch):
        rect.shift(gr(1))
    with pytest.raises(DimensionMismatch):
        rect.power(2)


# -- root subspaces and Weyr tables ----------------------------------------------

def test_root_subspace_dims_for_nilpotent_graph():
    l = graph(J3)
    assert [l.root_subspace(gr(0), k).dim for k in (1, 2, 3)] == [1, 2, 3]
    assert l.root_subspace(gr(0), 0).is_zero()


def test_root_subspace_at_infinity_of_graph_is_trivial():
    assert graph(J2).root_subspace(INF, 1).is_zero()


def test_root_subspace_of_full_relation():
    assert LinearRelation(2, 2, Subspace.full(4)).root_subspace(gr(0), 1).is_full()


def test_root_subspace_rejects_negative_k():
    with pytest.raises(ValueError):
        graph(J2).root_subspace(gr(0), -1)


def test_root_chain_matches_powers_of_shifted_relation():
    rng = random.Random(41)
    for trial in range(30):
        n = rng.randint(1, 4)
        l = random_graph_relation(rng, n) if trial % 3 == 0 else random_relation(rng, n)
        for at in (gr(0), gr(1), gr(0, 1), INF):
            chain = l.root_chain(at)
            dims = [s.dim for s in chain]
            assert dims == sorted(set(dims)) and len(chain) <= n
            base = l if at is INF else l.shift(at)
            for k in range(1, n + 2):
                power = base.power(k)
                expected = power.mul_part() if at is INF else power.kernel()
                assert l.root_subspace(at, k) == expected


def test_chain_level_rule():
    assert chain_level((1, 3), 0, 0) == 0
    assert chain_level((1, 3), -2, 0) == 0
    assert chain_level((), 4, 0) == 0
    assert chain_level((1, 3), 1, 0) == 1
    assert chain_level((1, 3), 7, 0) == 3


def test_weyr_table_from_chain():
    chain = graph(J3).root_chain(gr(0))
    assert WeyrTable.from_chain(gr(0), chain) == graph(J3).weyr_table(gr(0))
    assert WeyrTable.from_chain(gr(1), []) == WeyrTable(at=gr(1), indices=(), root_dims=())


def test_weyr_tables():
    assert graph(J3).weyr_table(gr(0)).indices == (1, 1, 1)
    assert graph(J3).weyr_table(gr(0)).root_dims == (1, 2, 3)
    assert graph(J3).weyr_table(gr(1)).indices == ()
    assert graph([[0, 0], [0, 0]]).weyr_table(gr(0)).indices == (2,)


def test_weyr_table_validation():
    with pytest.raises(ValueError):
        WeyrTable(at=gr(0), indices=(1, 2), root_dims=(1, 3))  # increasing
    with pytest.raises(ValueError):
        WeyrTable(at=gr(0), indices=(2, 1), root_dims=(2, 4))  # bad accumulation
    with pytest.raises(ValueError):
        WeyrTable(at=gr(0), indices=(1, 0), root_dims=(1, 1))  # zero index
    t = WeyrTable(at=INF, indices=(2, 2, 1), root_dims=(2, 4, 5))
    assert t.index_at(2) == 2 and t.index_at(9) == 0
    assert t.root_dim_at(1) == 2 and t.root_dim_at(10) == 5 and t.root_dim_at(0) == 0


def test_weyr_monotonicity_on_random_relations():
    rng = random.Random(23)
    for _ in range(60):
        l = random_relation(rng, rng.randint(1, 4))
        for at in (gr(0), gr(1), gr(0, 1), INF):
            table = l.weyr_table(at)
            assert all(a >= b for a, b in zip(table.indices, table.indices[1:]))


# -- singular chain space ----------------------------------------------------------

def test_singular_chain_space_examples():
    rng = random.Random(29)
    for _ in range(10):
        l = random_graph_relation(rng, 3)
        assert l.singular_chain_space().is_zero()
    assert LinearRelation(2, 2, Subspace.full(4)).singular_chain_space() == Subspace.full(2)
    pure_mul = LinearRelation(1, 1, Subspace.from_spanning(2, [(0, 1)]))
    assert pure_mul.singular_chain_space().is_zero()


def test_stabilized_intersections_agree_across_pairs():
    rng = random.Random(31)
    points = [gr(0), gr(1), gr(-1), gr(0, 1), INF]
    from weyrlab.linalg import subspace_intersect

    for _ in range(25):
        l = random_relation(rng, rng.randint(1, 4))
        rc = l.singular_chain_space()
        stab = {str(p): l.stabilized_root_subspace(p) for p in points}
        for a in range(len(points)):
            for b in range(a + 1, len(points)):
                got = subspace_intersect(stab[str(points[a])], stab[str(points[b])])
                assert got == rc
        if any(l.is_resolvent_point(p) for p in points):
            assert rc.is_zero()


# -- resolvent points and point spectrum --------------------------------------------

def test_resolvent_point_examples():
    l = graph(J2)
    # det(J2 - 1*I) = 1 by direct 2x2 expansion, so 1 is a resolvent point
    assert l.is_resolvent_point(gr(1))
    assert not l.is_resolvent_point(gr(0))
    rng = random.Random(37)
    for _ in range(10):
        assert random_graph_relation(rng, 3).is_resolvent_point(INF)


def test_point_spectrum_of_diagonal_graph():
    ps = graph([[1, 0], [0, 2]]).point_spectrum()
    assert ps.finite_eigenvalues == ((gr(1), 1), (gr(2), 1))
    assert not ps.has_infinity and ps.infinity_multiplicity == 0
    assert ps.residual.is_constant


def test_point_spectrum_of_pure_mul():
    ps = LinearRelation(1, 1, Subspace.from_spanning(2, [(0, 1)])).point_spectrum()
    assert ps.finite_eigenvalues == ()
    assert ps.has_infinity and ps.infinity_multiplicity == 1


def test_point_spectrum_of_rotation_has_imaginary_pair():
    ps = graph([[0, -1], [1, 0]]).point_spectrum()
    assert set(ps.eigenvalue_points()) == {gr(0, 1), gr(0, -1)}
    assert not ps.has_infinity


def test_point_spectrum_requires_resolvent_point():
    with pytest.raises(NoResolventPointError):
        LinearRelation(1, 1, Subspace.full(2)).point_spectrum()  # span dim 2 > ambient 1
    # span dim matches but the spanning pencil is identically singular
    singular = LinearRelation(2, 2, Subspace.from_spanning(4, [(1, 0, 1, 0), (1, 0, -1, 0)]))
    assert singular.span.dim == 2
    with pytest.raises(NoResolventPointError):
        singular.point_spectrum()


def test_resolvent_consistency_excludes_spectrum():
    rng = random.Random(41)
    for _ in range(25):
        l = random_graph_relation(rng, rng.randint(1, 4))
        ps = l.point_spectrum()
        for lam in ps.eigenvalue_points():
            assert not l.is_resolvent_point(lam)
        for mu in (gr(9), gr(10, 1)):
            if l.is_resolvent_point(mu):
                assert mu not in ps.eigenvalue_points()


# -- resolvent representations --------------------------------------------------------

def test_representation_identities_explicit():
    l = graph([[2, 0], [0, 3]])
    via_range, via_kernel = l.resolvent_representations(gr(0), gr(1))
    # the resolvent at 0 is the graph of diag(1/2, 1/3); both assemblies
    # must reproduce the shift by 1
    assert via_range == l.shift(gr(1))
    assert via_kernel == l.shift(gr(1))


def test_representation_identities_lambda_equals_mu():
    l = graph([[2, 0], [0, 3]])
    via_range, via_kernel = l.resolvent_representations(gr(1), gr(1))
    assert via_range == via_kernel == l.shift(gr(1))


def test_representation_identities_scalar_case():
    l = LinearRelation.identity(1)
    # resolvent at 2 is multiplication by -1
    assert l.shift(gr(2)).inverse().as_operator_matrix() == Matrix.from_rows([[-1]])
    via_range, via_kernel = l.resolvent_representations(gr(2), gr(0))
    assert via_range == l and via_kernel == l


def test_representation_identities_randomized():
    rng = random.Random(43)
    candidates = [gr(0), gr(1), gr(-1), gr(2), gr(-2), gr(0, 1), gr(3), gr(-3)]
    for _ in range(40):
        l = random_graph_relation(rng, rng.randint(1, 4))
        mu = next(c for c in candidates if l.is_resolvent_point(c))
        lam = gr(rng.randint(-3, 3), rng.randint(-1, 1))
        via_range, via_kernel = l.resolvent_representations(mu, lam)
        assert via_range == via_kernel == l.shift(lam)


def test_representation_rejects_non_resolvent_mu():
    with pytest.raises(NotResolventPointError):
        graph(J2).resolvent_representations(gr(0), gr(1))
