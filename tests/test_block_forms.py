"""Block-matrix subspace and relation operations against per-vector formulas.

Each operation in linalg and relations is one block-matrix expression and
one canonical elimination.  The oracles below build the same spans one
basis vector at a time, so the two routes must give value-equal canonical
subspaces, zero spans, zero ambient spaces and empty kernels included.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weyrlab.linalg import (
    Matrix,
    Subspace,
    map_image,
    map_preimage,
    null_space,
    subspace_intersect,
    subspace_sum,
)
from weyrlab.relations import LinearRelation
from weyrlab.scalars import gr

# Derandomized and without an example database, so every run of the suite
# draws the same examples.
FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)

SCALAR = st.builds(gr, st.integers(-2, 2), st.sampled_from((0, 0, 0, 1, -1)))
DIM = st.integers(0, 3)


def subspaces(n):
    vectors = st.lists(st.lists(SCALAR, min_size=n, max_size=n), max_size=4)
    return vectors.map(lambda vs: Subspace.from_spanning(n, vs))


def matrices(rows, cols):
    entries = st.lists(SCALAR, min_size=rows * cols, max_size=rows * cols)
    return entries.map(lambda e: Matrix(rows, cols, tuple(e)))


def relations(dim_x, dim_y):
    return subspaces(dim_x + dim_y).map(lambda s: LinearRelation(dim_x, dim_y, s))


@st.composite
def composable_pairs(draw):
    a, b, c = draw(DIM), draw(DIM), draw(DIM)
    return draw(relations(b, c)), draw(relations(a, b))


@st.composite
def maps_and_subspaces(draw):
    rows, cols = draw(DIM), draw(DIM)
    return draw(matrices(rows, cols)), draw(subspaces(cols)), draw(subspaces(rows))


@st.composite
def subspace_pairs(draw):
    n = draw(DIM)
    return draw(subspaces(n)), draw(subspaces(n))


# -- per-vector oracles ------------------------------------------------------


def apply(m, v):
    return tuple(sum((m.at(i, k) * v[k] for k in range(m.cols)), gr(0)) for i in range(m.rows))


def oracle_map_image(m, s):
    return Subspace.from_spanning(m.rows, [apply(m, b) for b in s.basis_vectors()])


def oracle_map_preimage(m, s):
    if s.is_full():
        return Subspace.full(m.cols)
    ker = null_space(m.hstack(-s.basis) if s.dim else m)
    return Subspace.from_spanning(m.cols, [k[: m.cols] for k in ker.basis_vectors()])


def oracle_intersect(u, v):
    if u.is_zero() or v.is_zero():
        return Subspace.zero(u.ambient_dim)
    ker = null_space(u.basis.hstack(-v.basis))
    return Subspace.from_spanning(u.ambient_dim, [apply(u.basis, k[: u.dim]) for k in ker.basis_vectors()])


def oracle_compose(outer, inner):
    pi, qi = inner.x_block(), inner.y_block()
    po, qo = outer.x_block(), outer.y_block()
    vecs = []
    for c in null_space(qi.hstack(-po)).basis_vectors():
        vecs.append(apply(pi, c[: pi.cols]) + apply(qo, c[pi.cols :]))
    return LinearRelation(inner.dim_x, outer.dim_y, Subspace.from_spanning(inner.dim_x + outer.dim_y, vecs))


def oracle_inverse(rel):
    vecs = [v[rel.dim_x :] + v[: rel.dim_x] for v in rel.span.basis_vectors()]
    return LinearRelation(rel.dim_y, rel.dim_x, Subspace.from_spanning(rel.dim_x + rel.dim_y, vecs))


def oracle_shift(rel, lam):
    n = rel.dim_x
    vecs = [v[:n] + tuple(y - lam * x for x, y in zip(v[:n], v[n:])) for v in rel.span.basis_vectors()]
    return LinearRelation(n, n, Subspace.from_spanning(2 * n, vecs))


# -- block forms against the oracles -----------------------------------------

LINE = Subspace.from_spanning(2, [(1, 1)])  # graph of the 1x1 identity


@FUZZ
@given(composable_pairs())
@example((LinearRelation(1, 2, Subspace.zero(3)), LinearRelation(2, 1, Subspace.zero(3))))  # zero spans
@example((LinearRelation(1, 2, Subspace.zero(3)), LinearRelation(1, 1, LINE)))  # ker [Q_i | -P_o] = 0
@example((LinearRelation(0, 2, Subspace.full(2)), LinearRelation(3, 0, Subspace.full(3))))
def test_compose_matches_oracle(pair):
    outer, inner = pair
    assert outer.compose(inner) == oracle_compose(outer, inner)


@FUZZ
@given(DIM.flatmap(lambda a: DIM.flatmap(lambda b: relations(a, b))))
@example(LinearRelation(2, 1, Subspace.zero(3)))
def test_inverse_matches_oracle(rel):
    assert rel.inverse() == oracle_inverse(rel)


@FUZZ
@given(DIM.flatmap(lambda n: relations(n, n)), SCALAR)
@example(LinearRelation(2, 2, Subspace.zero(4)), gr(1))
@example(LinearRelation(0, 0, Subspace.zero(0)), gr(2))
def test_shift_matches_oracle(rel, lam):
    assert rel.shift(lam) == oracle_shift(rel, lam)


@FUZZ
@given(maps_and_subspaces())
@example((Matrix.identity(2), Subspace.zero(2), Subspace.zero(2)))  # ker [I | ] = 0
@example((Matrix.zeros(0, 2), Subspace.full(2), Subspace.zero(0)))
@example((Matrix.zeros(2, 0), Subspace.zero(0), Subspace.from_spanning(2, [(1, 0)])))
def test_map_image_and_preimage_match_oracles(triple):
    m, domain_space, codomain_space = triple
    assert map_image(m, domain_space) == oracle_map_image(m, domain_space)
    assert map_preimage(m, codomain_space) == oracle_map_preimage(m, codomain_space)


@FUZZ
@given(subspace_pairs())
@example((Subspace.zero(2), Subspace.full(2)))
@example((Subspace.from_spanning(2, [(1, 0)]), Subspace.from_spanning(2, [(0, 1)])))  # 0-column intersection
@example((Subspace.zero(0), Subspace.zero(0)))
def test_intersect_and_sum_match_oracles(pair):
    u, v = pair
    assert subspace_intersect(u, v) == oracle_intersect(u, v)
    assert subspace_sum(u, v) == Subspace.from_spanning(u.ambient_dim, u.basis_vectors() + v.basis_vectors())
