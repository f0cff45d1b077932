"""Regular operator pencils x*E - A in finite dimension.

Provides the kernel and range representations as linear relations, the
resolvent-based forms of both, Jordan-chain root subspaces via the
staircase iteration, Weyr tables, the exact spectrum over Q(i), and a
Weierstrass-form generator for test pencils.

`root_chain` runs the staircase once per point, and `root_subspace` and
`weyr_table` are read from that chain.  The staircase here and the
relation composition in relations.py are deliberately independent routes
to the same subspaces; the test suites require them to agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionMismatch, NotRegularError, NotResolventPointError, SingularMatrixError
from .linalg import (
    Matrix,
    Subspace,
    column_space,
    map_image,
    map_preimage,
    matrix_inverse,
    null_space,
    rref,
)
from .polynomials import Polynomial, pencil_det_poly
from .relations import LinearRelation, SpectrumReport, WeyrTable, chain_level
from .scalars import INF, ExtendedScalar, GaussianRational, Infinity, gr, lex_key

__all__ = ["OperatorPencil", "CanonicalSpec", "jordan_block"]


@dataclass(frozen=True)
class CanonicalSpec:
    """Weierstrass-form blocks of a test pencil: (point, size) pairs, INF marking an infinite block."""

    blocks: tuple[tuple[ExtendedScalar, int], ...]

    def __post_init__(self):
        if any(s <= 0 for _, s in self.blocks):
            raise ValueError("block sizes must be positive")

    @property
    def total_size(self) -> int:
        return sum(s for _, s in self.blocks)

    def eigenvalue_points(self) -> tuple[ExtendedScalar, ...]:
        """Block points in first-seen order, INF last."""
        first_seen = dict.fromkeys(v for v, _ in self.blocks)
        return tuple(sorted(first_seen, key=lambda v: isinstance(v, Infinity)))

    def expected_weyr_indices(self, at: ExtendedScalar) -> tuple[int, ...]:
        """Planted Weyr table: w_k counts blocks of size >= k at this point."""
        sizes = [s for v, s in self.blocks if v == at]
        return tuple(sum(s >= k for s in sizes) for k in range(1, max(sizes, default=0) + 1))


def jordan_block(value: GaussianRational, size: int) -> Matrix:
    """size x size upper Jordan block with the given diagonal value."""
    rows = [
        [value if i == j else (gr(1) if j == i + 1 else gr(0)) for j in range(size)]
        for i in range(size)
    ]
    return Matrix.from_rows(rows)


def _block_diag(blocks: list[Matrix]) -> Matrix:
    n = sum(b.rows for b in blocks)
    out = [[gr(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[off + i][off + j] = b.at(i, j)
        off += b.rows
    return Matrix.from_rows(out)


@dataclass(frozen=True)
class OperatorPencil:
    """The pencil x * e_mat - a_mat on F^n."""

    n: int
    e_mat: Matrix
    a_mat: Matrix

    def __post_init__(self):
        if self.n <= 0:
            raise DimensionMismatch("pencil dimension must be positive")
        for m in (self.e_mat, self.a_mat):
            if (m.rows, m.cols) != (self.n, self.n):
                raise DimensionMismatch("pencil matrices must be n x n")

    @staticmethod
    def from_matrices(e_mat: Matrix, a_mat: Matrix) -> OperatorPencil:
        return OperatorPencil(e_mat.rows, e_mat, a_mat)

    @cached_property
    def det_poly(self) -> Polynomial:
        return pencil_det_poly(self.e_mat, self.a_mat)

    @property
    def is_regular(self) -> bool:
        return not self.det_poly.is_zero

    def _require_regular(self):
        if not self.is_regular:
            raise NotRegularError("pencil is not regular (det(x E - A) vanishes identically)")

    def at_point(self, lam: GaussianRational) -> Matrix:
        """The matrix lam * E - A."""
        return self.e_mat.scale(lam) - self.a_mat

    def resolvent_point(self, at: ExtendedScalar) -> bool:
        if isinstance(at, Infinity):
            return self.det_poly.degree == self.n
        return bool(self.det_poly.evaluate(at))

    # -- representations -----------------------------------------------------

    def kernel_representation(self) -> LinearRelation:
        """E^{-1} A = ker [A, -E]: pairs (x, z) with A x = E z."""
        return LinearRelation(self.n, self.n, null_space(self.a_mat.hstack(-self.e_mat)))

    def range_representation(self) -> LinearRelation:
        """A E^{-1} = ran [E ; A]: pairs (E y, A y)."""
        return LinearRelation(self.n, self.n, column_space(self.e_mat.vstack(self.a_mat)))

    def _resolvent_factor(self, mu: GaussianRational) -> Matrix:
        if not self.resolvent_point(mu):
            raise NotResolventPointError(f"{mu} is not a resolvent point of the pencil")
        return matrix_inverse(self.a_mat - self.e_mat.scale(mu))

    def resolvent_form_range(self, mu: GaussianRational, lam: GaussianRational) -> LinearRelation:
        """A E^{-1} - lam as ran [E(A - mu E)^{-1} ; I + (mu - lam) E(A - mu E)^{-1}]."""
        ef = self.e_mat * self._resolvent_factor(mu)
        mixed = Matrix.identity(self.n) + ef.scale(mu - lam)
        return LinearRelation(self.n, self.n, column_space(ef.vstack(mixed)))

    def resolvent_form_kernel(self, mu: GaussianRational, lam: GaussianRational) -> LinearRelation:
        """E^{-1} A - lam as ker [I + (mu - lam)(A - mu E)^{-1} E, -(A - mu E)^{-1} E]."""
        fe = self._resolvent_factor(mu) * self.e_mat
        mixed = Matrix.identity(self.n) + fe.scale(mu - lam)
        return LinearRelation(self.n, self.n, null_space(mixed.hstack(-fe)))

    # -- Jordan chains and Weyr characteristic -------------------------------

    def _chain_maps(self, at: ExtendedScalar) -> tuple[Matrix, Matrix]:
        """(step, feed) with S_1 = ker step and S_{j+1} = step^{-1}(feed S_j)."""
        if isinstance(at, Infinity):
            return self.e_mat, self.a_mat
        return self.a_mat - self.e_mat.scale(at), self.e_mat

    def root_chain(self, at: ExtendedScalar) -> list[Subspace]:
        """Endpoints of Jordan chains of length <= k, for k = 1.. until stabilization."""
        step, feed = self._chain_maps(at)
        spaces: list[Subspace] = []
        space = null_space(step)
        prev = 0
        for _ in range(self.n):
            if space.dim == prev:
                break
            spaces.append(space)
            prev = space.dim
            space = map_preimage(step, map_image(feed, space))
        return spaces

    def root_subspace(self, at: ExtendedScalar, k: int) -> Subspace:
        """S_k of the staircase chain at the given point; zero for k <= 0."""
        return chain_level(self.root_chain(at), k, Subspace.zero(self.n))

    def weyr_table(self, at: ExtendedScalar) -> WeyrTable:
        """Weyr characteristic from the Jordan-chain staircase iteration."""
        self._require_regular()
        return WeyrTable.from_chain(at, self.root_chain(at))

    # -- spectrum -------------------------------------------------------------

    def spectrum(self) -> SpectrumReport:
        return self._spectrum

    @cached_property
    def _spectrum(self) -> SpectrumReport:
        self._require_regular()
        return SpectrumReport.from_det(self.det_poly, self.n)

    def fredholm_data(self, at: ExtendedScalar) -> tuple[int, int]:
        """(dim ker, codim ran) of lam E - A, of E itself at infinity."""
        self._require_regular()
        m = self.e_mat if isinstance(at, Infinity) else self.at_point(at)
        rank = rref(m)[2]
        return self.n - rank, self.n - rank

    # -- generators ------------------------------------------------------------

    @staticmethod
    def from_canonical(spec: CanonicalSpec) -> OperatorPencil:
        """Weierstrass assembly, finite blocks first: finite (I, J(value)); infinite (J(0), I)."""
        if not spec.blocks:
            raise ValueError("canonical description needs at least one block")
        e_blocks: list[Matrix] = []
        a_blocks: list[Matrix] = []
        for value, size in sorted(spec.blocks, key=lambda b: isinstance(b[0], Infinity)):
            identity = Matrix.identity(size)
            if isinstance(value, Infinity):
                e_blocks.append(jordan_block(gr(0), size))
                a_blocks.append(identity)
            else:
                e_blocks.append(identity)
                a_blocks.append(jordan_block(value, size))
        return OperatorPencil.from_matrices(_block_diag(e_blocks), _block_diag(a_blocks))

    def apply_equivalence(self, s_mat: Matrix, t_mat: Matrix) -> OperatorPencil:
        """(E, A) -> (S E T, S A T); spectrum and Weyr tables are invariant."""
        for name, m in (("S", s_mat), ("T", t_mat)):
            if (m.rows, m.cols) != (self.n, self.n):
                raise DimensionMismatch(f"{name} must be n x n")
            if rref(m)[2] != self.n:
                raise SingularMatrixError(f"{name} is singular")
        return OperatorPencil(self.n, s_mat * self.e_mat * t_mat, s_mat * self.a_mat * t_mat)


def sorted_points(points) -> list[ExtendedScalar]:
    """Deterministic order: finite values lexicographically, infinity last."""
    finite = sorted((p for p in points if not isinstance(p, Infinity)), key=lex_key)
    has_inf = any(isinstance(p, Infinity) for p in points)
    return finite + ([INF] if has_inf else [])
