"""Finite-dimensional linear relations: subspaces of F^m x F^n.

A relation is stored only through the canonical form of its span, so
relation equality is value equality.  With [P; Q] the span basis, every
operation is the column space of one block matrix (Arens' calculus):
[I; M] is the graph of M, [Q; P] the inverse, [P; Q - lam P] the shift
L - lam, and [P_i K_top; Q_o K_bottom] the composition, with [K_top;
K_bottom] a basis of the fiber-product kernel ker [Q_i | -P_o].  Root
subspaces come from one chain per point: `root_chain` composes the shifted
relation until the subspaces S_1, S_2, ... stop growing, and
`root_subspace`, the stabilized root subspace and `weyr_table` are all read
from that chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    NoResolventPointError,
    NotResolventPointError,
    WeyrlabError,
)
from .linalg import (
    Matrix,
    Subspace,
    column_space,
    map_image,
    matrix_inverse,
    null_space,
    subspace_intersect,
)
from .polynomials import Polynomial, pencil_det_poly
from .gaussian_roots import gaussian_rational_roots
from .scalars import INF, ExtendedScalar, GaussianRational, Infinity, gr

__all__ = ["LinearRelation", "WeyrTable", "SpectrumReport", "chain_level"]


@dataclass(frozen=True)
class WeyrTable:
    """Weyr characteristic at one spectral point.

    indices[k-1] = dim S^k - dim S^(k-1) for the root subspaces S^k; the
    sequence is non-increasing and stripped of trailing zeros, root_dims
    carries the cumulative dimensions up to stabilization.
    """

    at: ExtendedScalar
    indices: tuple[int, ...]
    root_dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.root_dims):
            raise ValueError("indices and root_dims must have equal length")
        prev_dim = 0
        prev_idx = None
        for w, d in zip(self.indices, self.root_dims):
            if w <= 0:
                raise ValueError("Weyr indices must be positive")
            if prev_idx is not None and w > prev_idx:
                raise ValueError("Weyr indices must be non-increasing")
            if d - prev_dim != w:
                raise ValueError("root dimensions must accumulate the indices")
            prev_idx = w
            prev_dim = d

    def index_at(self, k: int) -> int:
        """w_k, zero beyond stabilization."""
        return self.indices[k - 1] if 1 <= k <= len(self.indices) else 0

    def root_dim_at(self, k: int) -> int:
        """dim S^k, constant beyond stabilization."""
        return chain_level(self.root_dims, k, 0)

    @staticmethod
    def from_chain(at: ExtendedScalar, chain: list[Subspace]) -> WeyrTable:
        """The table of a root chain S_1, S_2, ... as returned by root_chain."""
        dims = tuple(s.dim for s in chain)
        indices = tuple(d - p for d, p in zip(dims, (0,) + dims[:-1]))
        return WeyrTable(at=at, indices=indices, root_dims=dims)


def chain_level(chain, k: int, zero):
    """Level k of a root chain: zero for k <= 0, constant beyond stabilization."""
    if k <= 0 or not chain:
        return zero
    return chain[min(k, len(chain)) - 1]


@dataclass(frozen=True)
class SpectrumReport:
    """Exact spectrum of a regular pencil or of a relation with a resolvent point.

    finite_eigenvalues pairs each Q(i) eigenvalue with its algebraic
    multiplicity; eigenvalues outside Q(i) live in the residual factor of
    the determinant polynomial and are never approximated.
    """

    finite_eigenvalues: tuple[tuple[GaussianRational, int], ...]
    residual: Polynomial
    infinity_multiplicity: int

    @staticmethod
    def from_det(det: Polynomial, n: int) -> SpectrumReport:
        """Read the spectrum off a nonzero det(x P - Q) of an n x n pencil."""
        roots, residual = gaussian_rational_roots(det)
        return SpectrumReport(roots, residual, n - det.degree)

    @property
    def has_infinity(self) -> bool:
        return self.infinity_multiplicity > 0

    def eigenvalue_points(self) -> tuple[ExtendedScalar, ...]:
        points: list[ExtendedScalar] = [v for v, _ in self.finite_eigenvalues]
        if self.has_infinity:
            points.append(INF)
        return tuple(points)


@dataclass(frozen=True)
class LinearRelation:
    """A subspace of F^dim_x x F^dim_y viewed as a multivalued map."""

    dim_x: int
    dim_y: int
    span: Subspace

    def __post_init__(self):
        if self.span.ambient_dim != self.dim_x + self.dim_y:
            raise DimensionMismatch("span ambient must be dim_x + dim_y")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_graph(m: Matrix) -> LinearRelation:
        return LinearRelation(m.cols, m.rows, column_space(Matrix.identity(m.cols).vstack(m)))

    @staticmethod
    def identity(n: int) -> LinearRelation:
        return LinearRelation.from_graph(Matrix.identity(n))

    # -- span blocks ---------------------------------------------------------

    def x_block(self) -> Matrix:
        return self.span.basis.row_slice(0, self.dim_x)

    def y_block(self) -> Matrix:
        return self.span.basis.row_slice(self.dim_x, self.dim_x + self.dim_y)

    def _require_square(self):
        if self.dim_x != self.dim_y:
            raise DimensionMismatch("operation requires a square relation")

    # -- kernel / domain / range / multivalued part -------------------------

    def kernel(self) -> Subspace:
        return map_image(self.x_block(), null_space(self.y_block()))

    def domain(self) -> Subspace:
        return column_space(self.x_block())

    def range_of(self) -> Subspace:
        return column_space(self.y_block())

    def mul_part(self) -> Subspace:
        return map_image(self.y_block(), null_space(self.x_block()))

    # -- relation algebra ----------------------------------------------------

    def compose(self, inner: LinearRelation) -> LinearRelation:
        """self after inner: {(x, z) : (x, y) in inner, (y, z) in self}."""
        if inner.dim_y != self.dim_x:
            raise DimensionMismatch("composition needs inner.dim_y == outer.dim_x")
        pi, qi = inner.x_block(), inner.y_block()
        po, qo = self.x_block(), self.y_block()
        k = null_space(qi.hstack(-po)).basis
        top, bottom = k.row_slice(0, pi.cols), k.row_slice(pi.cols, k.rows)
        return LinearRelation(inner.dim_x, self.dim_y, column_space((pi * top).vstack(qo * bottom)))

    def inverse(self) -> LinearRelation:
        return LinearRelation(self.dim_y, self.dim_x, column_space(self.y_block().vstack(self.x_block())))

    def shift(self, lam: GaussianRational) -> LinearRelation:
        """self - lam: {(x, y - lam x) : (x, y) in self}."""
        self._require_square()
        p = self.x_block()
        return LinearRelation(self.dim_x, self.dim_y, column_space(p.vstack(self.y_block() - p.scale(lam))))

    def power(self, k: int) -> LinearRelation:
        """k-fold composition; exits early once the powers stabilize."""
        self._require_square()
        if k < 0:
            raise ValueError("power requires a nonnegative exponent")
        acc = LinearRelation.identity(self.dim_x)
        for _ in range(k):
            nxt = self.compose(acc)
            if nxt == acc:
                break
            acc = nxt
        return acc

    # -- spectral structure --------------------------------------------------

    def root_chain(self, at: ExtendedScalar) -> list[Subspace]:
        """ker (self - at)^k, mul self^k at infinity, for k = 1.. until stabilization."""
        self._require_square()
        at_infinity = isinstance(at, Infinity)
        base = self if at_infinity else self.shift(at)
        spaces: list[Subspace] = []
        acc = base
        prev = 0
        for _ in range(self.dim_x):
            space = acc.mul_part() if at_infinity else acc.kernel()
            if space.dim == prev:
                break
            spaces.append(space)
            prev = space.dim
            acc = base.compose(acc)
        return spaces

    def root_subspace(self, at: ExtendedScalar, k: int) -> Subspace:
        """S_k of the root chain at the given point; zero for k = 0."""
        if k < 0:
            raise ValueError("root_subspace requires a nonnegative k")
        return chain_level(self.root_chain(at), k, Subspace.zero(self.dim_x))

    def stabilized_root_subspace(self, at: ExtendedScalar) -> Subspace:
        return chain_level(self.root_chain(at), self.dim_x, Subspace.zero(self.dim_x))

    def weyr_table(self, at: ExtendedScalar) -> WeyrTable:
        return WeyrTable.from_chain(at, self.root_chain(at))

    def singular_chain_space(self) -> Subspace:
        """Intersection of the stabilized root subspaces at 0 and infinity."""
        self._require_square()
        return subspace_intersect(
            self.stabilized_root_subspace(gr(0)),
            self.stabilized_root_subspace(INF),
        )

    def is_resolvent_point(self, at: ExtendedScalar) -> bool:
        self._require_square()
        if isinstance(at, Infinity):
            return self.mul_part().is_zero() and self.domain().is_full()
        shifted = self.shift(at)
        return shifted.kernel().is_zero() and shifted.range_of().is_full()

    def point_spectrum(self) -> SpectrumReport:
        """Eigenvalues in Q(i), infinity, and the non-Q(i) residual.

        The span [P; Q] is read as the pencil x P - Q.  Requires a relation
        with at least one resolvent point: the span must have dimension
        equal to the ambient dimension and det(x P - Q) must not vanish
        identically.  The multivalued part is nonzero exactly when P is
        singular, that is when deg det < n, so infinity is read off the
        degree.
        """
        self._require_square()
        n = self.dim_x
        d = self.span.dim
        if d != n:
            raise NoResolventPointError(
                f"span dimension {d} != ambient dimension {n}: no resolvent point exists"
            )
        det = pencil_det_poly(self.x_block(), self.y_block())
        if det.is_zero:
            raise NoResolventPointError(
                "spanning pencil has identically vanishing determinant (singular chains present)"
            )
        return SpectrumReport.from_det(det, n)

    # -- resolvent-based representations -------------------------------------

    def as_operator_matrix(self) -> Matrix:
        """The matrix of a relation that is an everywhere-defined operator graph."""
        self._require_square()
        if not self.mul_part().is_zero() or not self.domain().is_full():
            raise WeyrlabError("relation is not an everywhere-defined operator")
        return self.y_block() * matrix_inverse(self.x_block())

    def resolvent_representations(
        self, mu: GaussianRational, lam: GaussianRational
    ) -> tuple[LinearRelation, LinearRelation]:
        """(self - lam) rebuilt from the resolvent at mu, two ways.

        Returns the range form ran [R ; I + (mu - lam) R] and the kernel form
        ker [I + (mu - lam) R, -R] where R = (self - mu)^{-1}; both equal
        self - lam whenever mu is a resolvent point.
        """
        if not self.is_resolvent_point(mu):
            raise NotResolventPointError(f"{mu} is not a resolvent point")
        n = self.dim_x
        r_mat = self.shift(mu).inverse().as_operator_matrix()
        mixed = Matrix.identity(n) + r_mat.scale(mu - lam)
        via_range = LinearRelation(n, n, column_space(r_mat.vstack(mixed)))
        via_kernel = LinearRelation(n, n, null_space(mixed.hstack(-r_mat)))
        return via_range, via_kernel
