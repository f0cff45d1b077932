"""Exact matrices over Q(i) and canonical-form subspace arithmetic.

Subspaces are normalized to the column-reduced echelon basis of their
spanning set, which makes set equality a plain value comparison.  All
routines use exact field arithmetic; there is no tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, SingularMatrixError
from .scalars import GaussianRational, as_scalar, gr

__all__ = [
    "Matrix",
    "Subspace",
    "Vector",
    "as_scalar",
    "vector",
    "rref",
    "null_space",
    "column_space",
    "matrix_inverse",
    "determinant",
    "outer_product",
    "subspace_sum",
    "subspace_intersect",
    "contains",
    "map_image",
    "map_preimage",
]

Vector = tuple[GaussianRational, ...]

_ZERO = gr(0)
_ONE = gr(1)


def vector(values) -> Vector:
    return tuple(as_scalar(v) for v in values)


@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix over Q(i); immutable."""

    rows: int
    cols: int
    entries: tuple[GaussianRational, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows) -> Matrix:
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        return Matrix(nrows, ncols, tuple(as_scalar(x) for r in rows for x in r))

    @staticmethod
    def from_columns(cols, rows_hint: int | None = None) -> Matrix:
        cols = [list(c) for c in cols]
        if not cols:
            if rows_hint is None:
                raise DimensionMismatch("cannot infer row count of empty column set")
            return Matrix(rows_hint, 0, ())
        nrows = len(cols[0])
        if any(len(c) != nrows for c in cols):
            raise DimensionMismatch("ragged columns")
        return Matrix.from_rows([[cols[j][i] for j in range(len(cols))] for i in range(nrows)])

    @staticmethod
    def identity(n: int) -> Matrix:
        return Matrix(n, n, tuple(_ONE if i == j else _ZERO for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> Matrix:
        return Matrix(rows, cols, (_ZERO,) * (rows * cols))

    def at(self, i: int, j: int) -> GaussianRational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[list[GaussianRational]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def row_slice(self, start: int, stop: int) -> Matrix:
        if not (0 <= start <= stop <= self.rows):
            raise DimensionMismatch("row slice out of range")
        return Matrix(stop - start, self.cols, self.entries[start * self.cols : stop * self.cols])

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def __add__(self, other: Matrix) -> Matrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: Matrix) -> Matrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix subtraction shape mismatch")
        return Matrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> Matrix:
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> Matrix:
        c = as_scalar(c)
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def __mul__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, m, p = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            arow = a[i * m : (i + 1) * m]
            for j in range(p):
                s = _ZERO
                for k in range(m):
                    aik = arow[k]
                    if aik:
                        s = s + aik * b[k * p + j]
                out.append(s)
        return Matrix(n, p, tuple(out))

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        out = []
        for i in range(self.rows):
            s = _ZERO
            row = self.row(i)
            for k in range(self.cols):
                if row[k]:
                    s = s + row[k] * v[k]
            out.append(s)
        return tuple(out)

    def hstack(self, other: Matrix) -> Matrix:
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        rows = [list(self.row(i)) + list(other.row(i)) for i in range(self.rows)]
        return Matrix(self.rows, self.cols + other.cols, tuple(x for r in rows for x in r))

    def vstack(self, other: Matrix) -> Matrix:
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        return Matrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def is_zero(self) -> bool:
        return all(not x for x in self.entries)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"


def _rref_rows(rows: list[list[GaussianRational]], ncols: int) -> tuple[list[list[GaussianRational]], list[int]]:
    """In-place row reduction; returns (rows, pivot_columns)."""
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        if pv != _ONE:
            inv = _ONE / pv
            row = rows[r]
            for j in range(c, ncols):
                if row[j]:
                    row[j] = row[j] * inv
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                src = rows[r]
                dst = rows[i]
                for j in range(c, ncols):
                    if src[j]:
                        dst[j] = dst[j] - f * src[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Row-reduced echelon form, pivot columns, and rank."""
    rows, pivots = _rref_rows(m.row_list(), m.cols)
    reduced = Matrix(m.rows, m.cols, tuple(x for r in rows for x in r))
    return reduced, tuple(pivots), len(pivots)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^ambient_dim with a unique canonical basis matrix.

    The basis columns are the nonzero rows of the RREF of the spanning set,
    so two Subspace values are set-equal exactly when they are value-equal.
    """

    ambient_dim: int
    basis: Matrix

    def __post_init__(self):
        if self.basis.rows != self.ambient_dim:
            raise DimensionMismatch("basis rows must equal ambient dimension")

    @staticmethod
    def from_spanning(ambient_dim: int, vectors) -> Subspace:
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise DimensionMismatch("spanning vector has wrong length")
        if not vecs:
            return Subspace(ambient_dim, Matrix(ambient_dim, 0, ()))
        rows, pivots = _rref_rows([[as_scalar(x) for x in v] for v in vecs], ambient_dim)
        basis_rows = rows[: len(pivots)]
        return Subspace(ambient_dim, Matrix.from_columns(basis_rows, rows_hint=ambient_dim))

    @staticmethod
    def zero(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, Matrix(ambient_dim, 0, ()))

    @staticmethod
    def full(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def basis_vectors(self) -> list[Vector]:
        return self.basis.columns()

    def __str__(self) -> str:
        return f"span{{{', '.join('(' + ', '.join(map(str, v)) + ')' for v in self.basis_vectors())}}}"


def outer_product(col: Vector, row: Vector) -> Matrix:
    """The rank-at-most-one matrix col * row^T."""
    return Matrix(
        len(col), len(row), tuple(c * r for c in col for r in row)
    )


def null_space(m: Matrix) -> Subspace:
    """Kernel {x : m x = 0} in canonical form."""
    reduced, pivots, rank = rref(m)
    free = [j for j in range(m.cols) if j not in set(pivots)]
    vecs = []
    for f in free:
        v = [_ZERO] * m.cols
        v[f] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -reduced.at(r, f)
        vecs.append(v)
    return Subspace.from_spanning(m.cols, vecs)


def column_space(m: Matrix) -> Subspace:
    return Subspace.from_spanning(m.rows, m.columns())


def matrix_inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices can be inverted")
    n = m.rows
    aug = m.hstack(Matrix.identity(n))
    rows, pivots = _rref_rows(aug.row_list(), 2 * n)
    if list(pivots) != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return Matrix.from_rows([rows[i][n:] for i in range(n)])


def determinant(m: Matrix) -> GaussianRational:
    """Determinant by Gaussian elimination, one sign change per row swap."""
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices have a determinant")
    rows = m.row_list()
    det = _ONE
    for c in range(m.cols):
        pivot_row = next((i for i in range(c, m.rows) if rows[i][c]), None)
        if pivot_row is None:
            return _ZERO
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            det = -det
        src = rows[c]
        det = det * src[c]
        inv = _ONE / src[c]
        for dst in rows[c + 1 :]:
            if dst[c]:
                f = dst[c] * inv
                for j in range(c + 1, m.cols):
                    if src[j]:
                        dst[j] = dst[j] - f * src[j]
    return det


def _check_same_ambient(u: Subspace, v: Subspace):
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {u.ambient_dim} vs {v.ambient_dim}"
        )


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    _check_same_ambient(u, v)
    return Subspace.from_spanning(u.ambient_dim, u.basis_vectors() + v.basis_vectors())


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    _check_same_ambient(u, v)
    if u.is_zero() or v.is_zero():
        return Subspace.zero(u.ambient_dim)
    # Solve Bu a = Bv b; the intersection is Bu applied to the a-part of
    # ker [Bu | -Bv].
    combined = u.basis.hstack(-v.basis)
    ker = null_space(combined)
    du = u.dim
    vecs = [u.basis.apply(k[:du]) for k in ker.basis_vectors()]
    return Subspace.from_spanning(u.ambient_dim, vecs)


def contains(u: Subspace, v: Subspace) -> bool:
    """True when v is a subset of u."""
    _check_same_ambient(u, v)
    return subspace_sum(u, v).dim == u.dim


def map_image(m: Matrix, s: Subspace) -> Subspace:
    if m.cols != s.ambient_dim:
        raise DimensionMismatch("map domain does not match subspace ambient dimension")
    return Subspace.from_spanning(m.rows, [m.apply(b) for b in s.basis_vectors()])


def map_preimage(m: Matrix, s: Subspace) -> Subspace:
    if m.rows != s.ambient_dim:
        raise DimensionMismatch("map codomain does not match subspace ambient dimension")
    if s.is_full():
        return Subspace.full(m.cols)
    # m x in s  iff  (x, c) in ker [m | -Bs]; project the kernel to x.
    combined = m.hstack(-s.basis) if s.dim else m
    ker = null_space(combined)
    vecs = [k[: m.cols] for k in ker.basis_vectors()]
    return Subspace.from_spanning(m.cols, vecs)
