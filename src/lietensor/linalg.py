"""Deterministic exact linear algebra: RREF, kernels, images, canonical
subspaces, sums, intersections and quotients.

A Matrix is a linear map acting on columns, with products, ranks, images
and kernel(m).  A Subspace also stands for the quotient of its ambient
space by it, on its free columns: project maps onto them, and descend
gives the map that a map on the ambient space induces there.  span is the
one elimination call: it spans a batch of sparse vectors, in the given
order, through SpanBuilder.insert, and is the only code that builds a
SpanBuilder or turns its rows into a Subspace.

Everything is stored as zero-free {index: value} dicts: a Matrix as its
columns, a Subspace as its fully reduced echelon rows, so subspace equality
is plain structural equality and every downstream basis, complement and
report is bit-reproducible.  All elimination goes through SpanBuilder, whose
rows are {pivot: {column: value}}, and reduction against a Subspace reads
its rows in the same form: relation vectors touch a handful of the n^2
coordinates, so reductions cost the nonzeros they meet, not the ambient
width.  Products, ranks and kernels work on those columns and rows;
_transpose, the one change of orientation, serves only rref.  kernel, like
subspace_intersect, spans vectors extended by a second block and reads the
rows that lead there through the private _second_part, so annihilator, the
kernel of a stacked map, eliminates its few columns and not its mostly
empty rows.  Matrix.apply takes a dense tuple, and so does SpanBuilder.add,
which nothing in the package calls; every other vector is sparse.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional, Sequence

from .errors import Immutable
from .fields import Field, Scalar, canonical

Vector = tuple[Scalar, ...]
SparseVector = dict[int, Scalar]


def sparse(v: Sequence[Scalar]) -> SparseVector:
    """A dense vector as {index: nonzero value}."""
    return {j: x for j, x in enumerate(v) if x}


def dense(v: SparseVector, n: int, zero: Scalar) -> Vector:
    """A sparse vector as a dense tuple of length n."""
    out = [zero] * n
    for j, x in v.items():
        out[j] = x
    return tuple(out)


def add_scaled(out: SparseVector, f: Scalar,
               terms: Iterable[tuple[int, Scalar]]) -> None:
    """out += f * terms in place, for nonzero f and (index, nonzero value)
    terms, dropping the entries that cancel; out never holds a zero."""
    for j, x in terms:
        y = out.get(j)
        y = f * x if y is None else y + f * x
        if y:
            out[j] = y
        else:
            del out[j]


def combine(terms: Iterable[tuple[int, Scalar]],
            columns: Sequence[SparseVector]) -> SparseVector:
    """The sum of c * columns[k] over the (k, c) terms: the linear map with
    these sparse columns, applied to a sparse vector."""
    out: SparseVector = {}
    for k, c in terms:
        add_scaled(out, c, columns[k].items())
    return out


def _transpose(vectors: Sequence[SparseVector],
               n: int) -> tuple[SparseVector, ...]:
    """The n rows of the matrix with these sparse columns; equally, the n
    columns of the matrix with these sparse rows."""
    out: tuple[SparseVector, ...] = tuple({} for _ in range(n))
    for j, v in enumerate(vectors):
        for i, x in v.items():
            out[i][j] = x
    return out


class Matrix(Immutable):
    """A matrix stored as its columns {row: nonzero value}, read only (other
    matrices and subspaces share them).  Immutable; zero-free columns are
    canonical, so equal matrices have equal columns; the hash reads the
    shape."""

    _fields = ("field", "rows", "cols", "sparse_columns")
    _hashed = 3

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field.name})"

    def apply(self, v: Sequence[Scalar]) -> Vector:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return dense(combine(sparse(v).items(), self.sparse_columns),
                     self.rows, self.field.zero)

    def mul(self, other: "Matrix") -> "Matrix":
        """Column j of the product is self applied to column j of other."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        return Matrix(self.field, self.rows, other.cols,
                      tuple(combine(c.items(), self.sparse_columns)
                            for c in other.sparse_columns))

    def rank(self) -> int:
        return self.image().dim

    def image_of(self, space: "Subspace") -> "Subspace":
        """The image of a subspace of the column space, spanned by the
        images of its echelon rows."""
        return span(self.field, self.rows,
                    (combine(row.items(), self.sparse_columns)
                     for row in space.sparse_rows))

    def image(self) -> "Subspace":
        """The column space, spanned by the columns in order."""
        return span(self.field, self.rows, self.sparse_columns)

    def is_bijective(self) -> bool:
        return self.rows == self.cols and self.rank() == self.cols


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Unique reduced row-echelon basis of the row space of m (no zero rows),
    together with its pivot columns."""
    space = span(m.field, m.cols, _transpose(m.sparse_columns, m.rows))
    return (Matrix(m.field, space.dim, m.cols,
                   _transpose(space.sparse_rows, m.cols)), space.pivots)


class Subspace(Immutable):
    """A subspace of a fixed coordinate space, stored as its fully reduced
    echelon rows {column: nonzero value} in pivot order: the unique RREF
    basis, so equal subspaces have equal rows.  Immutable; the rows are read
    only, because reductions read them in place; the hash reads the
    pivots."""

    _fields = ("field", "ambient_dim", "pivots", "sparse_rows")
    _hashed = 3

    def __repr__(self):
        return (f"Subspace(dim {self.dim} of "
                f"{self.field.name}^{self.ambient_dim})")

    @classmethod
    def full_space(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, tuple(range(ambient_dim)),
                   tuple({i: field.one} for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @cached_property
    def free_cols(self) -> tuple[int, ...]:
        """The non-pivot columns, in increasing order: the coordinates of
        the ambient space modulo this subspace."""
        pivots = set(self.pivots)
        return tuple(j for j in range(self.ambient_dim) if j not in pivots)

    @property
    def project(self) -> Matrix:
        """The projection of the ambient space modulo this subspace onto the
        free columns, built on demand: column c is the residual of e_c
        there, the r-th unit vector when c is the r-th free column and else
        minus row c off its pivot (a reduced row is 0 at other pivots).  So
        project(v) = 0 exactly when v lies in the subspace."""
        one = self.field.one
        index = {c: r for r, c in enumerate(self.free_cols)}
        columns = [{index[c]: one} if c in index else None
                   for c in range(self.ambient_dim)]
        for p, row in zip(self.pivots, self.sparse_rows):
            columns[p] = {index[c]: -x for c, x in row.items() if c != p}
        return Matrix(self.field, len(index), self.ambient_dim,
                      tuple(columns))

    def descend(self, columns: Sequence[SparseVector],
                rows: int) -> Optional[Matrix]:
        """The map that the map to F^rows with these sparse ambient columns
        induces on the quotient, or None unless it kills the echelon rows.
        Column r is the map's column at the r-th free column c, the one
        whose projection is unit vector r; as e_p - row p, for a pivot p,
        lies on the free columns, descend(f).mul(project) = f."""
        if any(combine(row.items(), columns) for row in self.sparse_rows):
            return None
        return Matrix(self.field, rows, len(self.free_cols),
                      tuple(columns[c] for c in self.free_cols))

    @cached_property
    def _by_pivot(self) -> dict[int, SparseVector]:
        return dict(zip(self.pivots, self.sparse_rows))

    def reduce_sparse(self, v: SparseVector) -> SparseVector:
        """Canonical residual of a sparse vector; empty exactly when v lies
        in the subspace."""
        return _reduce(self._by_pivot, v)

    def contains_space(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient mismatch")
        return not any(map(self.reduce_sparse, other.sparse_rows))


class SpanBuilder:
    """Incrementally accumulates the row span of vectors, kept in RREF; only
    span builds one, and the Subspace it returns takes the rows.

    Rows are stored sparse, keyed by pivot, and fully reduced: each row is 1
    at its own pivot and 0 at every other pivot.  Reducing a vector therefore
    subtracts, for each pivot p in its support, its original coordinate at p
    times row p, in any order.  The finished subspace is independent of
    insertion order (RREF is unique).

    A new row with pivot p must be subtracted from every stored row that is
    nonzero at p.  The builder keeps the set of columns that a stored row
    can hold: the union of the supports of the rows it inserted.  Every
    stored row lies in that set: an inserted row starts in it, and
    back-reduction changes a row only by a multiple of a new row, which
    joins the set.  So when p is not in the set, no stored row is nonzero
    at p, and the scan over the rows is skipped.
    """

    def __init__(self, field: Field, ambient_dim: int):
        self.field = field
        self.ambient_dim = ambient_dim
        self._rows: dict[int, SparseVector] = {}
        self._columns: set[int] = set()  # what a stored row can hold

    def reduce(self, v: SparseVector) -> SparseVector:
        """Canonical residual of a sparse vector {column: nonzero value}."""
        return _reduce(self._rows, v)

    def insert(self, v: SparseVector) -> bool:
        """Insert one sparse vector {column: nonzero value}; returns True if
        it enlarged the span."""
        out = self.reduce(v)
        if not out:
            return False
        pivot = min(out)
        inv = out[pivot]
        if inv != self.field.one:
            out = {j: canonical(x / inv) for j, x in out.items()}
        if pivot in self._columns:
            for row in self._rows.values():
                f = row.get(pivot)
                if f:
                    add_scaled(row, -f, out.items())
        self._columns.update(out)
        self._rows[pivot] = out
        return True

    def add(self, v: Sequence[Scalar]) -> bool:
        """Insert one dense vector; returns True if it enlarged the span.
        Nothing in the package calls it; it stays for the benchmark tracer,
        which patches it."""
        if len(v) != self.ambient_dim:
            raise ValueError("ambient mismatch")
        return self.insert(sparse(v))


def span(field: Field, ambient_dim: int,
         vectors: Iterable[SparseVector]) -> Subspace:
    """The span of sparse vectors {column: nonzero value}, inserted in the
    given order; the vectors themselves are not changed or kept.  The
    builder ends with this call, so the Subspace takes its rows uncopied."""
    builder = SpanBuilder(field, ambient_dim)
    for v in vectors:
        builder.insert(v)
    rows = builder._rows
    pivots = tuple(sorted(rows))
    return Subspace(field, ambient_dim, pivots, tuple(rows[p] for p in pivots))


def _reduce(rows: dict[int, SparseVector], v: SparseVector) -> SparseVector:
    """The residual of v against fully reduced echelon rows {pivot: row}
    (SpanBuilder)."""
    out = dict(v)
    for p, f in v.items():
        row = rows.get(p)
        if row is not None:
            add_scaled(out, -f, row.items())
    return out


def kernel(m: Matrix) -> Subspace:
    """Null space {x : m x = 0}, as a canonical subspace of the column space.

    The span of the vectors (m e_i, e_i) meets 0 (+) F^cols in 0 (+) kernel,
    so, as in subspace_intersect, its echelon rows with a pivot >= rows,
    shifted back by _second_part, are the kernel's canonical rows.  The
    columns go in last first: when (m e_i, e_i) goes in, every stored row is
    a combination of later columns, so no stored row holds unit column i or
    one before it.  A residual that leads in the second block thus leads at
    unit column i, outside the columns that SpanBuilder's rows can hold, and
    skips the back-reduction scan; in increasing order it would scan.
    """
    one = m.field.one
    return _second_part(
        span(m.field, m.rows + m.cols,
             ({**m.sparse_columns[i], m.rows + i: one}
              for i in reversed(range(m.cols)))),
        m.rows)


def annihilator(field: Field, n: int, m: int, cell) -> Subspace:
    """Kernel of v -> (sum_i v_i cell(i, j))_j, stacked over j < n, for a
    bilinear map F^n x F^n -> F^m given by its (k, nonzero c) cells: column
    i of the stacked map holds c at row j*m + k.  Each cell is read once."""
    return kernel(Matrix(field, n * m, n, tuple(
        {j * m + k: c for j in range(n) for k, c in cell(i, j)}
        for i in range(n))))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """The span of the rows of a, then of b: the rows of a are fully
    reduced, so each one goes in unchanged and scans no stored row."""
    if a.ambient_dim != b.ambient_dim or a.field != b.field:
        raise ValueError("ambient mismatch")
    return span(a.field, a.ambient_dim, a.sparse_rows + b.sparse_rows)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection by the Zassenhaus rule.

    In the span of the rows (u, u) for u in a and (w, 0) for w in b, the
    vectors with zero first half are exactly (0, v) with v in both, and the
    echelon rows with a pivot in the second half are a basis of them.  A
    fully reduced echelon row has no support before its pivot, so those rows
    lie in the second half, and shifted back by n (_second_part) they are
    already the canonical rows of the intersection: 1 at their own pivot, 0
    at the others.
    """
    if a.ambient_dim != b.ambient_dim or a.field != b.field:
        raise ValueError("ambient mismatch")
    n = a.ambient_dim
    doubled = ({**u, **{j + n: x for j, x in u.items()}} for u in a.sparse_rows)
    return _second_part(span(a.field, 2 * n, chain(doubled, b.sparse_rows)), n)


def _second_part(space: Subspace, split: int) -> Subspace:
    """The echelon rows with a pivot >= split, shifted back by split: an
    echelon row has no support before its pivot, and pivots increase, so
    they are the rows from bisect_left(pivots, split) on.  Only kernel and
    subspace_intersect read a second block; elsewhere rows stay in place."""
    k = bisect_left(space.pivots, split)
    return Subspace(space.field, space.ambient_dim - split,
                    tuple(p - split for p in space.pivots[k:]),
                    tuple({j - split: x for j, x in row.items()}
                          for row in space.sparse_rows[k:]))
