"""Deterministic exact linear algebra: RREF, kernels, canonical subspaces,
sums, intersections and quotient structures.

Every subspace is stored by the unique reduced row-echelon basis of its row
span, so subspace equality is plain structural equality, and every downstream
basis, complement and report is bit-reproducible.  All elimination goes
through SpanBuilder, which keeps its echelon rows sparse as
{pivot: {column: value}}: relation vectors touch a handful of the n^2
coordinates, so reductions cost the nonzeros they meet, not the ambient
width.  A Subspace keeps those rows: Subspace.sparse_rows hands them out
read only, and kernel, subspace_sum, subspace_intersect and
complement_within work on them without a dense round trip.  The dense
basis matrix, Matrix entries and the vectors of the dense API (reduce,
contains, project_vec) stay tuples; QuotientStructure builds its dense
project and lift matrices only on demand.  The sparse core (sparse, dense,
add_scaled, combine, Matrix.sparse_columns, Subspace.sparse_rows,
Subspace.reduce_sparse) is shared with the structure-constant checks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .fields import Field, Scalar

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


@dataclass(frozen=True, repr=False)
class Matrix:
    field: Field
    rows: int
    cols: int
    entries: tuple[tuple[Scalar, ...], ...]

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field.name})"

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Sequence[Scalar]],
                  cols: Optional[int] = None) -> "Matrix":
        data = tuple(tuple(r) for r in rows)
        if data:
            if cols is None:
                cols = len(data[0])
            if any(len(r) != cols for r in data):
                raise ValueError(f"rows must all have {cols} entries")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return cls(field, len(data), cols, data)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, n, n,
                   tuple(tuple(one if i == j else zero for j in range(n))
                         for i in range(n)))

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return cls(field, rows, cols, tuple((z,) * cols for _ in range(rows)))

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    @cached_property
    def sparse_columns(self) -> tuple[SparseVector, ...]:
        """Every column as {row: nonzero value}, built once; read only."""
        cols: list[SparseVector] = [{} for _ in range(self.cols)]
        for r, row in enumerate(self.entries):
            for j, x in enumerate(row):
                if x:
                    cols[j][r] = x
        return tuple(cols)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      tuple(zip(*self.entries)) if self.entries else
                      tuple(() for _ in range(self.cols)))

    def apply(self, v: Sequence[Scalar]) -> Vector:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return dense(combine(sparse(v).items(), self.sparse_columns),
                     self.rows, self.field.zero)

    def select_columns(self, cols: Sequence[int]) -> "Matrix":
        """The submatrix on the given columns, in the given order."""
        return Matrix(self.field, self.rows, len(cols),
                      tuple(tuple(r[c] for c in cols) for r in self.entries))

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        z = self.field.zero
        cols_t = other.transpose().entries
        return Matrix(self.field, self.rows, other.cols,
                      tuple(tuple(sum((a * b for a, b in zip(r, c) if a and b), z)
                                  for c in cols_t)
                            for r in self.entries))

    def rank(self) -> int:
        return len(rref(self)[1])


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Unique reduced row-echelon basis of the row space of m (no zero rows),
    together with its pivot columns."""
    builder = SpanBuilder(m.field, m.cols)
    builder.add_all(m.entries)
    space = builder.subspace()
    return space.basis, space.pivots


@dataclass(frozen=True)
class Subspace:
    """A subspace of a fixed coordinate space, in canonical RREF basis form.

    Two subspaces of the same ambient space over the same field are equal iff
    their basis matrices are entry-identical.  The same rows are kept sparse
    for sparse_rows; a subspace made by SpanBuilder is given them, one made
    from a basis matrix alone reads them off it on first use.
    """

    field: Field
    ambient_dim: int
    basis: Matrix
    pivots: tuple[int, ...]
    _rows: Optional[tuple[SparseVector, ...]] = dataclasses.field(
        default=None, compare=False, repr=False)

    def __repr__(self):
        return (f"Subspace(dim {self.dim} of "
                f"{self.field.name}^{self.ambient_dim})")

    @classmethod
    def span(cls, field: Field, ambient_dim: int,
             vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        b = SpanBuilder(field, ambient_dim)
        b.add_all(vectors)
        return b.subspace()

    @classmethod
    def zero_space(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim,
                   Matrix.from_rows(field, [], cols=ambient_dim), ())

    @classmethod
    def full_space(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim),
                   tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def free_cols(self) -> tuple[int, ...]:
        """The non-pivot columns, in increasing order."""
        pivots = set(self.pivots)
        return tuple(j for j in range(self.ambient_dim) if j not in pivots)

    @property
    def sparse_rows(self) -> tuple[SparseVector, ...]:
        """The basis rows as {column: nonzero value}, in pivot order; read
        only, because the subspace and its reductions share them."""
        if self._rows is None:
            object.__setattr__(self, "_rows",
                               tuple(sparse(r) for r in self.basis.entries))
        return self._rows

    @cached_property
    def _echelon(self) -> "SpanBuilder":
        return SpanBuilder.of(self)

    def reduce_sparse(self, v: SparseVector) -> SparseVector:
        """Canonical residual of a sparse vector; empty exactly when v lies
        in the subspace."""
        return self._echelon.reduce(v)

    def reduce(self, v: Sequence[Scalar]) -> Vector:
        """Canonical residual of v after clearing all pivot coordinates."""
        if len(v) != self.ambient_dim:
            raise ValueError("ambient mismatch")
        return dense(self.reduce_sparse(sparse(v)), self.ambient_dim,
                     self.field.zero)

    def contains(self, v: Sequence[Scalar]) -> bool:
        return self._echelon.contains(v)

    def contains_space(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient mismatch")
        return not any(map(self.reduce_sparse, other.sparse_rows))


class SpanBuilder:
    """Incrementally accumulates the row span of vectors, kept in RREF.

    Rows are stored sparse, keyed by pivot, and fully reduced: each row is 1
    at its own pivot and 0 at every other pivot.  Reducing a vector therefore
    subtracts, for each pivot p in its support, its original coordinate at p
    times row p, in any order.  The finished subspace is independent of
    insertion order (RREF is unique).

    subspace() hands the row dicts themselves to the Subspace it returns;
    the builder copies them before it next changes one, so a subspace never
    shares a row with a builder that can still mutate it.
    """

    def __init__(self, field: Field, ambient_dim: int):
        self.field = field
        self.ambient_dim = ambient_dim
        self._rows: dict[int, SparseVector] = {}
        self._shared = False  # whether a Subspace holds these row dicts

    @classmethod
    def of(cls, space: Subspace) -> "SpanBuilder":
        """A builder that starts from the echelon rows of space."""
        builder = cls(space.field, space.ambient_dim)
        builder._rows = dict(zip(space.pivots, space.sparse_rows))
        builder._shared = True
        return builder

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    def reduce(self, v: SparseVector) -> SparseVector:
        """Canonical residual of a sparse vector {column: nonzero value}."""
        out = dict(v)
        for p, f in v.items():
            row = self._rows.get(p)
            if row is not None:
                add_scaled(out, -f, row.items())
        return out

    def contains(self, v: Sequence[Scalar]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("ambient mismatch")
        return not self.reduce(sparse(v))

    def insert(self, v: SparseVector) -> bool:
        """Insert one sparse vector {column: nonzero value}; returns True if
        it enlarged the span."""
        out = self.reduce(v)
        if not out:
            return False
        if self._shared:
            self._rows = {p: dict(row) for p, row in self._rows.items()}
            self._shared = False
        pivot = min(out)
        inv = out[pivot]
        if inv != self.field.one:
            out = {j: x / inv for j, x in out.items()}
        for row in self._rows.values():
            f = row.get(pivot)
            if f:
                add_scaled(row, -f, out.items())
        self._rows[pivot] = out
        return True

    def add(self, v: Sequence[Scalar]) -> bool:
        """Insert one dense vector; returns True if it enlarged the span."""
        if len(v) != self.ambient_dim:
            raise ValueError("ambient mismatch")
        return self.insert(sparse(v))

    def add_all(self, vectors: Iterable[Sequence[Scalar]]) -> None:
        for v in vectors:
            self.add(v)

    def subspace(self) -> Subspace:
        """The span so far; the Subspace takes the echelon rows."""
        self._shared = True
        return _subspace(self.field, self.ambient_dim, self._rows)


def _subspace(field: Field, ambient_dim: int,
              rows: dict[int, SparseVector]) -> Subspace:
    """The subspace whose fully reduced echelon rows are {pivot: row}; the
    row dicts are taken, not copied."""
    pivots = tuple(sorted(rows))
    ordered = tuple(rows[p] for p in pivots)
    zero = field.zero
    basis = Matrix.from_rows(field, [dense(r, ambient_dim, zero) for r in ordered],
                             cols=ambient_dim)
    return Subspace(field, ambient_dim, basis, pivots, ordered)


def kernel(m: Matrix) -> Subspace:
    """Null space {x : m x = 0}, as a canonical subspace of the column space.

    Echelon row p of m reads x_p = -sum row_p[f] x_f over the free columns f
    (a fully reduced row is zero at every other pivot), so each free column
    f gives the kernel vector with x_f = 1 and the other free variables 0.
    """
    builder = SpanBuilder(m.field, m.cols)
    builder.add_all(m.entries)
    one = m.field.one
    vectors = {f: {f: one} for f in range(m.cols) if f not in builder._rows}
    for p, row in builder._rows.items():
        for f, x in row.items():
            if f != p:
                vectors[f][p] = -x
    out = SpanBuilder(m.field, m.cols)
    for v in vectors.values():
        out.insert(v)
    return out.subspace()


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim or a.field != b.field:
        raise ValueError("ambient mismatch")
    builder = SpanBuilder.of(a)
    for row in b.sparse_rows:
        builder.insert(row)
    return builder.subspace()


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection by the Zassenhaus rule.

    In the span of the rows (u, u) for u in a and (w, 0) for w in b, the
    vectors with zero first half are exactly (0, v) with v in both, and the
    echelon rows with a pivot in the second half are a basis of them.  A
    fully reduced echelon row has no support before its pivot, so those rows
    lie in the second half, and shifted back by n they are already the
    canonical rows of the intersection: 1 at their own pivot, 0 at the
    others.
    """
    if a.ambient_dim != b.ambient_dim or a.field != b.field:
        raise ValueError("ambient mismatch")
    n = a.ambient_dim
    builder = SpanBuilder(a.field, 2 * n)
    for u in a.sparse_rows:
        doubled = dict(u)
        doubled.update((j + n, x) for j, x in u.items())
        builder.insert(doubled)
    for w in b.sparse_rows:
        builder.insert(w)
    return _subspace(a.field, n, {p - n: {j - n: x for j, x in row.items()}
                                  for p, row in builder._rows.items() if p >= n})


def complement_within(inner: Subspace, outer: Subspace) -> Subspace:
    """Canonical complement of `inner` inside `outer` (echelon rule).

    Requires inner to be contained in outer; takes the rows of outer's RREF
    basis whose pivots are not pivots of inner.  Leading coordinates of such
    combinations avoid inner's pivot set, so the span meets inner trivially.
    """
    if not outer.contains_space(inner):
        raise ValueError("inner subspace not contained in outer")
    skip = set(inner.pivots)
    # The kept rows are still 1 at their own pivot and 0 at the others.
    return _subspace(outer.field, outer.ambient_dim,
                     {p: r for p, r in zip(outer.pivots, outer.sparse_rows)
                      if p not in skip})


@dataclass(frozen=True)
class QuotientStructure:
    """Coordinates for an ambient space modulo a subspace.

    Coset representatives are the standard basis vectors at the non-pivot
    columns of the subspace, so project(lift(y)) = y and project(v) = 0 exactly
    when v lies in the subspace.
    """

    sub: Subspace
    free_cols: tuple[int, ...]

    def __repr__(self):
        name = self.sub.field.name
        return (f"QuotientStructure({name}^{self.ambient_dim} modulo "
                f"dim {self.sub.dim} -> dim {self.dim})")

    @property
    def ambient_dim(self) -> int:
        return self.sub.ambient_dim

    @property
    def dim(self) -> int:
        return len(self.free_cols)

    @property
    def project(self) -> Matrix:
        """Matrix of project_vec, built on demand: row r reads coordinate
        free_cols[r] of the canonical residual, which is v at free_cols[r]
        minus, for each pivot p, v at p times row p at free_cols[r]."""
        sub = self.sub
        zero, one = sub.field.zero, sub.field.one
        index = {c: r for r, c in enumerate(self.free_cols)}
        rows = [[zero] * self.ambient_dim for _ in self.free_cols]
        for c, r in index.items():
            rows[r][c] = one
        for p, row in zip(sub.pivots, sub.sparse_rows):
            for c, x in row.items():
                if c != p:
                    rows[index[c]][p] = -x
        return Matrix.from_rows(sub.field, rows, cols=self.ambient_dim)

    @property
    def lift(self) -> Matrix:
        """Matrix of lift_vec, built on demand: a 0/1 column selector, so
        code that would multiply by it selects free_cols instead."""
        return Matrix.from_rows(self.sub.field, self.coset_reps,
                                cols=self.ambient_dim).transpose()

    @property
    def coset_reps(self) -> tuple[Vector, ...]:
        """The standard basis vectors at free_cols, built on demand."""
        zero, one = self.sub.field.zero, self.sub.field.one
        return tuple(tuple(one if j == c else zero
                           for j in range(self.ambient_dim))
                     for c in self.free_cols)

    def project_vec(self, v: Sequence[Scalar]) -> Vector:
        if len(v) != self.ambient_dim:
            raise ValueError("ambient mismatch")
        rest = self.sub.reduce_sparse(sparse(v))
        zero = self.sub.field.zero
        return tuple(rest.get(c, zero) for c in self.free_cols)

    def lift_vec(self, y: Sequence[Scalar]) -> Vector:
        return self.lift.apply(y)


def quotient_structure(ambient_dim: int, sub: Subspace) -> QuotientStructure:
    if sub.ambient_dim != ambient_dim:
        raise ValueError("ambient mismatch")
    return QuotientStructure(sub, sub.free_cols)


def solve(m: Matrix, rhs: Sequence[Scalar]) -> Optional[Vector]:
    """One exact solution x of m x = rhs (free variables set to 0), or None."""
    if len(rhs) != m.rows:
        raise ValueError("dimension mismatch")
    aug = Matrix(m.field, m.rows, m.cols + 1,
                 tuple(r + (b,) for r, b in zip(m.entries, rhs)))
    reduced, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [m.field.zero] * m.cols
    for r, p in enumerate(pivots):
        x[p] = reduced.entries[r][m.cols]
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    eye = Matrix.identity(m.field, n).entries
    aug = Matrix(m.field, n, 2 * n, tuple(r + i for r, i in zip(m.entries, eye)))
    reduced, pivots = rref(aug)
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Matrix.from_rows(m.field, [r[n:] for r in reduced.entries], cols=n)


@dataclass(frozen=True)
class LinearMap:
    """Linear map stored as a (target_dim x source_dim) matrix acting on columns."""

    matrix: Matrix

    def __repr__(self):
        name = self.matrix.field.name
        return f"LinearMap({name}^{self.source_dim} -> {name}^{self.target_dim})"

    @property
    def source_dim(self) -> int:
        return self.matrix.cols

    @property
    def target_dim(self) -> int:
        return self.matrix.rows

    @classmethod
    def from_images(cls, field: Field, target_dim: int,
                    images: Sequence[Sequence[Scalar]]) -> "LinearMap":
        if any(len(im) != target_dim for im in images):
            raise ValueError(f"images must all have {target_dim} coordinates")
        rows = [[images[j][i] for j in range(len(images))]
                for i in range(target_dim)]
        return cls(Matrix.from_rows(field, rows, cols=len(images)))

    def apply(self, v: Sequence[Scalar]) -> Vector:
        return self.matrix.apply(v)

    def compose(self, inner: "LinearMap") -> "LinearMap":
        return LinearMap(self.matrix.mul(inner.matrix))

    def image(self) -> Subspace:
        return Subspace.span(self.matrix.field, self.target_dim,
                             [self.matrix.column(j) for j in range(self.source_dim)])

    def kernel(self) -> Subspace:
        return kernel(self.matrix)

    def rank(self) -> int:
        return self.matrix.rank()

    def is_bijective(self) -> bool:
        return (self.source_dim == self.target_dim
                and self.rank() == self.source_dim)

    def inverse(self) -> "LinearMap":
        return LinearMap(inverse(self.matrix))
