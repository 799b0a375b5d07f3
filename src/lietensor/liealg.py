"""Finite-dimensional Lie algebras given by structure constants.

An algebra of dimension n stores only its nonzero structure constants: row
cells[i] is a dict {j: {k: c}} holding, for each j with [x_i, x_j] != 0, the
nonzero coordinates c of that bracket.  Both (i, j) and (j, i) are stored,
so validation checks the stored antisymmetry rather than inferring it, and
corrupted input is detectable.  No cell is empty and none holds a zero, so
two algebras are equal exactly when their cells are.  Basis labels are
purely decorative; all identity decisions use indices.

Brackets, ad, the pairing axioms and the homomorphism checks all evaluate on
sparse {index: nonzero} vectors over the cells (LieAlgebra.bracket_sparse and
ad_sparse); the dense bracket is a thin wrapper that densifies the result.
Every subspace, ideal closures included, is spanned by linalg.span.
Each check keeps the dense order, skipping only instances whose sides
vanish.  A BilinearMap stores its {k: nonzero} cells in an n x n grid: its
source is a base algebra and nearly all of its cells are nonzero.  Every
check returns a Verdict, whose witness is structured: the failing pairs and
triples of validate(), the first violated axiom instance of is_lie_pairing.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Optional, Sequence

from .errors import Immutable, NotIdealError, Verdict
from .fields import Field, Scalar
from .linalg import (Matrix, SparseVector, Subspace, Vector, add_scaled,
                     annihilator, combine, dense, sparse, span)


class LieAlgebra(Immutable):
    """An algebra of dimension dim over field by its rows of nonzero cells
    (module docstring), with decorative basis names.  Immutable; the
    constructor checks that there are dim rows and every cell is canonical,
    so equal algebras have equal cells; the hash reads the field and the
    dimension."""

    _fields = ("field", "dim", "cells", "basis_names")
    _hashed = 2

    def __init__(self, field: Field, dim: int,
                 cells: Sequence[dict[int, SparseVector]],
                 basis_names: tuple[str, ...]):
        n = dim
        if len(cells) != n or len(basis_names) != n:
            raise ValueError("cells/name size mismatch")
        for row in cells:
            for j, cell in row.items():
                if not (0 <= j < n and cell
                        and all(c and 0 <= k < n for k, c in cell.items())):
                    raise ValueError(f"cell {j}: {cell!r} is not in range, "
                                     f"nonempty and zero-free")
        super().__init__(field, dim, tuple(cells), basis_names)

    def __repr__(self):
        shown = ",".join(self.basis_names[:6])
        if self.dim > 6:
            shown += ",..."
        return f"LieAlgebra(dim {self.dim} over {self.field.name}: {shown})"

    def bracket_sparse(self, u: SparseVector, v: SparseVector) -> SparseVector:
        """Bilinear extension of the structure constants to sparse vectors:
        one term per pair of support entries with a nonzero cell."""
        nz = self.cells
        acc: SparseVector = {}
        for i, ui in u.items():
            nz_i = nz[i]
            for j, vj in v.items():
                cell = nz_i.get(j)
                if cell:
                    add_scaled(acc, ui * vj, cell.items())
        return acc

    def bracket(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
        """Bilinear extension of the structure constants."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("dimension mismatch")
        return dense(self.bracket_sparse(sparse(u), sparse(v)), self.dim,
                     self.field.zero)

    def ad_sparse(self, v: SparseVector) -> list[SparseVector]:
        """[v, x_j] for every basis vector x_j, from the nonzero cells of the
        rows in the support of v, each added in the order of v."""
        out: list[SparseVector] = [{} for _ in range(self.dim)]
        for i, vi in v.items():
            for j, cell in self.cells[i].items():
                add_scaled(out[j], vi, cell.items())
        return out

    def validate(self) -> Verdict:
        """Check stored antisymmetry and the Jacobi identity on basis triples.
        The witness is the pair (antisymmetry failures (i, j) with i <= j,
        Jacobi failures (i, j, k) with i < j < k), and the detail says
        "valid" or names both lists.

        Trilinearity plus antisymmetry make the i < j < k instances sufficient.
        Only the nonzero cells are walked.  partners[a] holds every b with a
        nonzero cell (a, b) or (b, a), a itself when the diagonal cell (a, a)
        is nonzero.  A pair whose two cells are zero is antisymmetric.  The
        Jacobi sum of (i, j, k) has the terms [[x_i, x_j], x_k],
        [[x_j, x_k], x_i] and [[x_k, x_i], x_j], and the first is
        nonzero only if the cell (i, j) has a word m with a nonzero cell
        (m, k), that is k in partners[m]; likewise for the other two, with
        the cells (j, k) and (k, i).  So every triple with a nonzero sum is
        an edge {a, b} of nonzero cells together with a partner of a word
        in the cell (a, b) or (b, a), and only those triples are evaluated,
        in increasing order.  m may equal k, so a nonzero diagonal cell must
        be in the partner sets.
        """
        nz, n, empty = self.cells, self.dim, {}
        partners: list[set[int]] = [set() for _ in range(n)]
        for a, row in enumerate(nz):
            partners[a].update(row)
            for b in row:
                partners[b].add(a)
        anti_failures = []
        triples = set()
        for a in range(n):
            if a in nz[a]:
                anti_failures.append((a, a))
            for b in sorted(b for b in partners[a] if b > a):
                fwd, bwd = nz[a].get(b, empty), nz[b].get(a, empty)
                if bwd != {k: -c for k, c in fwd.items()}:
                    anti_failures.append((a, b))
                for m in fwd.keys() | bwd.keys():
                    for c in partners[m]:
                        if c != a and c != b:
                            triples.add(tuple(sorted((a, b, c))))
        jacobi_failures = []
        for i, j, k in sorted(triples):
            acc: SparseVector = {}
            for first, c in ((nz[i].get(j, empty), k), (nz[j].get(k, empty), i),
                             (nz[k].get(i, empty), j)):
                for m, coeff in first.items():
                    cell = nz[m].get(c)
                    if cell:
                        add_scaled(acc, coeff, cell.items())
            if acc:
                jacobi_failures.append((i, j, k))
        parts = []
        if anti_failures:
            parts.append("antisymmetry fails at %s" % (anti_failures,))
        if jacobi_failures:
            parts.append("Jacobi fails at %s" % (jacobi_failures,))
        return Verdict(not parts, "; ".join(parts) or "valid",
                       (tuple(anti_failures), tuple(jacobi_failures)))

    @cached_property
    def derived_subalgebra(self) -> Subspace:
        """The span of the brackets, computed once per algebra."""
        return span(self.field, self.dim,
                    (cell for i, row in enumerate(self.cells)
                     for j, cell in row.items() if j > i))

    @cached_property
    def center(self) -> Subspace:
        """Kernel of the stacked adjoint map v -> ([v, x_1], ..., [v, x_n]),
        computed once per algebra."""
        return annihilator(self.field, self.dim, self.dim,
                           lambda i, j: self.cells[i].get(j, {}).items())

    @cached_property
    def _lower_central_series(self) -> tuple[Subspace, ...]:
        # L^2 is derived_subalgebra: the ad-images of L's unit rows are the
        # brackets, and RREF is unique, so the span is the same subspace.
        series = [Subspace.full_space(self.field, self.dim),
                  self.derived_subalgebra]
        while series[-1].dim and series[-1] != series[-2]:
            series.append(span(self.field, self.dim,
                               (w for row in series[-1].sparse_rows
                                for w in self.ad_sparse(row) if w)))
        return tuple(series)

    def lower_central_series(self) -> tuple[Subspace, ...]:
        """Terms L = L^1 >= L^2 >= ... including the first stabilized term;
        computed once, as verify reads it three times."""
        return self._lower_central_series

    def nilpotency_class(self) -> Optional[int]:
        """Largest k with L^k nonzero, or None when the series stabilizes high."""
        series = self.lower_central_series()
        if series[-1].dim != 0:
            return None
        return max(1, len(series) - 1)

    @property
    def is_nilpotent(self) -> bool:
        return self.nilpotency_class() is not None

    @property
    def is_abelian(self) -> bool:
        return not any(self.cells)


class BilinearMap(Immutable):
    """A bilinear map between coordinate spaces, stored as its cells:
    cells[i][j] is the image of (x_i, x_j) as {k: nonzero}, read only (the
    tensor square shares them with its projection).  Immutable; zero-free
    cells are canonical, so equal maps have equal cells; the hash reads the
    dimensions."""

    _fields = ("field", "source_dim", "target_dim", "cells")
    _hashed = 3

    def __repr__(self):
        name = self.field.name
        return (f"BilinearMap({name}^{self.source_dim} x "
                f"{name}^{self.source_dim} -> {name}^{self.target_dim})")

    def apply_sparse(self, u: SparseVector, v: SparseVector) -> SparseVector:
        """The map on sparse vectors: one term per pair of support entries
        with a nonzero cell."""
        cells = self.cells
        acc: SparseVector = {}
        for i, ui in u.items():
            row = cells[i]
            for j, vj in v.items():
                cell = row[j]
                if cell:
                    add_scaled(acc, ui * vj, cell.items())
        return acc

    def apply(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
        if len(u) != self.source_dim or len(v) != self.source_dim:
            raise ValueError("dimension mismatch")
        return dense(self.apply_sparse(sparse(u), sparse(v)), self.target_dim,
                     self.field.zero)


def lie_algebra_from_brackets(field: Field, dim: int,
                              brackets: dict[tuple[int, int], Sequence[tuple[int, Scalar]]],
                              names=None) -> LieAlgebra:
    """Build the antisymmetric cells from sparse i < j bracket data; terms
    with a repeated index are summed."""
    cells: list[dict[int, SparseVector]] = [{} for _ in range(dim)]
    for (i, j), entries in brackets.items():
        if not 0 <= i < j < dim:
            raise ValueError(f"bracket indices ({i},{j}) out of order or range")
        v: SparseVector = {}
        for k, c in entries:
            v[k] = v.get(k, field.zero) + c
        v = {k: c for k, c in v.items() if c}
        if v:
            cells[i][j] = v
            cells[j][i] = {k: -c for k, c in v.items()}
    names = tuple(f"x{i + 1}" for i in range(dim)) if names is None else names
    return LieAlgebra(field, dim, cells, tuple(names))


def quotient_algebra(L: LieAlgebra, ideal: Subspace) -> tuple[LieAlgebra, Matrix]:
    """Quotient of L by an ideal, on the canonical complement coordinates.

    The ideal property [ideal, L] <= ideal is checked, not trusted; that L
    is a Lie algebra is trusted, and carries over (quotient_by_ideal).
    """
    if ideal.ambient_dim != L.dim:
        raise ValueError("ambient mismatch")
    for row in ideal.sparse_rows:
        for j, w in enumerate(L.ad_sparse(row)):
            if ideal.reduce_sparse(w):
                raise NotIdealError(
                    f"subspace is not an ideal: [basis row, x{j}] escapes",
                    witness=dense(w, L.dim, L.field.zero))
    return quotient_by_ideal(L, ideal)


def quotient_by_ideal(L: LieAlgebra, ideal: Subspace,
                      start: int = 0) -> tuple[LieAlgebra, Matrix]:
    """The quotient construction of quotient_algebra, for a subspace that
    the caller has proved to be an ideal of L, of ambient dimension dim L
    (each caller gives its argument next to the call), with the projection
    onto it: the class of [x_a, x_b] is the projection of the cell.

    Given start, L stands for its subalgebra on the positions start..,
    which the caller has shown to hold every bracket of L, and the ideal is
    given in those positions shifted by -start.  Only the rows of L at the
    free columns are read, so the subalgebra is never copied.

    The quotient is not validated: it is a Lie algebra when L is.  As its
    kernel is an ideal, the projection is a surjective homomorphism, so
    each cell, antisymmetry sum and Jacobi sum of the quotient is the
    image of L's, which is 0 for the sums.  Every L here is validated where
    it was loaded or built (cli.parse_algebra_document, catalog.catalog,
    build_tensor_square, and freenilp._integer_structure for F and so F'),
    or is such a quotient."""
    project = ideal.project
    cols = ({},) * start + project.sparse_columns  # indexed by L's positions
    free = set(ideal.free_cols)
    names = tuple(f"q{c + 1}" for c in range(len(free)))
    return descended_algebra(
        ideal, lambda a: ((b - start, combine(cell.items(), cols))
                          for b, cell in L.cells[a + start].items()
                          if b - start in free),
        names), project


def descended_algebra(space: Subspace, classes, names) -> LieAlgebra:
    """The quotient by space of an ambient Lie algebra, of which space is an
    ideal, on the free columns: classes(a) yields (b, the class of
    [e_a, e_b] in quotient coordinates) for free columns a and b, at least
    for every b where that class is nonzero.  The one such construction;
    quotient_by_ideal and build_tensor_square decide its validity."""
    index = {c: r for r, c in enumerate(space.free_cols)}
    cells = [{index[b]: v for b, v in classes(a) if v}
             for a in space.free_cols]
    return LieAlgebra(space.field, len(index), cells, names)


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    if a.field != b.field:
        raise ValueError("field mismatch")
    n = a.dim
    shifted = tuple({n + j: {n + k: c for k, c in cell.items()}
                     for j, cell in row.items()} for row in b.cells)
    return LieAlgebra(a.field, n + b.dim, a.cells + shifted,
                      a.basis_names + b.basis_names)


def is_lie_pairing(rho: BilinearMap, L: LieAlgebra, H: LieAlgebra) -> Verdict:
    """Check the three Lie-pairing compatibility axioms on basis tuples
    (Ellis, Glasgow Math. J. 33, 1991):

        (i)   rho([l, l'], s) = rho(l, [l', s]) - rho(l', [l, s])
        (ii)  rho(l, [l', s]) = rho([s, l], l') - rho([l', l], s)
        (iii) rho([l, s], [l', s']) = -[rho(s, l), rho(l', s')]

    Each side of each axiom is multilinear in every argument, so basis
    instances suffice.  The witness of a failure is the first violated
    instance, ("axiom-i", (l, l', s)) and so on.

    Every side is evaluated sparsely, as {k: nonzero} dicts: rho on a
    bracket is a combination of the sparse cells rho(x_a, x_b) over the
    nonzero structure constants of L, and the bracket of (iii) runs over
    H's nonzero cells.  A dict holds no zero value, so two of them are
    equal exactly when the dense vectors they stand for are equal.  The
    instances are visited in the dense order, (l, l', s) for (i) then (ii)
    and (l, s, l', s') for (iii), so the first witness is the same one.
    """
    if rho.source_dim != L.dim or rho.target_dim != H.dim:
        raise ValueError("pairing dimensions do not match the algebras")
    n = L.dim
    nz = L.cells
    cells = rho.cells
    by_right = [[cells[a][s] for a in range(n)] for s in range(n)]
    # outer[l'][s][a] = rho(x_a, [x_l', x_s]); inner[l][l'][s] = rho([x_l, x_l'], x_s)
    # A zero cell gets one shared list of empty sides, which nothing mutates.
    empty = [{}] * n

    def sides(columns):
        return [[[combine(row[s].items(), columns[a]) for a in range(n)]
                 if s in row else empty for s in range(n)] for row in nz]

    outer, inner = sides(cells), sides(by_right)

    minus_one = -H.field.one

    def difference(u: SparseVector, v: SparseVector) -> SparseVector:
        out = dict(u)
        add_scaled(out, minus_one, v.items())
        return out

    # The five sides of (l, l', s) read only the cells (l, l'), (l', l),
    # (l', s), (l, s) and (s, l); the s where all five are 0 are skipped.
    in_row = [set(row) for row in nz]
    near = [in_row[l].union(s for s in range(n) if l in in_row[s])
            for l in range(n)]
    for l in range(n):
        for lp in range(n):
            for s in range(n) if lp in in_row[l] or l in in_row[lp] \
                    else sorted(near[l].union(in_row[lp])):
                if inner[l][lp][s] != difference(outer[lp][s][l],
                                                 outer[l][s][lp]):
                    return Verdict(False, witness=("axiom-i", (l, lp, s)))
                if outer[lp][s][l] != difference(inner[s][l][lp],
                                                 inner[lp][l][s]):
                    return Verdict(False, witness=("axiom-ii", (l, lp, s)))
    every_pair = [(lp, sp) for lp in range(n) for sp in range(n)]
    # The left side of (iii) is rho([l, s], [l', s']), zero wherever the
    # cell (l', s') is; when rho(s, l) is central in H the right side is
    # zero at every (l', s').  Such an (l, s) visits only the nonzero cells,
    # in the same order, so the first witness is unchanged.
    nonzero_pairs = [(lp, sp) for lp in range(n) for sp in sorted(nz[lp])]
    for l in range(n):
        for s in range(n):
            u, rho_sl = nz[l].get(s, {}), cells[s][l]
            if not u and not rho_sl:
                continue  # both sides vanish for every (l', s')
            central = not any(H.ad_sparse(rho_sl))
            for lp, sp in nonzero_pairs if central else every_pair:
                rhs = H.bracket_sparse(rho_sl, cells[lp][sp])
                if combine(u.items(), outer[lp][sp]) != \
                        {k: -x for k, x in rhs.items()}:
                    return Verdict(False, witness=("axiom-iii", (l, s, lp, sp)))
    return Verdict(True)


def bracket_pairing(L: LieAlgebra) -> BilinearMap:
    """The motivating Lie pairing: (u, v) -> [u, v] landing in L itself."""
    n = L.dim
    return BilinearMap(L.field, n, n, tuple(
        tuple(row.get(j, {}) for j in range(n)) for row in L.cells))


def ideal_closure(L: LieAlgebra, vectors: Sequence[Sequence[Scalar]]) -> Subspace:
    """Smallest ideal of L containing the given dense vectors, spanned in
    rounds.  Each round spans the current rows with the ad-images of the
    rows at the pivots the last round added: those rows span the current
    space modulo the last one, so by linearity [I, L] lies in the new span.
    A round that adds no pivot ends the loop."""
    if any(len(v) != L.dim for v in vectors):
        raise ValueError("ambient mismatch")
    ideal = span(L.field, L.dim, map(sparse, vectors))
    new = ideal.sparse_rows
    while new:
        grown = span(L.field, L.dim,
                     chain(ideal.sparse_rows, *map(L.ad_sparse, new)))
        old = set(ideal.pivots)
        new = [row for p, row in zip(grown.pivots, grown.sparse_rows)
               if p not in old]
        ideal = grown
    return ideal


def homomorphism_failure(images: Sequence[SparseVector], source: LieAlgebra,
                         target: LieAlgebra,
                         rows: Optional[int] = None) -> Optional[tuple[int, int]]:
    """The first basis pair (i, j), in row-major order, with
    f[x_i, x_j] != [f x_i, f x_j] for the linear map f: x_i -> images[i];
    None when f is a homomorphism.  Given rows, only the pairs with
    i < rows are visited, the first rows of the same order.

    Both sides are sparse {k: nonzero} dicts: f[x_i, x_j] combines the
    images over the nonzero entries of source's cell (i, j), and
    [f x_i, f x_j] is target.bracket_sparse.  Neither holds a zero value, so
    they are equal exactly when the dense vectors are.  The left side is 0
    unless source's cell (i, j) is nonzero, and the right side is 0 unless
    target has a nonzero cell (a, b) with a in the support of f x_i and b
    in that of f x_j.  Only the pairs where one of the two holds are
    visited: holders[b] lists the j whose image holds b, so reach[a], the
    union of holders[b] over target's nonzero cells (a, b), is every such
    j for one a.  Every other pair has two empty sides, and the visited
    pairs keep the dense double loop's order, so the first failing pair is
    the same.
    """
    nz, target_cells = source.cells, target.cells
    holders: list[list[int]] = [[] for _ in range(target.dim)]
    for j, fj in enumerate(images):
        for b in fj:
            holders[b].append(j)
    reach: dict[int, set[int]] = {}
    for i, fi in enumerate(images[:rows]):
        nz_i = nz[i]
        partners = set(nz_i)
        for a in fi:
            if a not in reach:
                reach[a] = {j for b in target_cells[a] for j in holders[b]}
            partners |= reach[a]
        for j in sorted(partners):
            if combine(nz_i.get(j, {}).items(), images) \
                    != target.bracket_sparse(fi, images[j]):
                return i, j
    return None
