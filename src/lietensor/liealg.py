"""Finite-dimensional Lie algebras given by structure constants.

An algebra of dimension n stores the full n x n table of bracket coordinate
vectors, antisymmetry included; validation checks the stored redundancy rather
than inferring it, so corrupted input is detectable.  Basis labels are purely
decorative; all identity decisions use indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InternalCheckError, NotIdealError
from .fields import Field, Scalar
from .linalg import (LinearMap, Matrix, SpanBuilder, Subspace, Vector, kernel,
                     quotient_structure)


@dataclass(frozen=True)
class LieAlgebra:
    field: Field
    dim: int
    table: tuple[tuple[Vector, ...], ...]
    basis_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.table) != self.dim or len(self.basis_names) != self.dim:
            raise ValueError("table/name size mismatch")

    def __repr__(self):
        shown = ",".join(self.basis_names[:6])
        if self.dim > 6:
            shown += ",..."
        return f"LieAlgebra(dim {self.dim} over {self.field.name}: {shown})"

    def zero_vector(self) -> Vector:
        return (self.field.zero,) * self.dim

    def basis_vector(self, i: int) -> Vector:
        z, o = self.field.zero, self.field.one
        return tuple(o if j == i else z for j in range(self.dim))

    def _nonzero_rows(self) -> list[list[tuple[int, list]]]:
        """table[i][j] as sparse (k, coeff) lists; cached on first use."""
        cached = getattr(self, "_nz_cache", None)
        if cached is None:
            cached = [[[(k, c) for k, c in enumerate(row) if c]
                       for row in table_i] for table_i in self.table]
            object.__setattr__(self, "_nz_cache", cached)
        return cached

    def bracket(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
        """Bilinear extension of the structure constants."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("dimension mismatch")
        acc = [self.field.zero] * self.dim
        nz = self._nonzero_rows()
        for i, ui in enumerate(u):
            if not ui:
                continue
            nz_i = nz[i]
            for j, vj in enumerate(v):
                if not vj:
                    continue
                entries = nz_i[j]
                if entries:
                    f = ui * vj
                    for k, c in entries:
                        acc[k] = acc[k] + f * c
        return tuple(acc)

    def ad(self, v: Sequence[Scalar]) -> list[Vector]:
        """[v, x_j] for every basis vector x_j, reading the support of v once."""
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        nz = self._nonzero_rows()
        support = [(nz[i], vi) for i, vi in enumerate(v) if vi]
        out = []
        for j in range(self.dim):
            acc = [self.field.zero] * self.dim
            for nz_i, vi in support:
                for k, c in nz_i[j]:
                    acc[k] = acc[k] + vi * c
            out.append(tuple(acc))
        return out

    def validate(self) -> "ValidationReport":
        """Check stored antisymmetry and the Jacobi identity on basis triples.

        Trilinearity plus antisymmetry make the i < j < k instances sufficient.
        """
        nz = self._nonzero_rows()
        anti_failures = []
        for i in range(self.dim):
            if nz[i][i]:
                anti_failures.append((i, i))
            for j in range(i + 1, self.dim):
                fwd, bwd = nz[i][j], nz[j][i]
                if len(fwd) != len(bwd) or any(
                        k != k2 or c != -c2 for (k, c), (k2, c2) in zip(fwd, bwd)):
                    anti_failures.append((i, j))
        jacobi_failures = []
        zero = self.field.zero
        for i in range(self.dim):
            nz_i = nz[i]
            for j in range(i + 1, self.dim):
                nz_ij, nz_j = nz_i[j], nz[j]
                for k in range(j + 1, self.dim):
                    acc = None
                    for first, c in ((nz_ij, k), (nz_j[k], i), (nz[k][i], j)):
                        for m, coeff in first:
                            row = nz[m][c]
                            if row:
                                if acc is None:
                                    acc = [zero] * self.dim
                                for t, s in row:
                                    acc[t] = acc[t] + coeff * s
                    if acc is not None and any(acc):
                        jacobi_failures.append((i, j, k))
        return ValidationReport(tuple(anti_failures), tuple(jacobi_failures))

    def derived_subalgebra(self) -> Subspace:
        b = SpanBuilder(self.field, self.dim)
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                b.add(self.table[i][j])
        return b.subspace()

    def center(self) -> Subspace:
        """Kernel of the stacked adjoint map v -> ([v, x_1], ..., [v, x_n])."""
        rows = []
        for j in range(self.dim):
            for c in range(self.dim):
                rows.append([self.table[i][j][c] for i in range(self.dim)])
        m = Matrix.from_rows(self.field, rows, cols=self.dim)
        return kernel(m)

    def lower_central_series(self) -> list[Subspace]:
        """Terms L = L^1 >= L^2 >= ... including the first stabilized term."""
        series = [Subspace.full_space(self.field, self.dim)]
        while True:
            prev = series[-1]
            b = SpanBuilder(self.field, self.dim)
            for row in prev.basis.entries:
                b.add_all(self.ad(row))
            nxt = b.subspace()
            series.append(nxt)
            if nxt == prev or nxt.dim == 0:
                break
        return series

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
        return all(not any(self.table[i][j])
                   for i in range(self.dim) for j in range(self.dim))


@dataclass(frozen=True)
class ValidationReport:
    antisymmetry_failures: tuple[tuple[int, int], ...]
    jacobi_failures: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.antisymmetry_failures and not self.jacobi_failures

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "valid"
        parts = []
        if self.antisymmetry_failures:
            parts.append("antisymmetry fails at %s" % (list(self.antisymmetry_failures),))
        if self.jacobi_failures:
            parts.append("Jacobi fails at %s" % (list(self.jacobi_failures),))
        return "; ".join(parts)


@dataclass(frozen=True)
class BilinearMap:
    """A bilinear map between coordinate spaces, tabulated on basis pairs."""

    field: Field
    source_dim: int
    target_dim: int
    table: tuple[tuple[Vector, ...], ...]

    def __repr__(self):
        name = self.field.name
        return (f"BilinearMap({name}^{self.source_dim} x "
                f"{name}^{self.source_dim} -> {name}^{self.target_dim})")

    def apply(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
        if len(u) != self.source_dim or len(v) != self.source_dim:
            raise ValueError("dimension mismatch")
        acc = [self.field.zero] * self.target_dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = self.table[i]
            for j, vj in enumerate(v):
                if not vj:
                    continue
                cell = row[j]
                if any(cell):
                    f = ui * vj
                    for k, c in enumerate(cell):
                        if c:
                            acc[k] = acc[k] + f * c
        return tuple(acc)


def lie_algebra_from_table(field: Field, table, names=None) -> LieAlgebra:
    dim = len(table)
    tbl = tuple(tuple(tuple(v) for v in row) for row in table)
    if names is None:
        names = tuple(f"x{i + 1}" for i in range(dim))
    return LieAlgebra(field, dim, tbl, tuple(names))


def lie_algebra_from_brackets(field: Field, dim: int,
                              brackets: dict[tuple[int, int], Sequence[tuple[int, Scalar]]],
                              names=None) -> LieAlgebra:
    """Build a full antisymmetric table from sparse i < j bracket data."""
    zero = field.zero
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), entries in brackets.items():
        if not 0 <= i < j < dim:
            raise ValueError(f"bracket indices ({i},{j}) out of order or range")
        for k, c in entries:
            table[i][j][k] = table[i][j][k] + c
        for k in range(dim):
            table[j][i][k] = -table[i][j][k]
    return lie_algebra_from_table(field, table, names)


def quotient_algebra(L: LieAlgebra, ideal: Subspace) -> tuple[LieAlgebra, LinearMap]:
    """Quotient of L by an ideal, on the canonical complement coordinates.

    The ideal property [ideal, L] <= ideal is checked, not trusted.
    """
    if ideal.ambient_dim != L.dim:
        raise ValueError("ambient mismatch")
    for row in ideal.basis.entries:
        for j, w in enumerate(L.ad(row)):
            if not ideal.contains(w):
                raise NotIdealError(
                    f"subspace is not an ideal: [basis row, x{j}] escapes",
                    witness=w)
    qs = quotient_structure(L.dim, ideal)
    q = qs.dim
    reps = qs.coset_reps
    table = [[qs.project_vec(L.bracket(reps[a], reps[b])) for b in range(q)]
             for a in range(q)]
    names = tuple(f"q{c + 1}" for c in range(q))
    quotient = LieAlgebra(L.field, q, tuple(tuple(r) for r in table), names)
    report = quotient.validate()
    if not report.ok:
        raise InternalCheckError(
            f"quotient algebra fails validation: {report.describe()}")
    return quotient, LinearMap(qs.project)


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    if a.field != b.field:
        raise ValueError("field mismatch")
    n, m = a.dim, b.dim
    zero = a.field.zero
    table = [[[zero] * (n + m) for _ in range(n + m)] for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                table[i][j][k] = a.table[i][j][k]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                table[n + i][n + j][n + k] = b.table[i][j][k]
    return lie_algebra_from_table(a.field, table,
                                  names=a.basis_names + b.basis_names)


@dataclass(frozen=True)
class PairingCheck:
    ok: bool
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def is_lie_pairing(rho: BilinearMap, L: LieAlgebra, H: LieAlgebra) -> PairingCheck:
    """Check the three Lie-pairing compatibility axioms on basis tuples.

    Each side of each axiom is multilinear in every argument, so basis
    instances suffice.  Returns the first violated instance as a witness.
    """
    if rho.source_dim != L.dim or rho.target_dim != H.dim:
        raise ValueError("pairing dimensions do not match the algebras")
    n = L.dim
    e = [L.basis_vector(i) for i in range(n)]
    sc = L.table
    for l in range(n):
        for lp in range(n):
            for s in range(n):
                lhs = rho.apply(sc[l][lp], e[s])
                rhs = tuple(x - y for x, y in
                            zip(rho.apply(e[l], sc[lp][s]),
                                rho.apply(e[lp], sc[l][s])))
                if lhs != rhs:
                    return PairingCheck(False, ("axiom-i", (l, lp, s)))
                lhs2 = rho.apply(e[l], sc[lp][s])
                rhs2 = tuple(x - y for x, y in
                             zip(rho.apply(sc[s][l], e[lp]),
                                 rho.apply(sc[lp][l], e[s])))
                if lhs2 != rhs2:
                    return PairingCheck(False, ("axiom-ii", (l, lp, s)))
    for l in range(n):
        for s in range(n):
            u = sc[l][s]
            for lp in range(n):
                for sp in range(n):
                    v = sc[lp][sp]
                    lhs = rho.apply(u, v)
                    rhs = tuple(-x for x in H.bracket(rho.apply(e[s], e[l]),
                                                      rho.apply(e[lp], e[sp])))
                    if lhs != rhs:
                        return PairingCheck(False, ("axiom-iii", (l, s, lp, sp)))
    return PairingCheck(True)


def bracket_pairing(L: LieAlgebra) -> BilinearMap:
    """The motivating Lie pairing: (u, v) -> [u, v] landing in L itself."""
    return BilinearMap(L.field, L.dim, L.dim, L.table)


def ideal_closure(L: LieAlgebra, vectors: Sequence[Sequence[Scalar]]) -> Subspace:
    """Smallest ideal of L containing the given vectors."""
    builder = SpanBuilder(L.field, L.dim)
    work = [tuple(v) for v in vectors if builder.add(v)]
    while work:
        for w in L.ad(work.pop()):
            if builder.add(w):
                work.append(w)
    return builder.subspace()


class Subalgebra:
    """A bracket-closed subspace of L realized as an algebra in its own
    coordinates (the pivot coordinates of the canonical basis)."""

    def __init__(self, parent: LieAlgebra, space: Subspace):
        if space.ambient_dim != parent.dim:
            raise ValueError("ambient mismatch")
        self.parent = parent
        self.space = space
        basis = space.basis.entries
        k = space.dim
        table = []
        for a in range(k):
            row = []
            for b in range(k):
                w = parent.bracket(basis[a], basis[b])
                row.append(self.coords_of(w))
            table.append(tuple(row))
        names = tuple(f"s{c + 1}" for c in range(k))
        self.algebra = LieAlgebra(parent.field, k, tuple(table), names)
        self.inclusion = LinearMap(Matrix.from_rows(
            parent.field,
            [[basis[r][i] for r in range(k)] for i in range(parent.dim)],
            cols=k))

    def coords_of(self, v: Sequence[Scalar]) -> Vector:
        """Coordinates of an ambient vector in the canonical basis.

        For an RREF basis these are just the pivot-column entries; membership
        is verified by checking the residual.
        """
        coords = tuple(v[p] for p in self.space.pivots)
        residual = self.space.reduce(v)
        if any(residual):
            raise ValueError("vector does not lie in the subalgebra")
        return coords

