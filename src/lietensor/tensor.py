"""The nonabelian tensor square of a Lie algebra, and everything derived
from it: the square submodule, exterior square, commutator map and its
kernel, Schur multiplier, tensor/exterior centers, the Whitehead quadratic
functor, and executable checks of the structure theorems.

Construction model: the coordinate space on ordered basis pairs (i, j) is
divided by the span of the two crossed relations (Ellis, Glasgow Math. J.
33, 1991)

    r1(i,j,k) = [xi,xj](x)xk - xi(x)[xj,xk] + xj(x)[xi,xk]
    r2(i,j,k) = xi(x)[xj,xk] - [xk,xi](x)xj + [xj,xi](x)xk

and of the squares u(x)u of the derived subalgebra L^2.  Each relation is
linear in every slot, so basis instances generate, and fewer suffice.  With
the alternating J(i,j,k) = xi(x)[xj,xk] + xj(x)[xk,xi] + xk(x)[xi,xj] and
the bilinear symmetric s(u, v) = u(x)v + v(x)u, two identities hold as
vectors in every characteristic:

    r2(i,j,k) = r1(j,i,k) - r1(k,i,j) - J(i,j,k)
    r1(a,b,z) + J(z,a,b) = s([a,b], z)

So the relation space is the span of J, of s(L^2, L) and of u(x)u for u in
L^2.  J vanishes on a repeated index, and J(i,j,k) is 0 where the cells
(i,j), (j,k) and (k,i) are, so the triples i < j < k with a nonzero cell
among them suffice; they are read off the cells.  Let w_r be the echelon
rows of L^2, with pivots p_r, and f its free columns.  Then x_(p_r) is w_r
minus its terms on free columns, so by bilinearity s(L^2, L) is spanned by
the s(w_r, x_f) and the s(w_r, w_s).  By symmetry r <= s suffices, and
s(w, w) = 2 w(x)w.  The squares are additive modulo the s(u, v), since
(u+v)(x)(u+v) = u(x)u + v(x)v + s(u, v), so w_r(x)w_r suffice for them,
and those replace s(w_r, w_r): over GF(2), s(w, w) = 0 while w(x)w is
needed.  Hence the instances J(i,j,k), s(w_r, x_f), w_r(x)w_r and
s(w_r, w_s) for r < s span the relation space, with no r1 and no
characteristic case.  RREF is unique, so any spanning set gives the same
echelon rows.

The bracket of two generators is the pure tensor of the two brackets,
[xi(x)xj, xk(x)xl] = [xi,xj](x)[xk,xl]; since that again lies in the
generator span, the quotient vector space is already the entire tensor
square and no further closure pass is needed.  In quotient coordinates it
is the universal pairing of the two brackets, so each cell is read from
the pairing rather than reduced.  Well-definedness of the bracket modulo
relations and the Jacobi identity of the quotient are asserted at build
time, never assumed.

The construction stays sparse from end to end.  Each relation instance is a
{i*n+j: c} dict built from the nonzero structure constants, and the
relation space is linalg.span of the instances, inserted shortest first.
The universal pairing stores the sparse columns of the relation space's
projection as its cells; the quotient algebra is liealg.descended_algebra
of its values at the brackets, and the centers are read off its cells or
off the exterior pairing's, the cells projected onto L^L.  Each map on
the quotient (the commutator map, induced maps, factored pairings, the
commutator map of the exterior square) is Subspace.descend of its sparse
ambient columns, which also checks that the map kills the relations.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from typing import Sequence

from .errors import (Immutable, InternalCheckError, InvalidInputError,
                     Verdict)
from .fields import Scalar
from .liealg import (BilinearMap, LieAlgebra, descended_algebra,
                     homomorphism_failure, is_lie_pairing, quotient_by_ideal)
from .linalg import (Matrix, SparseVector, Subspace, Vector, add_scaled,
                     annihilator, combine, kernel, span, subspace_intersect,
                     subspace_sum)


class TensorSquare(Immutable):
    """The tensor square of ``base`` as an explicit quotient of the pure
    tensor coordinate space, together with the universal pairing.
    Immutable; the hash reads only the base, from which the other three
    fields are built."""

    _fields = ("base", "relation_space", "algebra", "pairing")
    _hashed = 1

    def __repr__(self):
        return (f"TensorSquare(dim {self.dim} over {self.base.field.name}, "
                f"base dim {self.base.dim})")

    @property
    def ambient_dim(self) -> int:
        return self.base.dim * self.base.dim

    @property
    def dim(self) -> int:
        return self.algebra.dim

    # ------------------------------------------------------------------
    # distinguished subobjects
    # ------------------------------------------------------------------

    def _polarised(self, a: int, b: int) -> SparseVector:
        """x_a (x) x_a if a == b, else x_a (x) x_b + x_b (x) x_a."""
        cells = self.pairing.cells
        if a == b:
            return cells[a][a]
        v = dict(cells[a][b])
        add_scaled(v, self.base.field.one, cells[b][a].items())
        return v

    @cached_property
    def square_submodule(self) -> Subspace:
        """Span of all images of v (x) v, which by polarization the
        _polarised(i, j) for i <= j generate in every characteristic.
        Centrality in the tensor square is asserted."""
        n = self.base.dim
        space = span(self.base.field, self.dim,
                     (self._polarised(i, j) for i in range(n)
                      for j in range(i, n)))
        for row in space.sparse_rows:
            if any(self.algebra.ad_sparse(row)):
                raise InternalCheckError(
                    "square submodule is not central in the tensor square")
        return space

    @cached_property
    def _exterior(self) -> tuple[LieAlgebra, Matrix]:
        # No ideal check: square_submodule raises unless every row is
        # central, and a central subspace is an ideal.
        return quotient_by_ideal(self.algebra, self.square_submodule)

    def exterior_square(self) -> tuple[LieAlgebra, Matrix]:
        """The exterior square (quotient by the square submodule) and the
        projection onto it."""
        return self._exterior

    @cached_property
    def _commutator(self) -> Matrix:
        """x_i (x) x_j -> [x_i, x_j] on T.  The bracket [a(x)b, c(x)d] =
        [a,b](x)[c,d] factors through it in each slot, so it is well defined
        exactly when this descent exists; build_tensor_square checks that."""
        L = self.base
        kappa = self.relation_space.descend(
            [row.get(j, {}) for row in L.cells for j in range(L.dim)], L.dim)
        if kappa is None:
            raise InternalCheckError(
                "commutator map does not kill a relation: the tensor-square "
                "bracket is not well defined on the relation quotient")
        return kappa

    @cached_property
    def commutator_map(self) -> tuple[Matrix, Subspace]:
        """The map sending a generator to the bracket of its two slots, with
        its kernel.  Vanishing on the relation space and the homomorphism
        property are asserted."""
        kappa = self._commutator
        bad = homomorphism_failure(kappa.sparse_columns, self.algebra, self.base)
        if bad is not None:
            raise InternalCheckError(
                "commutator map is not a homomorphism at basis pair (%d,%d)" % bad)
        return kappa, kernel(kappa)

    @cached_property
    def _schur_multiplier(self) -> Subspace:
        kappa, _ = self.commutator_map
        on_ext = self.square_submodule.descend(kappa.sparse_columns, kappa.rows)
        if on_ext is None:
            raise InternalCheckError(
                "commutator map does not vanish on the square submodule")
        return kernel(on_ext)

    def schur_multiplier(self) -> Subspace:
        """Kernel of the induced commutator map on the exterior square."""
        return self._schur_multiplier

    # Each center is the kernel of v -> (cell(v, x_j))_j, stacked over all
    # j, read off the sparse cells of the pairing or the exterior pairing.

    @cached_property
    def tensor_center(self) -> Subspace:
        """Elements annihilating every partner in the left slot."""
        cells = self.pairing.cells
        return annihilator(self.base.field, self.base.dim, self.dim,
                           lambda i, j: cells[i][j].items())

    @cached_property
    def tensor_center_right(self) -> Subspace:
        """Right-slot variant; reported as a diagnostic only."""
        cells = self.pairing.cells
        return annihilator(self.base.field, self.base.dim, self.dim,
                           lambda i, j: cells[j][i].items())

    @cached_property
    def exterior_center(self) -> Subspace:
        """Elements annihilating every partner in the exterior square."""
        wedge = self.exterior_pairing
        return annihilator(self.base.field, self.base.dim, wedge.target_dim,
                           lambda i, j: wedge.cells[i][j].items())

    @cached_property
    def exterior_pairing(self) -> BilinearMap:
        """(x, y) -> x^y: the pairing's cells projected onto the exterior
        square, the one place a wedge is formed."""
        ext, proj = self._exterior
        return BilinearMap(self.base.field, self.base.dim, ext.dim, tuple(
            tuple(combine(cell.items(), proj.sparse_columns) for cell in row)
            for row in self.pairing.cells))

    # ------------------------------------------------------------------
    # abelianization and the decomposition machinery
    # ------------------------------------------------------------------

    @cached_property
    def abelianization(self) -> "Abelianization":
        """The induced map onto the tensor square of L modulo its derived
        subalgebra, its kernel, and the canonical lifts used throughout."""
        L = self.base
        derived = L.derived_subalgebra
        # No ideal check: [L^2, L] lies in the span of the cells, which is
        # L^2.
        ab, to_ab = quotient_by_ideal(L, derived)
        tab = build_tensor_square(ab)
        pi = induced_map(self, to_ab, tab)
        return Abelianization(ab, to_ab, derived.free_cols, tab, pi,
                              kernel(pi))

    def verify_kernel_identity(self) -> Verdict:
        """The kernel of the abelianization map, computed three ways:
        as span of left tensors with the derived subalgebra, as the two-sided
        span, and as the matrix kernel.  All three must coincide."""
        ab = self.abelianization
        L = self.base
        derived = L.derived_subalgebra
        cells = self.pairing.cells
        by_right = list(zip(*cells))  # by_right[i][a] = x_a (x) x_i
        s_left = span(L.field, self.dim,
                      (combine(w.items(), cells[i])
                       for w in derived.sparse_rows for i in range(L.dim)))
        s_both = span(L.field, self.dim, chain(
            (combine(w.items(), by_right[i])
             for w in derived.sparse_rows for i in range(L.dim)),
            s_left.sparse_rows))
        ok = s_left == s_both == ab.kernel
        return Verdict(ok, f"dim {s_left.dim}/{s_both.dim}/{ab.kernel.dim}")

    @cached_property
    def _complement(self) -> Subspace:
        """The canonical complement of the square submodule: lifted
        off-diagonal pure tensors plus the abelianization kernel."""
        f = self.abelianization.lift_cols
        cells = self.pairing.cells
        return span(self.base.field, self.dim, chain(
            (cells[a][b] for i, a in enumerate(f) for b in f[i + 1:]),
            self.abelianization.kernel.sparse_rows))

    def verify_decomposition(self) -> Verdict:
        """Tensor square = square submodule (+) complement, with the
        complement an ideal isomorphic to the exterior square."""
        sq = self.square_submodule
        comp = self._complement
        full = self.dim
        sum_dim = subspace_sum(comp, sq).dim
        if sum_dim != comp.dim + sq.dim:
            return Verdict(False, "complement meets the square submodule")
        if sum_dim != full:
            return Verdict(False, "complement + square submodule is not everything")
        alg = self.algebra
        for row in comp.sparse_rows:
            if any(map(comp.reduce_sparse, alg.ad_sparse(row))):
                return Verdict(False, "complement is not an ideal")
        # Then the projection onto the exterior square maps comp
        # isomorphically.  Bijective: its kernel is sq (Subspace.project),
        # which meets comp in 0, and the exterior square is on sq's free
        # columns, of which there are full - dim sq = dim comp.  A
        # homomorphism: sq is central (square_submodule raises otherwise,
        # and alg is alternating), so [u, v] is the bracket of the vectors
        # on those columns that are u and v modulo sq, and _exterior =
        # quotient_by_ideal(alg, sq) brackets them by projecting alg's cells.
        return Verdict(True, f"{full} = {sq.dim} + {comp.dim}")

    def verify_j2_decomposition(self) -> Verdict:
        """Kernel of the commutator map = square submodule (+) multiplier."""
        _, j2 = self.commutator_map
        sq = self.square_submodule
        mult = self.schur_multiplier()
        if j2.dim != sq.dim + mult.dim:
            return Verdict(False,
                           f"dim mismatch: {j2.dim} != {sq.dim} + {mult.dim}")
        cj = subspace_intersect(self._complement, j2)
        summands = subspace_sum(sq, cj)
        if summands.dim != sq.dim + cj.dim:
            return Verdict(False, "summands intersect")
        if summands != j2:
            return Verdict(False, "summands do not fill the kernel")
        # The three checks above give dim cj = dim j2 - dim sq = dim mult.
        if self._exterior[1].image_of(cj) != mult:
            return Verdict(False, "complement part does not map onto the multiplier")
        return Verdict(True, f"{j2.dim} = {sq.dim} + {mult.dim}")

    def verify_center_identity(self) -> Verdict:
        """Exterior center intersected with the derived subalgebra equals the
        tensor center; also the containment chain of the three centers."""
        tc = self.tensor_center
        ec = self.exterior_center
        derived = self.base.derived_subalgebra
        if subspace_intersect(ec, derived) != tc:
            return Verdict(False, "intersection identity fails")
        # So tc = ec cap L^2 lies in ec: the chain needs no check there.
        if not self.base.center.contains_space(ec):
            return Verdict(False, "exterior center escapes the center")
        return Verdict(True, f"dim {tc.dim} = dim ({ec.dim} cap {derived.dim})")

    def verify_square_restriction(self) -> Verdict:
        """The abelianization map restricted to the square submodule is an
        isomorphism onto the square submodule downstairs."""
        ab = self.abelianization
        sq = self.square_submodule
        m = ab.algebra.dim
        image = ab.map.image_of(sq)
        # Rank-nullity: image.dim = sq.dim - dim (sq cap ab.kernel), so the
        # restriction is injective exactly when the image keeps dim sq.
        if image.dim != sq.dim:
            return Verdict(False, "restriction is not injective")
        if image != ab.tensor.square_submodule:
            return Verdict(False, "image differs from the abelian square submodule")
        if sq.dim != m * (m + 1) // 2:
            return Verdict(False, f"dim {sq.dim} != {m}({m}+1)/2")
        return Verdict(True, f"dim {sq.dim} = {m}({m}+1)/2")

    # ------------------------------------------------------------------
    # universal property and the Whitehead functor
    # ------------------------------------------------------------------

    def factor_pairing(self, rho: BilinearMap, H: LieAlgebra) -> Matrix:
        """The unique linear factorization of a Lie pairing through the
        universal one."""
        check = is_lie_pairing(rho, self.base, H)
        if not check.ok:
            raise InvalidInputError(f"not a Lie pairing: witness {check.witness}")
        zeta = self.relation_space.descend(
            [cell for row in rho.cells for cell in row], H.dim)
        if zeta is None:
            raise InvalidInputError(
                "pairing does not vanish on the tensor relations")
        # zeta recovers rho with no check: the pure tensors are the columns
        # of the projection, and descend(f).mul(project) = f.
        return zeta

    @cached_property
    def whitehead_gamma(self) -> "WhiteheadGamma":
        """The universal quadratic functor on L modulo its derived subalgebra,
        with its natural map onto the square submodule (asserted bijective)."""
        f = self.abelianization.lift_cols
        m = len(f)
        gamma_dim = m * (m + 1) // 2
        cols = tuple(self._polarised(a, a) for a in f) + tuple(
            self._polarised(a, b) for i, a in enumerate(f) for b in f[i + 1:])
        to_square = Matrix(self.base.field, self.dim, gamma_dim, cols)
        image = to_square.image()
        if image != self.square_submodule:
            raise InternalCheckError("Whitehead map is not onto the square submodule")
        if image.dim != gamma_dim:  # the rank, on gamma_dim columns
            raise InternalCheckError("Whitehead map is not injective")
        return WhiteheadGamma(m, gamma_dim, to_square)


class Abelianization(Immutable):
    """L/L^2 and its tensor square; the canonical lifts of its basis are the
    unit vectors of L at lift_cols, the free columns of L^2.  Immutable."""

    _fields = ("algebra", "to_ab", "lift_cols", "tensor", "map", "kernel")


class WhiteheadGamma(Immutable):
    """Basis: one generator per coordinate (diagonal), then one per unordered
    pair i < j; dimension m(m+1)/2 in every characteristic.  Immutable."""

    _fields = ("rank", "dim", "to_square")

    def quadratic(self, v: Sequence[Scalar]) -> Vector:
        """The universal quadratic map in these coordinates."""
        if len(v) != self.rank:
            raise ValueError("dimension mismatch")
        coords = [a * a for a in v]
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                coords.append(v[i] * v[j])
        return tuple(coords)


# Bounded, like every cache in the package; verify --catalog reuses a square
# up to 62 distinct builds later.
@lru_cache(maxsize=128)
def build_tensor_square(L: LieAlgebra) -> TensorSquare:
    """Construct the tensor square of a validated algebra.

    Raises InternalCheckError if any build-time coherence check fails (the
    construction is guaranteed for genuine Lie algebras, so a failure here
    signals an implementation bug rather than bad input).
    """
    n = L.dim
    field = L.field
    one = field.one
    nz, empty = L.cells, {}

    def symmetric(u: SparseVector, w: SparseVector) -> SparseVector:
        v: SparseVector = {}  # u (x) w + w (x) u
        for a, x in u.items():
            for b, y in w.items():
                add_scaled(v, one, ((a * n + b, x * y), (b * n + a, x * y)))
        return v

    # J on the triples i < j < k with a nonzero cell among them (module
    # docstring), as sparse {a*n+b: c} dicts; its three terms lie in the
    # distinct rows i, j and k of the n x n coordinates.
    triples = sorted({tuple(sorted((i, j, k)))
                      for i, row in enumerate(nz) for j in row if i < j
                      for k in range(n) if k not in (i, j)})
    instances: list[SparseVector] = []
    for i, j, k in triples:
        v = {i * n + b: c for b, c in nz[j].get(k, empty).items()}
        v.update((j * n + b, -c) for b, c in nz[i].get(k, empty).items())
        v.update((k * n + b, c) for b, c in nz[i].get(j, empty).items())
        instances.append(v)
    # s(L^2, L) and the squares on L^2 (module docstring): s(w, x_f) for the
    # echelon rows w of L^2 and its free columns f, then w_r (x) w_r and
    # s(w_r, w_s) for r < s.
    derived = L.derived_subalgebra
    rows = derived.sparse_rows
    instances += (symmetric(w, {f: one})
                  for w in rows for f in derived.free_cols)
    for r, w in enumerate(rows):
        instances.append({a * n + b: x * y for a, x in w.items()
                          for b, y in w.items()})
        instances += (symmetric(w, u) for u in rows[r + 1:])
    # Shortest first, so that long instances are reduced against short
    # echelon rows; RREF is unique, so the order cannot move the result.
    instances.sort(key=len)
    relations = span(field, n * n, instances)

    # x_i (x) x_j in quotient coordinates is column i*n+j of the projection.
    pure = relations.project.sparse_columns
    pairing = BilinearMap(field, n, len(relations.free_cols),
                          tuple(pure[i * n:(i + 1) * n] for i in range(n)))
    nonzero = [(b, cell)  # the free columns are the only ones read
               for b in relations.free_cols if (cell := nz[b // n].get(b % n))]

    def classes(p: int):
        # [x_i (x) x_j, x_k (x) x_l] = [x_i, x_j] (x) [x_k, x_l], whose class
        # is the pairing of the two brackets
        u = nz[p // n].get(p % n)
        for b, w in nonzero if u else ():
            yield b, pairing.apply_sparse(u, w)

    names = tuple(f"{L.basis_names[p // n]}(x){L.basis_names[p % n]}"
                  for p in relations.free_cols)
    algebra = descended_algebra(relations, classes, names)
    report = algebra.validate()  # no input proves it (quotient_by_ideal)
    if not report.ok:
        raise InternalCheckError(f"tensor square invalid: {report.detail}")
    T = TensorSquare(L, relations, algebra, pairing)
    T._commutator  # raises unless the bracket is well defined
    return T


def induced_map(src: TensorSquare, f: Matrix, dst: TensorSquare) -> Matrix:
    """Functorial map of tensor squares induced by a homomorphism of the
    bases; asserted to kill the source relations."""
    images = f.sparse_columns
    induced = src.relation_space.descend(
        [dst.pairing.apply_sparse(fi, fj) for fi in images for fj in images],
        dst.dim)
    if induced is None:
        raise InternalCheckError("induced map does not kill a relation")
    return induced


class TensorReport(Immutable):
    """Dimension table and theorem verdicts for one algebra.  Its fields
    cannot be reassigned; the dicts make it unhashable."""

    _fields = ("dims", "verdicts", "diagnostics", "subspaces")


def tensor_report(T: TensorSquare) -> TensorReport:
    L = T.base
    derived = L.derived_subalgebra
    _, j2 = T.commutator_map
    mult = T.schur_multiplier()
    ext, _ = T.exterior_square()
    sq = T.square_submodule
    tc = T.tensor_center
    ec = T.exterior_center
    tc_right = T.tensor_center_right
    ab = T.abelianization
    dims = {
        "algebra": L.dim,
        "derived": derived.dim,
        "center": L.center.dim,
        "tensor_square": T.dim,
        "square_submodule": sq.dim,
        "exterior_square": ext.dim,
        "j2": j2.dim,
        "schur_multiplier": mult.dim,
        "tensor_center": tc.dim,
        "exterior_center": ec.dim,
        "abelianization_kernel": ab.kernel.dim,
    }
    verdicts = {
        "decomposition": T.verify_decomposition(),
        "j2_decomposition": T.verify_j2_decomposition(),
        "center_identity": T.verify_center_identity(),
        "square_restriction": T.verify_square_restriction(),
        "kernel_identity": T.verify_kernel_identity(),
    }
    pairing_ok = is_lie_pairing(T.pairing, L, T.algebra)
    whitehead = T.whitehead_gamma
    diagnostics = {
        "dim_additivity": T.dim == sq.dim + ext.dim and ext.dim == mult.dim + derived.dim,
        "universal_pairing_axioms": bool(pairing_ok.ok),
        "tensor_center_right_dim": tc_right.dim,
        "tensor_center_two_sided": tc == tc_right,
        "whitehead_rank": whitehead.dim,
    }
    subspaces = {
        "square_submodule": sq,
        "j2": j2,
        "schur_multiplier": mult,
        "tensor_center": tc,
        "exterior_center": ec,
        "abelianization_kernel": ab.kernel,
    }
    return TensorReport(dims, verdicts, diagnostics, subspaces)
