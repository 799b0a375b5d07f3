r"""Free presentations of nilpotent Lie algebras, the second computation path
for the exterior square and the Schur multiplier; and the cover, built from
the exterior square with no free algebra.

For an algebra L of nilpotency class c with d = dim L/[L,L], the presenting
free algebra is the free nilpotent algebra F on d generators of class c + 1.
Truncating one class above L is enough: the kernel of F -> L contains every
bracket of weight above c, so the commutator of the kernel with F contains
every bracket of weight above c + 1, and the quotients built here are
unchanged by cutting F off at class c + 1.

Write L = F/R, with X the d generators of F.  Both are read off one quotient
E = F'/[R,F], on four arguments:

- R lies in F' (Hopf), so it is computed there: R = ker(F' -> L).  The
  generators go to the unit vectors at L^2's free columns and every
  composite Hall word goes into L^2; the two spans meet only in 0, so a
  vector of ker(F -> L) has zero generator coordinates.  F' is the span
  of the composite Hall words, so R and [R,F] are held on those positions
  shifted by -d, and no intersection is computed.
- [R,F] = [R,X].  By the Jacobi identity [r,[u,x]] = [[r,u],x] - [[r,x],u];
  R is an ideal, so induction on the degree of the left-normed word [u,x]
  spans [R,F] by the brackets [r, x] with r in R and x in X.  [R,F] is an
  ideal with no check: R is one, and F satisfies Jacobi, so
  [[r,u],y] = [[r,y],u] + [r,[u,y]] lies in [R,F].  So E is built without
  an ideal check.
- X decides the other checks too.  The linear map f: F -> L is a
  homomorphism once f[x, y] = [fx, fy] for x in X and every y: the set S of
  u with f[u, y] = [fu, fy] for all y is a subspace, and for u, v in S the
  Jacobi identity in F and in L gives
  f[[u,v],y] = [fu, f[v,y]] - [fv, f[u,y]] = [[fu,fv],fy] = [f[u,v], fy],
  so S is a subalgebra containing X, hence F.
- The exterior square F'/[R,F] is the quotient of F' alone: F' is F on
  its composite positions d.., which hold every bracket, and [R,F] lies
  in R, inside F', so it is an ideal of F'.  The multiplier R/[R,F] is
  the image of R under the projection onto E, and the theorem map
  E -> L /\ L is read on F' too.  G = F/[R,F] is never built: its
  generator rows hold most of F's nonzero cells, and no result reads
  them.  Nor is F' copied: the quotient reads only F's rows at E's free
  columns.

The cover.  A2 is the alternating square of L on the pairs x_i^x_j, i < j,
and d3(x^y^z) = [x,y]^z - [x,z]^y + [y,z]^x.  E = A2/d3(A3) is the exterior
square for every L (G. Ellis, Glasgow Math. J. 33, 1991), and
kappa: x^y -> [x,y] kills d3(A3) by the Jacobi identity.  V is spanned by
the lifts above, the unit vectors at the free columns of L^2.  The cover is
C = V (+) E with pi(v + a) = v + kappa(a) and [c, c'] = the class of
pi(c)^pi(c').  No step needs L nilpotent:
- pi is onto, so the pi(c)^pi(c') span A2 and C' = E; and
  pi[c, c'] = kappa(pi(c)^pi(c')) = [pi c, pi c'].
- ker pi = ker kappa|E, as kappa(E) = L^2 meets V in 0, so it is held on
  E; this is M(L) (Ellis).  It is central, as [m, c] is the class of
  0^pi(c), and lies in C'.  So C is a cover (P. Batten, K. Moneyhun and
  E. Stitzinger, Comm. Algebra 24, 1996).  For nilpotent L, C = F/[R,F] by
  Hopf: C is then nilpotent and V spans it modulo C', so F -> C, X -> V, is
  onto; it kills [R,F], as R lands in the central ker pi; and
  dim C = dim L + dim M(L) = dim F/[R,F].

Both routes end in theorem_map_verdict: their theorem map E -> L /\ L
commutes with the commutator maps to L, so, being bijective, it carries
R/[R,F] or ker pi, held on E, onto M(L).  The cover is the one second
route to M(L) for an L no presentation sees.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import combinations, compress

from .catalog import MAX_AMBIENT
from .errors import (Immutable, InternalCheckError, NotNilpotentError,
                     OutsideEnvelopeError, TheoremViolationError, Verdict)
from .liealg import (BilinearMap, LieAlgebra, homomorphism_failure,
                     lie_algebra_from_brackets, quotient_by_ideal)
from .linalg import Matrix, Subspace, add_scaled, combine, kernel, span
from .freenilp import dimension_exceeds, free_nilpotent
from .tensor import TensorSquare


class FreePresentation(Immutable):
    """A surjection from a truncated free algebra F onto L with its kernel
    data.  onto is the surjection on all of F.  relations is its kernel R
    and relations_commutator is [R,F], the span of brackets of kernel
    elements with the whole algebra; both lie in F' (module docstring) and
    are held in its coordinates, F's positions d.. shifted by -d.
    Immutable.
    """

    _fields = ("L", "free", "onto", "relations", "relations_commutator")

    def __repr__(self):
        return (f"FreePresentation(L dim {self.L.dim}, free dim "
                f"{self.free.algebra.dim}, relations dim {self.relations.dim})")

    @cached_property
    def exterior_quotient(self) -> tuple[LieAlgebra, Matrix]:
        """E = F'/[R,F] and the projection of F' onto it.  F' is F on its
        positions d.., which hold every bracket (checked in presentation_of).
        [R,F] is an ideal of F, as R is one and F satisfies Jacobi (module
        docstring), hence of F', so E needs no validation (quotient_by_ideal)."""
        return quotient_by_ideal(self.free.algebra, self.relations_commutator,
                                 self.free.d)

    @property
    def exterior(self) -> LieAlgebra:
        """F'/[R,F] (exterior_quotient)."""
        return self.exterior_quotient[0]


class Cover(Immutable):
    """C = V (+) E (module docstring): V at C's first d positions, E at the
    free columns of boundaries; onto is pi, and multiplier its kernel, held
    on E's coordinates, C's positions d.. shifted by -d.  Immutable."""

    _fields = ("L", "algebra", "multiplier", "onto", "boundaries", "d")


@lru_cache(maxsize=64)
def presentation_of(L: LieAlgebra) -> FreePresentation:
    """Present a nilpotent algebra by the free nilpotent algebra on canonical
    lifts of a basis of L modulo its derived subalgebra.  L must satisfy the
    Jacobi identity, as every algebra the catalog and the CLI build is
    validated: the homomorphism check rests on it (module docstring).

    The free algebra is held to the bound that the free-nilpotent command
    puts on the same object, MAX_AMBIENT dimensions, and is not built when
    it would exceed it: a valid algebra of dimension at most MAX_DIM can
    still need a free algebra of thousands of dimensions (the filiform
    algebra of dimension 16 needs the one on 2 generators of class 16)."""
    cls = L.nilpotency_class()
    if cls is None:
        raise NotNilpotentError("free presentations require a nilpotent algebra")
    derived = L.derived_subalgebra
    lifts = derived.free_cols  # x_c for each non-pivot column c
    d = len(lifts)
    if dimension_exceeds(d, cls + 1, MAX_AMBIENT):
        raise OutsideEnvelopeError(
            f"the presenting free nilpotent algebra (d={d}, c={cls + 1}) has "
            f"more than {MAX_AMBIENT} dimensions, outside the design envelope")
    F = free_nilpotent(d, cls + 1, L.field)
    n = F.algebra.dim

    # Sparse images of the Hall words: a generator goes to its lift, a
    # bracket word to the bracket of the images of its factors, which come
    # earlier because the words are ordered by degree.
    one = L.field.one
    images = [{lift: one} for lift in lifts]
    for u, v in F.factors[d:]:
        images.append(L.bracket_sparse(images[u], images[v]))
    onto = Matrix(L.field, L.dim, n, tuple(images))
    # R = ker(F -> L) lies in F' (Hopf): the lifts are the unit vectors at
    # L^2's free columns, the composite words go into L^2, and the two
    # spans meet only in 0, so a kernel vector has no generator part.  So
    # R is the kernel on the composite words, in F' coordinates; and by
    # rank + nullity = n, onto has rank dim L, so the lifts generate L,
    # exactly when R has dimension n - dim L: one elimination.
    relations = kernel(Matrix(L.field, L.dim, n - d, tuple(images[d:])))
    if relations.dim != n - L.dim:
        raise InternalCheckError("canonical lifts do not generate the algebra")
    # Only the generator rows: they generate F, and F and L satisfy Jacobi
    # (module docstring).  They come first in row-major order, so the first
    # failing pair is the one the loop over every row would report.
    bad = homomorphism_failure(images, F.algebra, L, rows=d)
    if bad is not None:
        raise InternalCheckError(
            "presentation map is not a homomorphism at (%d,%d)" % bad)
    # F' is the span of the composite Hall words d..n-1, read off the cells
    # without elimination: no cell has support below d, so F' lies in their
    # span; and each composite word k with factors (u, v) is the cell
    # (u, v), so their span lies in F'.  Checked before any cell is shifted
    # by -d below.
    cells = F.algebra.cells
    if any(min(cell) < d for row in cells for cell in row.values()) or \
            any(cells[u].get(v) != {k: 1}
                for k, (u, v) in enumerate(F.factors[d:], d)):
        raise InternalCheckError("derived basis is not coordinate-aligned")

    # [R, F] = [R, X] on the generators, the first d Hall words, in F'
    # coordinates: ad[g] holds F's cells (k, g) for k >= d.  The
    # homomorphism check above makes R = ker(F -> L) an ideal, so [R, F]
    # lies in R; and it is an ideal itself, as F satisfies Jacobi (validated
    # in freenilp._integer_structure; module docstring).
    # Only the rows below the top layer, degree c + 1, are bracketed.  The
    # words are ordered by degree and an echelon row has no support before
    # its pivot, so a row with its pivot in the top layer lies in that
    # layer; its bracket with a generator has degree c + 2, zero in F, so it
    # spans nothing.  Pivots increase, so those rows are a prefix.
    top = bisect_left(F.degrees, cls + 1) - d
    below_top = bisect_left(relations.pivots, top)
    ad = [[{m - d: x for m, x in row.get(g, {}).items()} for row in cells[d:]]
          for g in range(d)]
    relations_commutator = span(
        L.field, n - d, (combine(r.items(), ad_g)
                         for r in relations.sparse_rows[:below_top]
                         for ad_g in ad))
    # The truncation layer, degree c + 1, dies in L with no check: a word of
    # that degree maps to a (c+1)-fold bracket, zero as L has class c, so
    # its unit vector lies in the kernel on the composite words, which is R.
    return FreePresentation(L, F, onto, relations, relations_commutator)


def exterior_via_presentation(
        P: FreePresentation,
        tensor: TensorSquare) -> tuple[LieAlgebra, Matrix]:
    """The exterior square computed from the presentation, with the explicit
    isomorphism onto the tensor engine's (_theorem_map).  Raises
    TheoremViolationError if that map is not a bijective homomorphism."""
    eps = _theorem_map(P, tensor)
    _check_isomorphism(eps, P.exterior, tensor.exterior_square()[0])
    return P.exterior, eps


def verify_presentation_theorem(P: FreePresentation,
                                tensor: TensorSquare) -> Verdict:
    """theorem_map_verdict on the map of exterior_via_presentation and
    R/[R,F]; raises TheoremViolationError if the map does not kill [R,F]."""
    return theorem_map_verdict(_theorem_map(P, tensor), P.exterior, tensor,
                               multiplier_via_presentation(P))


def _theorem_map(P: FreePresentation, tensor: TensorSquare) -> Matrix:
    """E -> L /\\ L: on F', each composite Hall word goes to the wedge of
    the images of its two factors; the map must kill [R,F]."""
    wedge = tensor.exterior_pairing
    F, onto = P.free, P.onto.sparse_columns
    eps = P.relations_commutator.descend(
        [wedge.apply_sparse(onto[u], onto[v]) for u, v in F.factors[F.d:]],
        tensor.exterior_square()[0].dim)
    if eps is None:
        raise TheoremViolationError(
            "wedge map does not kill the relation commutator")
    return eps


def theorem_map_verdict(eps: Matrix, source: LieAlgebra, tensor: TensorSquare,
                        multiplier: Subspace) -> Verdict:
    """Whether a second engine's theorem map eps: source -> L /\\ L is a
    bijective homomorphism carrying that engine's multiplier, given in
    source's coordinates, onto the tensor engine's: being injective, it
    does once the rows' images lie in M(L) and the dimensions agree."""
    ext = tensor.exterior_square()[0]
    try:
        _check_isomorphism(eps, source, ext)
    except TheoremViolationError as exc:
        return Verdict(False, str(exc))
    mult, cols = tensor.schur_multiplier(), eps.sparse_columns
    if multiplier.dim != mult.dim or any(
            mult.reduce_sparse(combine(row.items(), cols))
            for row in multiplier.sparse_rows):
        return Verdict(False, f"the theorem map does not carry the multiplier"
                              f" (dim {multiplier.dim}) onto M(L) ({mult.dim})")
    return Verdict(True, f"derived dim {source.dim} = exterior dim {ext.dim}")


def _check_isomorphism(f: Matrix, source: LieAlgebra, target: LieAlgebra):
    """Assert that a linear map is a bijective homomorphism, hence an
    isomorphism of Lie algebras.

    Its inverse g needs no check of its own: g[x,y] = g[fgx, fgy] =
    gf[gx, gy] = [gx, gy], using only that f is a bijective homomorphism.
    """
    if not f.is_bijective():
        raise TheoremViolationError(f"map from dimension {source.dim} to "
                                    f"{target.dim} is not bijective")
    bad = homomorphism_failure(f.sparse_columns, source, target)
    if bad is not None:
        raise TheoremViolationError(
            "map is not a homomorphism at basis pair (%d,%d)" % bad)


def multiplier_via_presentation(P: FreePresentation) -> Subspace:
    """Image of the relations in the presentation quotient, R/[R,F]; its
    dimension is the Schur multiplier dimension.  R is held on F', and its
    image under the projection onto E is given in the coordinates of
    P.exterior."""
    _, project = P.exterior_quotient
    return project.image_of(P.relations)


def _restrict(K: LieAlgebra, d: int) -> LieAlgebra:
    """K on its positions d..dim K - 1, which must hold every bracket: its
    one caller, verify_cover_theorem, first checks that K' has the pivots
    d.., and LieAlgebra refuses an index below 0 all the same."""
    cells = tuple({j - d: {k - d: x for k, x in cell.items()}
                   for j, cell in row.items() if j >= d} for row in K.cells[d:])
    return LieAlgebra(K.field, K.dim - d, cells,
                      tuple(f"q{c + 1}" for c in range(K.dim - d)))


def _wedge(n: int, one) -> list:
    """wedge[i][j] = x_i^x_j on A2's pairs i < j, in combinations order."""
    index = {p: r for r, p in enumerate(combinations(range(n), 2))}
    return [[{index[i, j]: one} if i < j else {index[j, i]: -one} if i > j
             else {} for j in range(n)] for i in range(n)]


def boundaries(L: LieAlgebra) -> Subspace:
    """d3(A3) in the pair coordinates: A2 modulo it is the exterior square
    of L, for every L (module docstring).  combine(cell, wedge[m]) is
    x_m^cell, and a triple whose three cells are zero has d3 = 0."""
    nz, one, wedge = L.cells, L.field.one, _wedge(L.dim, L.field.one)
    rows = []
    for i, j, k in combinations(range(L.dim), 3):
        ij, ik, jk = nz[i].get(j, {}), nz[i].get(k, {}), nz[j].get(k, {})
        if ij or ik or jk:
            row: dict = {}
            for cell, m, sign in ((ij, k, -one), (ik, j, one), (jk, i, -one)):
                add_scaled(row, sign, combine(cell.items(), wedge[m]).items())
            rows.append(row)
    return span(L.field, L.dim * (L.dim - 1) // 2, rows)


def build_cover(L: LieAlgebra) -> Cover:
    """The cover C = V (+) E of a validated algebra, nilpotent or not
    (module docstring): the bracket (a, b) is pi(a)^pi(b) through
    x_i^x_j -> its class in C.  Its one check is that kappa kills d3."""
    field, n, one = L.field, L.dim, L.field.one
    space = boundaries(L)
    kappa = space.descend([L.cells[i].get(j, {})
                           for i, j in combinations(range(n), 2)], n)
    if kappa is None:
        raise InternalCheckError("the commutator map does not kill a boundary")
    lifts = L.derived_subalgebra.free_cols
    d, dim = len(lifts), len(lifts) + kappa.cols
    pi = tuple([{c: one} for c in lifts] + list(kappa.sparse_columns))
    project = space.project.sparse_columns
    in_C = [{d + r: x for r, x in col.items()} for col in project]
    classes = BilinearMap(field, n, dim, tuple(
        tuple(combine(w.items(), in_C) for w in row) for row in _wedge(n, one)))
    C = lie_algebra_from_brackets(field, dim, {
        (a, b): classes.apply_sparse(pi[a], pi[b]).items()
        for a, b in combinations(compress(range(dim), pi), 2)},
        tuple(f"c{k + 1}" for k in range(dim)))
    # The descent of kappa proves the rest.  pi is a homomorphism:
    # descend(f).mul(project) = f for f: x_i^x_j -> [x_i, x_j], so
    # pi[a, b] = kappa(class of pi a^pi b) = [pi a, pi b].  So C, which
    # lie_algebra_from_brackets makes antisymmetric, satisfies Jacobi: the
    # sum at (a, b, c) is the class of [x,y]^z + [y,z]^x + [z,x]^y =
    # d3(x^y^z), with x, y, z the images under pi.  kappa has the image of
    # f, L^2, so dim C = d + dim E = n + dim ker kappa by rank-nullity.
    # ker pi is ker kappa, on E, as kappa lands in L^2, which meets V in 0;
    # it is central, as [m, c] = classes(0, pi c) = 0.
    return Cover(L, C, kernel(kappa), Matrix(field, n, dim, pi), space, d)


def verify_cover_theorem(cover: Cover, tensor: TensorSquare) -> Verdict:
    """C' is isomorphic to the exterior square of L's tensor square, through
    x_i^x_j -> the cell (i, j) of tensor.exterior_pairing.  C' = E (module
    docstring) is checked: C' has the pivots d..dim C - 1, so its
    coordinates are those positions shifted by d, E's.  The map must kill
    d3(A3), to be defined on E; theorem_map_verdict decides the rest, with
    ker pi held on E."""
    L, C, d = cover.L, cover.algebra, cover.d
    wedge_alg, wedge = tensor.exterior_square()[0], tensor.exterior_pairing
    derived = C.derived_subalgebra
    if derived.dim != wedge_alg.dim:
        return Verdict(False, f"dims differ: cover derived {derived.dim}, "
                              f"exterior {wedge_alg.dim}")
    if tensor.base != L:
        return Verdict(False, "the tensor square is of another algebra")
    if derived.pivots != tuple(range(d, C.dim)):
        return Verdict(False, "cover derived subalgebra is not the span of "
                              "its positions d..dim C - 1")
    eps = cover.boundaries.descend(
        [wedge.cells[i][j] for i, j in combinations(range(L.dim), 2)],
        wedge_alg.dim)
    if eps is None:
        return Verdict(False, "the wedge map does not kill d3")
    return theorem_map_verdict(eps, _restrict(C, d), tensor, cover.multiplier)
