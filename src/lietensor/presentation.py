r"""Free presentations of nilpotent Lie algebras: the second computation path
for the exterior square and the Schur multiplier, plus cover construction.

For an algebra L of nilpotency class c with d = dim L/[L,L], the presenting
free algebra is the free nilpotent algebra F on d generators of class c + 1.
Truncating one class above L is enough: the kernel of F -> L contains every
bracket of weight above c, so the commutator of the kernel with F contains
every bracket of weight above c + 1, and the quotients built here (the
derived subalgebra modulo that commutator, its multiplier part, and the
cover) are unchanged by cutting F off at class c + 1.

Write L = F/R, with X the d generators of F.  Everything is read off one
quotient G = F/[R,F], on three arguments:

- R lies in F' (Hopf).  The generators go to lifts that are independent
  modulo L^2, and every composite Hall word goes into L^2, so a relation
  has zero generator coordinates.  F' is the span of the composite Hall
  words, so R = R /\ F' and no intersection is computed.
- [R,F] = [R,X].  By the Jacobi identity [r,[u,x]] = [[r,u],x] - [[r,x],u];
  R is an ideal, so induction on the degree of the left-normed word [u,x]
  spans [R,F] by the brackets [r, x] with r in R and x in X.  Likewise ad is
  a Lie homomorphism and X generates F, so a subspace closed under ad(x)
  for x in X is closed under ad(F): an ideal.  presentation_of proves [R,F]
  closed under ad(X), so G is built without a second ideal check.
- X decides the other checks too.  The linear map f: F -> L is a
  homomorphism once f[x, y] = [fx, fy] for x in X and every y: the set S of
  u with f[u, y] = [fu, fy] for all y is a subspace, and for u, v in S the
  Jacobi identity in F and in L gives
  f[[u,v],y] = [fu, f[v,y]] - [fv, f[u,y]] = [[fu,fv],fy] = [f[u,v], fy],
  so S is a subalgebra containing X, hence F.  Likewise the centralizer of
  an element is a subalgebra, so an element of G that commutes with the
  images of X is central.
- G is the cover.  R/[R,F] is central in G and equals (R /\ F')/[R,F], the
  multiplier, so the complement of the multiplier inside R/[R,F] is zero
  and the cover F/[R,F] needs no second quotient.  The exterior square
  F'/[R,F] is G restricted to its composite positions.
- G' is the span of those composite positions d..dim G - 1, so the cover
  theorem is read off G.  No cell of F has support below d, and no [R,F]
  pivot lies below d (an echelon row has no support before its pivot), so
  no cell of G, a residual of a cell of F modulo [R,F], has support below
  d: G' lies in their span.  And each composite free column w is the image
  of the Hall bracket [left(w), right(w)], so their span lies in G'.  In
  the coordinates of G' (its echelon rows are those unit vectors) its cells
  are exactly the cells of F'/[R,F], and the map from F'/[R,F] is the
  identity.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from typing import Optional

from .catalog import MAX_AMBIENT
from .errors import (InternalCheckError, NotNilpotentError,
                     OutsideEnvelopeError, TheoremViolationError, Verdict)
from .liealg import LieAlgebra, homomorphism_failure, quotient_by_ideal
from .linalg import LinearMap, Matrix, SpanBuilder, Subspace, combine
from .freenilp import FreeNilpotent, dimension_exceeds, free_nilpotent
from .tensor import TensorSquare, build_tensor_square


@dataclass(frozen=True)
class FreePresentation:
    """A surjection from a truncated free algebra onto L with its kernel data.

    relations is the kernel of the surjection; relations_commutator is the
    span of brackets of kernel elements with the whole algebra; and
    relations_in_derived is the part of the kernel inside the derived
    subalgebra of the free algebra (all of it, by the Hopf argument of the
    module docstring).
    """

    L: LieAlgebra
    free: FreeNilpotent
    onto: LinearMap
    relations: Subspace
    relations_commutator: Subspace
    relations_in_derived: Subspace

    def __repr__(self):
        return (f"FreePresentation(L dim {self.L.dim}, free dim "
                f"{self.free.algebra.dim}, relations dim {self.relations.dim})")

    @cached_property
    def quotient(self) -> tuple[LieAlgebra, LinearMap]:
        """G = F/[R,F] and the projection onto it: the cover, and the
        exterior square at its composite positions.  presentation_of proved
        [R,F] an ideal (module docstring); G is validated.  [R,F] lies in F',
        so the generators are G's first d positions."""
        if self.relations_commutator.free_cols[:self.free.d] != \
                tuple(range(self.free.d)):
            raise InternalCheckError("generators are not the first cover columns")
        return quotient_by_ideal(self.free.algebra, self.relations_commutator)

    @cached_property
    def exterior(self) -> LieAlgebra:
        """F'/[R,F]: G after its first d positions, the generator columns;
        brackets and their residuals mod [R,F] stay in F'; and the
        restriction needs no validation, as its antisymmetry and Jacobi
        instances are instances in G, which was validated."""
        G, _ = self.quotient
        d = self.free.d
        cells = tuple(tuple(tuple((k - d, x) for k, x in cell) for cell in row[d:])
                      for row in G.cells[d:])
        if any(k < 0 for row in cells for cell in row for k, _ in cell):
            raise InternalCheckError("a bracket of composite words leaves F'")
        return LieAlgebra(G.field, G.dim - d, cells,
                          tuple(f"q{c + 1}" for c in range(G.dim - d)))

    def exterior_map(self, tensor: TensorSquare) -> tuple[LieAlgebra, LinearMap]:
        """exterior_via_presentation(self, tensor), built and checked once
        per tensor square: the cross-oracle and the cover verdicts of verify
        both read it.  A failure is not kept, so it is raised again, with
        the same message, on the next call."""
        maps = self._exterior_maps
        if tensor not in maps:
            maps[tensor] = exterior_via_presentation(self, tensor)
        return maps[tensor]

    @cached_property
    def _exterior_maps(self) -> dict:
        return {}


@dataclass(frozen=True)
class Cover:
    algebra: LieAlgebra
    multiplier: Subspace
    onto: LinearMap
    from_free: LinearMap

    def __repr__(self):
        return (f"Cover(dim {self.algebra.dim} = {self.onto.target_dim} + "
                f"{self.multiplier.dim})")


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
    derived = L.derived_subalgebra()
    lifts = derived.free_cols  # x_c for each non-pivot column c
    d = len(lifts)
    if dimension_exceeds(d, cls + 1, MAX_AMBIENT):
        raise OutsideEnvelopeError(
            f"the presenting free nilpotent algebra (d={d}, c={cls + 1}) has "
            f"more than {MAX_AMBIENT} dimensions, outside the design envelope")
    F = free_nilpotent(d, cls + 1, L.field)
    n = F.algebra.dim

    # Sparse images of the Hall words: a generator goes to its lift, a
    # bracket word to the bracket of the images of its halves, which come
    # earlier because the words are ordered by degree.
    position = {w: i for i, w in enumerate(F.words)}
    images: list = []
    for w in F.words:
        images.append({lifts[w.index]: L.field.one} if w.index is not None
                      else L.bracket_sparse(images[position[w.left]],
                                            images[position[w.right]]))
    onto = LinearMap(Matrix(L.field, L.dim, n, tuple(images)))
    if onto.rank() != L.dim:
        raise InternalCheckError("canonical lifts do not generate the algebra")
    # Only the generator rows: they generate F, and F and L satisfy Jacobi
    # (module docstring).  They come first in row-major order, so the first
    # failing pair is the one the loop over every row would report.
    bad = homomorphism_failure(images, F.algebra, L, rows=d)
    if bad is not None:
        raise InternalCheckError(
            "presentation map is not a homomorphism at (%d,%d)" % bad)

    relations = onto.kernel()
    # [R, F] = [R, X], and closure under ad(X) makes it an ideal (module
    # docstring); the generators are the first d Hall words.
    # Only the rows below the top layer, degree c + 1, are bracketed.  The
    # words are ordered by degree and an echelon row has no support before
    # its pivot, so a row with its pivot in the top layer lies in that
    # layer; its bracket with a generator has degree c + 2, zero in F, so it
    # spans nothing and cannot fail the ideal check.  Pivots increase, so
    # those rows are a prefix.
    top = bisect_left(F.degrees, cls + 1)

    def below_top(space: Subspace) -> tuple:
        return space.sparse_rows[:bisect_left(space.pivots, top)]

    generators = [{g: L.field.one} for g in range(d)]
    rf = SpanBuilder(L.field, n)
    for r in below_top(relations):
        for x in generators:
            rf.insert(F.algebra.bracket_sparse(r, x))
    relations_commutator = rf.subspace()
    for t in below_top(relations_commutator):
        if any(relations_commutator.reduce_sparse(F.algebra.bracket_sparse(t, x))
               for x in generators):
            raise InternalCheckError("commutator span is not an ideal")
    # F' is the span of the composite Hall words d..n-1, read off the cells
    # without elimination: no cell has support below d, so F' lies in their
    # span; and each composite word w is the cell (left(w), right(w)), so
    # their span lies in F'.  (A cell is sorted, so its first index is its
    # least.)
    cells = F.algebra.cells
    if any(cell[0][0] < d for row in cells for cell in compress(row, row)) or \
            any(cells[position[w.left]][position[w.right]] != ((k, 1),)
                for k, w in enumerate(F.words[d:], d)):
        raise InternalCheckError("derived basis is not coordinate-aligned")
    # R lies in F' (Hopf, module docstring); an echelon pivot is the
    # leftmost support of its row, so no pivot below d means no relation
    # has a generator coordinate.
    if relations.pivots and relations.pivots[0] < d:
        raise InternalCheckError("a relation leaves the derived subalgebra")
    if not relations.contains_space(relations_commutator):
        raise InternalCheckError("kernel commutator escapes the derived part")
    # The truncation layer (degree c + 1) must die in L.
    for i, deg in enumerate(F.degrees):
        if deg == cls + 1 and relations.reduce_sparse({i: L.field.one}):
            raise InternalCheckError("top truncation layer survives in L")
    return FreePresentation(L, F, onto, relations, relations_commutator,
                            relations)


def exterior_via_presentation(
        P: FreePresentation,
        tensor: Optional[TensorSquare] = None) -> tuple[LieAlgebra, LinearMap]:
    """The exterior square computed from the presentation, together with the
    explicit isomorphism onto the tensor engine's exterior square (each basis
    bracket maps to the wedge of the images of its two halves).

    Raises TheoremViolationError if the explicit map fails to be a bijective
    homomorphism.
    """
    ext = P.exterior
    if tensor is None:
        tensor = build_tensor_square(P.L)
    wedge_alg, to_wedge = tensor.exterior_square()
    F = P.free
    index = {w: i for i, w in enumerate(F.words)}
    onto = P.onto.matrix.sparse_columns
    # A map on F that wedges the images of the two halves of each composite
    # Hall word; only its restriction to F' (those words) is used, so the
    # generators go to zero.
    images = [{} for _ in range(F.d)]
    for w in F.words[F.d:]:
        pure = tensor.pairing.apply_sparse(onto[index[w.left]],
                                           onto[index[w.right]])
        images.append(combine(pure.items(), to_wedge.matrix.sparse_columns))
    eps_on_free = LinearMap(Matrix(P.L.field, wedge_alg.dim, len(images),
                                   tuple(images)))
    if eps_on_free.image_of(P.relations_commutator).dim:
        raise TheoremViolationError(
            "wedge map does not kill the relation commutator")
    eps = LinearMap(eps_on_free.matrix.select_columns(
        P.relations_commutator.free_cols[F.d:]))
    if not eps.is_bijective():
        raise TheoremViolationError(
            f"presentation exterior square has dimension {ext.dim}, "
            f"tensor engine gives {wedge_alg.dim}")
    _check_isomorphism(eps, ext, wedge_alg)
    return ext, eps


def _check_isomorphism(f: LinearMap, source: LieAlgebra, target: LieAlgebra):
    """Assert that a linear map is a bijective homomorphism, hence an
    isomorphism of Lie algebras.

    Its inverse g needs no check of its own: g[x,y] = g[fgx, fgy] =
    gf[gx, gy] = [gx, gy], using only that f is a bijective homomorphism.
    """
    if not f.is_bijective():
        raise TheoremViolationError("map is not bijective")
    bad = homomorphism_failure(f.matrix.sparse_columns, source, target)
    if bad is not None:
        raise TheoremViolationError(
            "map is not a homomorphism at basis pair (%d,%d)" % bad)


def multiplier_via_presentation(P: FreePresentation) -> Subspace:
    """Image of the derived part of the relations in the presentation
    quotient; its dimension is the Schur multiplier dimension.  The image
    lies in F'/[R,F], G after its first d positions, and is given in the
    coordinates of P.exterior: shifting every column by d keeps the rows
    fully reduced."""
    _, to_G = P.quotient
    image, d = to_G.image_of(P.relations_in_derived), P.free.d
    return Subspace(image.field, image.ambient_dim - d,
                    tuple(p - d for p in image.pivots),
                    tuple({j - d: x for j, x in row.items()}
                          for row in image.sparse_rows))


def build_cover(P: FreePresentation) -> Cover:
    """Construct the canonical cover via the presentation: G = F/[R,F]
    itself, since R lies in F' (module docstring).  Defining-pair
    properties are asserted.

    onto_L needs no linear solve: F -> G is a quotient projection, and it
    sends the standard basis vector at its r-th free column to the r-th unit
    vector.  So e_(g_free[a]) is a preimage of G's basis vector a, and its
    image under P.onto is that column of P.onto (preimages differ by [R,F],
    which lies in the relations).  As from_free is onto, the factorization
    check still pins down onto_L.
    """
    K, from_free = P.quotient
    multiplier = from_free.image_of(P.relations_in_derived)
    onto_L = LinearMap(P.onto.matrix.select_columns(
        P.relations_commutator.free_cols))
    if onto_L.compose(from_free).matrix != P.onto.matrix:
        raise InternalCheckError("cover projection does not factor the presentation")

    if K.dim != P.L.dim + multiplier.dim:
        raise TheoremViolationError(
            f"cover dimension {K.dim} != {P.L.dim} + {multiplier.dim}")
    if onto_L.kernel() != multiplier:
        raise TheoremViolationError("cover sequence is not exact")
    # The centralizer of m is a subalgebra and the generators, K's first d
    # positions (FreePresentation.quotient), generate K: m is central once
    # it commutes with them.
    d, one = P.free.d, K.field.one
    if any(K.bracket_sparse(m, {g: one}) for m in multiplier.sparse_rows
           for g in range(d)):
        raise TheoremViolationError("multiplier is not central in the cover")
    if not K.derived_subalgebra().contains_space(multiplier):
        raise TheoremViolationError("multiplier escapes the derived subalgebra")
    expected_mult = P.relations_in_derived.dim - P.relations_commutator.dim
    if multiplier.dim != expected_mult:
        raise TheoremViolationError(
            f"multiplier dimension {multiplier.dim} != {expected_mult}")
    return Cover(K, multiplier, onto_L, from_free)


def verify_cover_theorem(P: FreePresentation, cover: Cover,
                         tensor: Optional[TensorSquare] = None) -> Verdict:
    """The derived subalgebra of the cover is isomorphic to the exterior
    square, through the map induced by wedging images of Hall brackets.

    The cover is G = F/[R,F], whose derived subalgebra is the span of its
    composite positions d..dim G - 1 with the cells of F'/[R,F] there
    (module docstring).  Both facts are checked on the cover given: its
    derived subalgebra has exactly those pivots, so its echelon rows are
    those unit vectors and its coordinates are the positions shifted by d;
    and its cells there, shifted by d, are P.exterior's.  Then the identity
    is an isomorphism from P.exterior onto the derived subalgebra, and the
    theorem map is eps, which exterior_map has checked to be a bijective
    homomorphism onto the exterior square.
    """
    if tensor is None:
        tensor = build_tensor_square(P.L)
    try:
        ext_alg, _ = P.exterior_map(tensor)
    except TheoremViolationError as exc:
        return Verdict(False, f"presentation exterior square failed: {exc}")
    K = cover.algebra
    derived = K.derived_subalgebra()
    wedge_alg, _ = tensor.exterior_square()
    if derived.dim != wedge_alg.dim or ext_alg.dim != wedge_alg.dim:
        return Verdict(False,
                       f"dims differ: cover derived {derived.dim}, "
                       f"exterior {wedge_alg.dim}, presentation {ext_alg.dim}")
    d = P.free.d
    if derived.pivots != tuple(range(d, K.dim)):
        return Verdict(False, "cover derived subalgebra is not the span of "
                              "its composite positions")
    if tuple(tuple(tuple((k - d, x) for k, x in cell) for cell in row[d:])
             for row in K.cells[d:]) != ext_alg.cells:
        return Verdict(False, "cover brackets differ from the presentation "
                              "exterior square")
    return Verdict(True,
                   f"cover derived dim {derived.dim} = exterior dim "
                   f"{wedge_alg.dim}")
