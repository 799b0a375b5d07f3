"""Free presentations of nilpotent Lie algebras: the second computation path
for the exterior square and the Schur multiplier, plus cover construction.

For an algebra L of nilpotency class c with d = dim L/[L,L], the presenting
free algebra is the free nilpotent algebra F on d generators of class c + 1.
Truncating one class above L is enough: the kernel of F -> L contains every
bracket of weight above c, so the commutator of the kernel with F contains
every bracket of weight above c + 1, and the quotients built here (the
derived subalgebra modulo that commutator, its multiplier part, and the
cover) are unchanged by cutting F off at class c + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from .catalog import MAX_AMBIENT
from .errors import (InternalCheckError, NotNilpotentError,
                     OutsideEnvelopeError, TheoremViolationError)
from .liealg import (LieAlgebra, Subalgebra, homomorphism_failure,
                     quotient_algebra)
from .linalg import (LinearMap, Matrix, SpanBuilder, Subspace,
                     combine, complement_within, subspace_intersect)
from .freenilp import FreeNilpotent, dimension_exceeds, free_nilpotent
from .tensor import TensorSquare, Verdict, build_tensor_square


@dataclass(frozen=True)
class FreePresentation:
    """A surjection from a truncated free algebra onto L with its kernel data.

    relations is the kernel of the surjection; relations_commutator is the
    span of brackets of kernel elements with the whole algebra; and
    relations_in_derived is the part of the kernel inside the derived
    subalgebra of the free algebra.
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
    def exterior_quotient(self) -> "_ExteriorQuotient":
        return _ExteriorQuotient(self)


@dataclass(frozen=True)
class Cover:
    algebra: LieAlgebra
    multiplier: Subspace
    onto: LinearMap
    from_free: LinearMap

    def __repr__(self):
        return (f"Cover(dim {self.algebra.dim} = {self.onto.target_dim} + "
                f"{self.multiplier.dim})")


@lru_cache(maxsize=None)
def presentation_of(L: LieAlgebra) -> FreePresentation:
    """Present a nilpotent algebra by the free nilpotent algebra on canonical
    lifts of a basis of L modulo its derived subalgebra.

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

    # Sparse images of the Hall words: a generator goes to its lift, a
    # bracket word to the bracket of the images of its halves.
    images: list = [None] * F.algebra.dim
    position = {w: i for i, w in enumerate(F.words)}

    def image_of(w) -> dict:
        i = position[w]
        if images[i] is None:
            if w.index is not None:
                images[i] = {lifts[w.index]: L.field.one}
            else:
                images[i] = L.bracket_sparse(image_of(w.left), image_of(w.right))
        return images[i]

    for w in F.words:
        image_of(w)
    onto = LinearMap(Matrix(L.field, L.dim, F.algebra.dim, tuple(images)))
    if onto.rank() != L.dim:
        raise InternalCheckError("canonical lifts do not generate the algebra")
    bad = homomorphism_failure(images, F.algebra, L)
    if bad is not None:
        raise InternalCheckError(
            "presentation map is not a homomorphism at (%d,%d)" % bad)

    relations = onto.kernel()
    rf = SpanBuilder(L.field, F.algebra.dim)
    for r in relations.sparse_rows:
        for w in F.algebra.ad_sparse(r):
            rf.insert(w)
    relations_commutator = rf.subspace()
    # Ideal property follows from the Jacobi identity; assert instead of
    # re-closing.
    for t in relations_commutator.sparse_rows:
        if any(map(relations_commutator.reduce_sparse,
                   F.algebra.ad_sparse(t))):
            raise InternalCheckError("commutator span is not an ideal")
    free_derived = F.algebra.derived_subalgebra()
    relations_in_derived = subspace_intersect(relations, free_derived)
    if not relations_in_derived.contains_space(relations_commutator):
        raise InternalCheckError("kernel commutator escapes the derived part")
    # The truncation layer (degree c + 1) must die in L.
    for i, deg in enumerate(F.degrees):
        if deg == cls + 1 and relations.reduce_sparse({i: L.field.one}):
            raise InternalCheckError("top truncation layer survives in L")
    return FreePresentation(L, F, onto, relations, relations_commutator,
                            relations_in_derived)


class _ExteriorQuotient:
    """Shared internals: the derived subalgebra of the free algebra as an
    algebra of its own, divided by the commutator of the relations."""

    def __init__(self, P: FreePresentation):
        F = P.free.algebra
        self.derived_sub = Subalgebra(F, F.derived_subalgebra())
        self.commutator = self.derived_sub.coords_space(P.relations_commutator)
        self.algebra, self.projection = quotient_algebra(
            self.derived_sub.algebra, self.commutator)
        self.free_cols = self.commutator.free_cols


def exterior_via_presentation(
        P: FreePresentation,
        tensor: Optional[TensorSquare] = None) -> tuple[LieAlgebra, LinearMap]:
    """The exterior square computed from the presentation, together with the
    explicit isomorphism onto the tensor engine's exterior square (each basis
    bracket maps to the wedge of the images of its two halves).

    Raises TheoremViolationError if the explicit map fails to be a bijective
    homomorphism.
    """
    ext = P.exterior_quotient
    if tensor is None:
        tensor = build_tensor_square(P.L)
    wedge_alg, to_wedge = tensor.exterior_square()
    F = P.free
    index = {w: i for i, w in enumerate(F.words)}
    onto = P.onto.matrix.sparse_columns
    images = []
    one = P.L.field.one
    space = ext.derived_sub.space
    for p, row in zip(space.pivots, space.sparse_rows):
        # derived subalgebra of a free nilpotent algebra is spanned by the
        # standard coordinates of the composite Hall words
        if row != {p: one}:
            raise InternalCheckError("derived basis is not coordinate-aligned")
        w = F.words[p]
        pure = tensor.pairing.apply_sparse(onto[index[w.left]],
                                           onto[index[w.right]])
        images.append(combine(pure.items(), to_wedge.matrix.sparse_columns))
    eps_on_derived = LinearMap(Matrix(P.L.field, wedge_alg.dim, len(images),
                                      tuple(images)))
    if eps_on_derived.image_of(ext.commutator).dim:
        raise TheoremViolationError(
            "wedge map does not kill the relation commutator")
    eps = LinearMap(eps_on_derived.matrix.select_columns(ext.free_cols))
    if not eps.is_bijective():
        raise TheoremViolationError(
            f"presentation exterior square has dimension {ext.algebra.dim}, "
            f"tensor engine gives {wedge_alg.dim}")
    _check_isomorphism(eps, ext.algebra, wedge_alg)
    return ext.algebra, eps


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
    quotient; its dimension is the Schur multiplier dimension."""
    ext = P.exterior_quotient
    return ext.projection.image_of(
        ext.derived_sub.coords_space(P.relations_in_derived))


def build_cover(P: FreePresentation) -> Cover:
    """Construct the canonical cover via the presentation.

    The relations modulo their commutator with the free algebra are central,
    so any complement of the multiplier part inside them is an ideal; the
    canonical echelon complement makes the construction deterministic.
    Defining-pair properties are asserted.

    onto_L needs no linear solve: F -> G -> K are quotient projections, and
    a projection sends the standard basis vector at its r-th free column to
    the r-th unit vector.  So e_(g_free[k_free[a]]) is a preimage of K's
    basis vector a, and its image under P.onto is that column of P.onto
    (preimages differ by ker(F -> K), which lies in the relations).  As
    from_free is onto, the factorization check still pins down onto_L.
    """
    F = P.free.algebra
    G, to_G = quotient_algebra(F, P.relations_commutator)
    extra = complement_within(to_G.image_of(P.relations_in_derived),
                              to_G.image_of(P.relations))
    K, to_K = quotient_algebra(G, extra)
    from_free = to_K.compose(to_G)
    multiplier = from_free.image_of(P.relations_in_derived)

    g_free = P.relations_commutator.free_cols
    onto_L = LinearMap(P.onto.matrix.select_columns(
        [g_free[c] for c in extra.free_cols]))
    if onto_L.compose(from_free).matrix != P.onto.matrix:
        raise InternalCheckError("cover projection does not factor the presentation")

    if K.dim != P.L.dim + multiplier.dim:
        raise TheoremViolationError(
            f"cover dimension {K.dim} != {P.L.dim} + {multiplier.dim}")
    if onto_L.kernel() != multiplier:
        raise TheoremViolationError("cover sequence is not exact")
    if not K.center().contains_space(multiplier):
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
    square, through the map induced by wedging images of Hall brackets."""
    if tensor is None:
        tensor = build_tensor_square(P.L)
    try:
        ext_alg, eps = exterior_via_presentation(P, tensor)
    except TheoremViolationError as exc:
        return Verdict(False, f"presentation exterior square failed: {exc}")
    K = cover.algebra
    derived_K = Subalgebra(K, K.derived_subalgebra())
    wedge_alg, _ = tensor.exterior_square()
    if derived_K.algebra.dim != wedge_alg.dim or ext_alg.dim != wedge_alg.dim:
        return Verdict(False,
                       f"dims differ: cover derived {derived_K.algebra.dim}, "
                       f"exterior {wedge_alg.dim}, presentation {ext_alg.dim}")
    # Transport the presentation quotient onto the derived subalgebra of the
    # cover; the kernel of (free -> cover) meets the derived subalgebra of
    # the free algebra exactly in the relation commutator, so this is a
    # bijection and the theorem map is eps composed with its inverse.
    ext = P.exterior_quotient
    rows = ext.derived_sub.space.sparse_rows
    to_K = cover.from_free.matrix.sparse_columns
    cols = tuple(derived_K.coords_sparse(combine(rows[c].items(), to_K))
                 for c in ext.free_cols)
    psi = LinearMap(Matrix(P.L.field, derived_K.algebra.dim, len(cols), cols))
    try:
        _check_isomorphism(psi, ext.algebra, derived_K.algebra)
        theorem_map = eps.compose(psi.inverse())
        _check_isomorphism(theorem_map, derived_K.algebra, wedge_alg)
    except TheoremViolationError as exc:
        return Verdict(False, str(exc))
    return Verdict(True,
                   f"cover derived dim {derived_K.algebra.dim} = exterior dim "
                   f"{wedge_alg.dim}")
