#!/usr/bin/env python3
## Free presentations: the second computation path for exterior squares and
## multipliers.  Covers: built from the exterior square, with no free algebra.

from lietensor import (QQ, abelian, build_cover, build_tensor_square, catalog,
                       exterior_via_presentation, heisenberg,
                       lie_algebra_from_brackets, multiplier_via_presentation,
                       presentation_of, verify_cover_theorem)

## Present H(1) by the free nilpotent algebra on 2 generators of class 3.
h = heisenberg(1)
P = presentation_of(h)
print("free algebra:", P.free.algebra.basis_names)
print("kernel dim:", P.relations.dim,
      " kernel-commutator dim:", P.relations_commutator.dim)

## Exterior square and multiplier from the presentation, cross-checked
## against the tensor engine; the explicit wedge map is verified to be a
## bijective homomorphism when it is constructed.
T = build_tensor_square(h)
ext, wedge_map = exterior_via_presentation(P, T)
print("\nexterior square via presentation: dim", ext.dim,
      "| via tensor engine:", T.exterior_square()[0].dim)
print("multiplier via presentation: dim", multiplier_via_presentation(P).dim,
      "| via tensor engine:", T.schur_multiplier().dim)

## The cover C = V (+) E needs no free algebra: E is the alternating
## square of L modulo the d3 boundaries [x,y]^z - [x,z]^y + [y,z]^x, and V
## lifts L/[L,L].  The cover of the 2-dim abelian algebra is the Heisenberg
## algebra.
cover = build_cover(abelian(2))
print("\ncover of abelian(2): dim", cover.algebra.dim,
      "(multiplier dim", str(cover.multiplier.dim) + ")")
print("cover nilpotency class:", cover.algebra.nilpotency_class())

## The derived subalgebra of a cover is isomorphic to the exterior square.
## The 16-dimensional filiform algebra [x1, xi] = x(i+1) would need a free
## algebra of 8800 dimensions to present; its cover needs none.
filiform = lie_algebra_from_brackets(
    QQ, 16, {(0, i): [(i + 1, QQ.one)] for i in range(1, 15)})
for name, L in [(name, catalog(name)) for name in
                ("abelian(2)", "heisenberg(1)", "heisenberg(2)")] + \
        [("filiform(16)", filiform)]:
    cover = build_cover(L)
    verdict = verify_cover_theorem(cover, build_tensor_square(L))
    print(f"{name:16s} cover dim {cover.algebra.dim} "
          f"= {L.dim} + {cover.multiplier.dim}; "
          f"cover theorem: {'pass' if verdict.ok else 'FAIL'} ({verdict.detail})")

## The cover needs no nilpotency either: E = A2/d3(A3) is the exterior
## square of every Lie algebra, and V (+) E is a cover of it.  sl2 + H(1) is
## not nilpotent, so it has no presentation here; its cover theorem also
## checks that ker pi goes onto the tensor engine's multiplier.
L = catalog("sl2+heisenberg(1)")
cover = build_cover(L)
verdict = verify_cover_theorem(cover, build_tensor_square(L))
print("\nsl2+heisenberg(1): nilpotent", L.is_nilpotent,
      "| cover dim", cover.algebra.dim, "| multiplier dim", cover.multiplier.dim,
      "| cover theorem:", "pass" if verdict.ok else "FAIL")
