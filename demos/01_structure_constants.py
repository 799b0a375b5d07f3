#!/usr/bin/env python3
## Defining Lie algebras by structure constants and computing basic invariants.

from lietensor import (GF, QQ, abelian, direct_sum, heisenberg,
                       quotient_algebra, sl2)

## The catalog constructors return validated algebras.
h = heisenberg(1)
print("Heisenberg algebra H(1):", h.basis_names, "dim", h.dim)
print("validation:", h.validate().detail)

## Brackets extend bilinearly from the structure constants, stored as the
## nonzero cells {j: {k: c}}; vectors are sparse {index: coefficient} dicts.
print("cells:", h.cells)
x, y = {0: QQ.one}, {1: QQ.one}
print("[x, y] =", h.bracket_sparse(x, y))   # the defining relation: z
print("[x, x] =", h.bracket_sparse(x, x))   # antisymmetry: the empty dict

## Derived subalgebra, center, lower central series.
print("derived subalgebra dim:", h.derived_subalgebra.dim)
print("center dim:", h.center.dim)
print("lower central series dims:", [s.dim for s in h.lower_central_series()])
print("nilpotency class:", h.nilpotency_class())

## sl2 is perfect (its derived subalgebra is everything) and not nilpotent.
s = sl2()
print("\nsl2 derived dim:", s.derived_subalgebra.dim,
      "center dim:", s.center.dim,
      "nilpotency class:", s.nilpotency_class())

## Quotients by ideals come with the projection map; the ideal property is
## checked, not trusted.
ab, proj = quotient_algebra(h, h.derived_subalgebra)
print("\nH(1) mod its derived subalgebra: dim", ab.dim,
      "abelian?", ab.is_abelian)

## Direct sums and prime fields.
L = direct_sum(heisenberg(1), abelian(1))
print("\nH(1) + abelian(1): dim", L.dim, "class", L.nilpotency_class())
h2 = heisenberg(1, GF(2))
print("H(1) over GF(2) validates:", h2.validate().ok)
