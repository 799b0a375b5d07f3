#!/usr/bin/env python3
## Free nilpotent Lie algebras on Hall bases, with layer dimensions given by
## the Witt formula.

from lietensor import GF, QQ, free_nilpotent, witt_dimension

## Hall words on two generators up to degree 4.
F = free_nilpotent(2, 4)
print("free nilpotent on 2 generators, class 4: dim", F.algebra.dim)
for word, degree in zip(F.algebra.basis_names, F.degrees):
    print(f"  deg {degree}: {word}")

## Layer sizes match the Witt formula (1/k) sum_{e|k} mu(e) d^(k/e).
for d in (2, 3, 4):
    dims = [witt_dimension(d, k) for k in range(1, 5)]
    print(f"d={d}: Witt layer dims", dims)
    F = free_nilpotent(d, 3)
    print(f"      actual layers  ", list(F.layer_dims().values()))

## Structure constants are integers, so the same table serves every field.
F2 = free_nilpotent(2, 3, GF(2))
A = F2.algebra
print("\nover GF(2):", A.basis_names)
print("[x2, x1] =", A.cells[1][0])
print("validates:", A.validate().ok)

## Brackets add degrees; anything above the class truncates to zero, the
## empty sparse vector.
F = free_nilpotent(2, 3)
A = F.algebra
deg4 = A.bracket_sparse({3: QQ.one}, {1: QQ.one})
print("\n[[x2,x1],x1] bracketed with x2 (degree 4 > 3):", deg4)
