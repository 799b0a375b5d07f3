#!/usr/bin/env python3
## The nonabelian tensor square: construction, the universal pairing, and the
## dimension table of everything derived from it.

from lietensor import (abelian, bracket_pairing, build_tensor_square,
                       heisenberg, is_lie_pairing, sl2, tensor_report)

## For H(1) (dim 3) the pure-tensor coordinate space has dimension 9; the
## crossed relations cut it down to a 6-dimensional Lie algebra.
h = heisenberg(1)
T = build_tensor_square(h)
print("ambient dim:", T.ambient_dim)
print("relation space dim:", T.relation_space.dim)
print("tensor square dim:", T.dim)
print("generator names:", T.algebra.basis_names)

## The pairing (u, v) -> u(x)v is the universal Lie pairing: it satisfies the
## three compatibility axioms, and every Lie pairing factors through it.
print("\npairing satisfies the Lie-pairing axioms:",
      is_lie_pairing(T.pairing, h, T.algebra).ok)
zeta = T.factor_pairing(bracket_pairing(h), h)
kappa, j2 = T.commutator_map
print("factoring the bracket pairing recovers the commutator map:",
      zeta == kappa)

## The full dimension table. For H(1):
## tensor 6, square submodule 3, exterior 3, commutator kernel 5,
## multiplier 2, both centers 0, abelianization kernel 2.
rep = tensor_report(T)
for key, value in rep.dims.items():
    print(f"  {key:24s} {value}")

## Abelian algebras: no relations at all, so the tensor square is n^2-dim
## and splits into symmetric and alternating parts.
for n in (2, 3, 4):
    Ta = build_tensor_square(abelian(n))
    print(f"abelian({n}): tensor {Ta.dim} = "
          f"{Ta.square_submodule.dim} + {Ta.exterior_square()[0].dim}")

## sl2 is perfect: the whole 9-dim ambient collapses to sl2 itself.
Ts = build_tensor_square(sl2())
print("sl2: tensor dim", Ts.dim, "square submodule dim",
      Ts.square_submodule.dim)
