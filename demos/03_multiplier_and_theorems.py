#!/usr/bin/env python3
## Schur multipliers, tensor/exterior centers, the Whitehead functor, and the
## mechanical verification of the structure theorems.

from lietensor import QQ, build_tensor_square, catalog, heisenberg

## The Schur multiplier is the kernel of the induced commutator map on the
## exterior square; for H(m) its dimension is 2m^2 - m - 1 (m >= 2), and 2
## for m = 1.
for m in (1, 2, 3):
    T = build_tensor_square(heisenberg(m))
    print(f"H({m}): multiplier dim {T.schur_multiplier().dim}, "
          f"exterior dim {T.exterior_square()[0].dim}")

## Tensor and exterior centers. For H(2) the central element z satisfies
## z(x)v = 0 for every v (two different bracket expressions for z kill all
## generators), so both centers are exactly span{z}.
T2 = build_tensor_square(heisenberg(2))
print("\nH(2) tensor center basis:", T2.tensor_center.sparse_rows)
print("H(2) exterior center basis:", T2.exterior_center.sparse_rows)

## The Whitehead quadratic functor maps onto the square submodule; the map
## is bijective for finite-dimensional algebras, in every characteristic.
gamma = T2.whitehead_gamma
print("\nWhitehead functor rank m =", gamma.rank, "-> dim m(m+1)/2 =",
      gamma.dim, "=", T2.square_submodule.dim)
v = tuple(QQ.scalar(c) for c in (1, 2, 0, -1))
print("quadratic map at (1,2,0,-1):", gamma.quadratic(v))

## Every structure theorem is checked on concrete algebras:
##   - tensor square = square submodule (+) exterior square (as an ideal
##     direct sum, with an explicit isomorphism),
##   - commutator kernel = square submodule (+) multiplier,
##   - exterior center meet derived subalgebra = tensor center,
##   - the square submodule restricts isomorphically onto the
##     abelianization's square submodule,
##   - the abelianization kernel equals the span of tensors with one slot
##     in the derived subalgebra (computed three ways).
for name in ("abelian(3)", "heisenberg(1)", "heisenberg(2)", "sl2",
             "heisenberg(1)+heisenberg(1)"):
    T = build_tensor_square(catalog(name))
    verdicts = {
        "decomposition": T.verify_decomposition(),
        "j2": T.verify_j2_decomposition(),
        "centers": T.verify_center_identity(),
        "square restriction": T.verify_square_restriction(),
        "kernel identity": T.verify_kernel_identity(),
    }
    line = ", ".join(f"{k}={'pass' if v.ok else 'FAIL'}"
                     for k, v in verdicts.items())
    print(f"{name:32s} {line}")
