"""Exact computation with nonabelian tensor squares of Lie algebras.

The package constructs, for a finite-dimensional Lie algebra L over the
rationals or a prime field, the tensor square L(x)L with its universal Lie
pairing, the square submodule, the exterior square, the commutator map and
its kernel, the Schur multiplier, the tensor and exterior centers, and the
Whitehead quadratic functor.  A second, independent engine computes the
exterior square and multiplier from a free nilpotent presentation, covers
are built from the exterior square, and every structure theorem relating
these objects is verified mechanically on concrete algebras.  Every linear
map is a Matrix and every subspace, with the quotient by it, a Subspace.
"""

from .fields import GF, QQ, Field
from .linalg import (Matrix, Subspace, kernel, rref, subspace_intersect,
                     subspace_sum)
from .errors import Verdict
from .liealg import (BilinearMap, LieAlgebra, bracket_pairing, direct_sum,
                     ideal_closure, is_lie_pairing, lie_algebra_from_brackets,
                     quotient_algebra)
from .catalog import abelian, catalog, heisenberg, sl2, zero_algebra
from .tensor import (TensorSquare, build_tensor_square, induced_map,
                     tensor_report)
from .freenilp import FreeNilpotent, free_nilpotent, hall_words, witt_dimension
from .presentation import (Cover, FreePresentation, build_cover,
                           exterior_via_presentation,
                           multiplier_via_presentation, presentation_of,
                           verify_cover_theorem, verify_presentation_theorem)

__all__ = [
    "GF", "QQ", "Field",
    "Matrix", "Subspace", "kernel", "rref", "subspace_intersect",
    "subspace_sum",
    "BilinearMap", "LieAlgebra", "bracket_pairing",
    "direct_sum", "ideal_closure", "is_lie_pairing",
    "lie_algebra_from_brackets", "quotient_algebra",
    "abelian", "catalog", "heisenberg", "sl2", "zero_algebra",
    "TensorSquare", "Verdict", "build_tensor_square", "induced_map",
    "tensor_report",
    "FreeNilpotent", "free_nilpotent", "hall_words", "witt_dimension",
    "Cover", "FreePresentation", "build_cover", "exterior_via_presentation",
    "multiplier_via_presentation", "presentation_of", "verify_cover_theorem",
    "verify_presentation_theorem",
]

__version__ = "0.1.0"
