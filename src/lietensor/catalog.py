"""Built-in algebras: abelian, Heisenberg, sl2 and direct sums of them.

Catalog strings such as "heisenberg(2)" or "heisenberg(1)+abelian(1)" are the
CLI-facing way to name these algebras.
"""

from __future__ import annotations

import re

from .errors import InvalidInputError
from .fields import QQ, Field
from .liealg import LieAlgebra, direct_sum, lie_algebra_from_brackets

# The design envelope: algebras of dimension n <= 16, so tensor-square
# ambients of n^2 <= 256 coordinates.  Inputs outside it are rejected before
# anything is built.
MAX_DIM = 16
MAX_AMBIENT = MAX_DIM * MAX_DIM


def zero_algebra(field: Field = QQ) -> LieAlgebra:
    return lie_algebra_from_brackets(field, 0, {}, names=())


def abelian(n: int, field: Field = QQ) -> LieAlgebra:
    if n < 0:
        raise InvalidInputError("abelian(n) needs n >= 0")
    return lie_algebra_from_brackets(field, n, {})


def heisenberg(m: int, field: Field = QQ) -> LieAlgebra:
    """Heisenberg algebra of dimension 2m + 1: [x_i, y_i] = z."""
    if m < 1:
        raise InvalidInputError("heisenberg(m) needs m >= 1")
    dim = 2 * m + 1
    one = field.one
    brackets = {(i, m + i): [(2 * m, one)] for i in range(m)}
    names = tuple(f"x{i + 1}" for i in range(m)) + \
        tuple(f"y{i + 1}" for i in range(m)) + ("z",)
    return lie_algebra_from_brackets(field, dim, brackets, names=names)


def sl2(field: Field = QQ) -> LieAlgebra:
    """sl2 with basis e, f, h: [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    if field.characteristic == 2:
        raise InvalidInputError("characteristic 2 unsupported for sl2")
    one, two = field.one, field.scalar(2)
    brackets = {
        (0, 1): [(2, one)],       # [e, f] = h
        (0, 2): [(0, -two)],      # [e, h] = -2e
        (1, 2): [(1, two)],       # [f, h] = 2f
    }
    return lie_algebra_from_brackets(field, 3, brackets, names=("e", "f", "h"))


# ASCII digits only, as in fields._SCALAR_RE: \d also matches Arabic-Indic,
# fullwidth and other Unicode digits, which int() would then accept.
_TERM_RE = re.compile(r"^(abelian|heisenberg)\(([0-9]+)\)$|^(sl2|zero)$")


def is_catalog_name(name: str) -> bool:
    """True when every "+"-joined term is a catalog term."""
    return all(_TERM_RE.match(t.strip()) for t in name.split("+"))


def _term_dim(m: re.Match) -> int:
    """Dimension of a matched catalog term, read from its integer alone.  A
    parameter of more than three digits is outside the envelope anyway and
    is not converted."""
    if m.group(3):
        return 3 if m.group(3) == "sl2" else 0
    digits = m.group(2).lstrip("0") or "0"
    if len(digits) > 3:
        return MAX_DIM + 1
    k = int(digits)
    return k if m.group(1) == "abelian" else 2 * k + 1


def catalog(name: str, field: Field = QQ) -> LieAlgebra:
    """Resolve a catalog string, allowing "+"-joined direct sums.  Sums of
    dimension above MAX_DIM are rejected before any term is built."""
    terms = [t.strip() for t in name.split("+")]
    matches = []
    for term in terms:
        m = _TERM_RE.match(term)
        if not m:
            raise InvalidInputError(f"unknown catalog algebra {term!r}")
        matches.append(m)
    if sum(map(_term_dim, matches)) > MAX_DIM:
        raise InvalidInputError(
            f"catalog algebra {name!r} has dimension above {MAX_DIM}, "
            f"outside the design envelope")
    algebras = []
    for m in matches:
        if m.group(3) == "sl2":
            algebras.append(sl2(field))
        elif m.group(3) == "zero":
            algebras.append(zero_algebra(field))
        elif m.group(1) == "abelian":
            algebras.append(abelian(int(m.group(2)), field))
        else:
            algebras.append(heisenberg(int(m.group(2)), field))
    result = algebras[0]
    for extra in algebras[1:]:
        result = direct_sum(result, extra)
    report = result.validate()
    if not report.ok:
        raise AssertionError(f"catalog algebra invalid: {report.detail}")
    return result


# The batch-verification suite: every name is run over Q and over GF(2),
# GF(3), GF(5) where the construction supports the characteristic.
CATALOG_SUITE = (
    "zero",
    "abelian(1)", "abelian(2)", "abelian(3)", "abelian(4)", "abelian(5)",
    "heisenberg(1)", "heisenberg(2)", "heisenberg(3)",
    "sl2",
    "heisenberg(1)+abelian(1)",
    "heisenberg(1)+heisenberg(1)",
)

SUITE_FIELDS = (QQ, Field(2), Field(3), Field(5))


def is_supported(name: str, field: Field) -> bool:
    return not ("sl2" in name and field.characteristic == 2)
