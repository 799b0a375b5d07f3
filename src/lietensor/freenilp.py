"""Free nilpotent Lie algebras on a Hall-word basis.

The basis of the free nilpotent algebra on d generators of class c consists
of the Hall words of degree at most c; the layer of degree k has dimension
given by the Witt formula (1/k) sum_{e | k} mu(e) d^(k/e).

Structure constants are obtained through the embedding of the free Lie
algebra into the free associative algebra: every Hall word expands to an
integer noncommutative polynomial (its iterated commutator), brackets are
computed as associative commutators truncated above degree c, and results
are re-expressed in the Hall basis by exact linear algebra.  The expansions
are linearly independent, the expressing coordinates are integers, and the
associative model satisfies the Jacobi identity on the nose, which makes
this construction a robust alternative to hand-rolled collection rewriting.

The integer structure constants are sparse cells ((k, c), ...), the stored
form of LieAlgebra, validated once per (d, c) and converted to each field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import InternalCheckError
from .fields import QQ, Field
from .liealg import LieAlgebra
from .linalg import SpanBuilder


@dataclass(frozen=True)
class HallWord:
    """A generator x_i or a bracket (u, v) of Hall words with u > v and,
    when u = (a, b), b <= v.  Ordered by degree, then recursively by
    (left, right) / generator index."""

    degree: int
    index: Optional[int] = None
    left: Optional["HallWord"] = None
    right: Optional["HallWord"] = None

    def __lt__(self, other: "HallWord") -> bool:
        if self.degree != other.degree:
            return self.degree < other.degree
        if self.index is not None:
            return self.index < other.index
        if self.left != other.left:
            return self.left < other.left
        return self.right < other.right

    def __le__(self, other: "HallWord") -> bool:
        return self == other or self < other

    def label(self) -> str:
        if self.index is not None:
            return f"x{self.index + 1}"
        return f"[{self.left.label()},{self.right.label()}]"


def mobius(n: int) -> int:
    result = 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            result = -result
        f += 1
    if n > 1:
        result = -result
    return result


def witt_dimension(d: int, k: int) -> int:
    """Dimension of the degree-k layer of the free Lie algebra on d letters."""
    total = 0
    for e in range(1, k + 1):
        if k % e == 0:
            total += mobius(e) * d ** (k // e)
    return total // k


def dimension_exceeds(d: int, c: int, limit: int) -> bool:
    """Whether the free nilpotent algebra on d generators of class c has more
    than limit dimensions, from the Witt layer sums alone; stops as soon as
    the running sum passes limit.  For d <= 1 every layer above the first is
    empty, so the dimension is d."""
    if d <= 1:
        return d > limit
    total = 0
    for k in range(1, c + 1):
        total += witt_dimension(d, k)
        if total > limit:
            return True
    return False


def hall_words(d: int, c: int) -> tuple[HallWord, ...]:
    """All Hall words on d generators of degree at most c, in basis order."""
    by_degree: list[list[HallWord]] = [[] for _ in range(c + 1)]
    if c >= 1:
        by_degree[1] = [HallWord(1, index=i) for i in range(d)]
    for k in range(2, c + 1):
        layer = []
        for du in range(1, k):
            dv = k - du
            for u in by_degree[du]:
                for v in by_degree[dv]:
                    if v < u and (u.index is not None or u.right <= v):
                        layer.append(HallWord(k, left=u, right=v))
        layer.sort()
        by_degree[k] = layer
    words: list[HallWord] = []
    for k in range(1, c + 1):
        words.extend(by_degree[k])
    return tuple(words)


def _expansion(w: HallWord, c: int, memo: dict) -> dict[tuple, int]:
    """Integer expansion of a Hall word in the free associative algebra,
    truncated above degree c."""
    cached = memo.get(w)
    if cached is not None:
        return cached
    if w.index is not None:
        result = {(w.index,): 1}
    else:
        a = _expansion(w.left, c, memo)
        b = _expansion(w.right, c, memo)
        result = _commutator(a, b, c)
    memo[w] = result
    return result


def _commutator(a: dict, b: dict, c: int) -> dict[tuple, int]:
    out: dict[tuple, int] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if len(ka) + len(kb) > c:
                continue
            key = ka + kb
            out[key] = out.get(key, 0) + va * vb
            key = kb + ka
            out[key] = out.get(key, 0) - va * vb
    return {k: v for k, v in out.items() if v}


def _hall_table(d: int, c: int):
    """Integer structure constants of the free nilpotent algebra as sparse
    cells, cells[i][j] = ((k, c), ...) sorted by k and zero-free, with the
    Hall word labels, degrees and words; not yet validated."""
    words = hall_words(d, c)
    nw = len(words)
    memo: dict = {}
    expansions = [_expansion(w, c, memo) for w in words]
    monomials = sorted({m for e in expansions for m in e},
                       key=lambda t: (len(t), t))
    mono_index = {m: i for i, m in enumerate(monomials)}
    nm = len(monomials)

    # Each expansion enters with an identity tail at column nm + r, so the
    # echelon rows record which combination of expansions they are.  Reducing
    # a polynomial in their span clears its monomial part and leaves minus
    # its Hall coordinates in the tail.
    builder = SpanBuilder(QQ, nm + nw)
    for r, e in enumerate(expansions):
        row = {mono_index[m]: QQ.scalar(v) for m, v in e.items()}
        row[nm + r] = QQ.one
        builder.insert(row)
    if any(p >= nm for p in builder.pivots):
        raise InternalCheckError("Hall expansions are not independent")

    def express(poly: dict) -> tuple[tuple[int, int], ...]:
        rest = builder.reduce({mono_index[m]: QQ.scalar(v)
                               for m, v in poly.items()})
        coords = []
        for j, x in rest.items():
            if j < nm:
                raise InternalCheckError("bracket does not lie in the Hall span")
            if x.denominator != 1:
                raise InternalCheckError("non-integral Hall coordinate")
            coords.append((j - nm, -int(x)))
        return tuple(sorted(coords))

    cells = [[()] * nw for _ in range(nw)]
    for i in range(nw):
        for j in range(i):
            if words[i].degree + words[j].degree <= c:
                cell = express(_commutator(expansions[i], expansions[j], c))
                cells[i][j] = cell
                cells[j][i] = tuple((k, -x) for k, x in cell)
    labels = tuple(w.label() for w in words)
    degrees = tuple(w.degree for w in words)
    return tuple(map(tuple, cells)), labels, degrees, words


@lru_cache(maxsize=None)
def _integer_structure(d: int, c: int):
    """The validated _hall_table, shared by all coefficient fields.

    One validation over Q stands for every field.  Antisymmetry and the
    Jacobi identity on basis triples are polynomial identities with integer
    coefficients in the structure constants, and validate() checks exactly
    these identities on the converted cells.  The conversion Z -> Q is
    injective, so the check over Q decides them over Z; reduction Z -> GF(p)
    is a ring homomorphism, so an identity that holds over Z holds in every
    GF(p).  A table that passes here therefore passes validate() over every
    field, and free_nilpotent does not validate again.
    """
    int_cells, labels, degrees, words = _hall_table(d, c)
    algebra = LieAlgebra(QQ, len(words), _convert(int_cells, QQ), labels)
    report = algebra.validate()
    if not report.ok:
        raise InternalCheckError(
            f"free nilpotent algebra fails validation: {report.describe()}")
    return int_cells, labels, degrees, words


def _convert(int_cells, field: Field):
    """The sparse integer cells over field.  Each distinct integer is
    converted once, and a coefficient that vanishes in field (a multiple of
    p over GF(p)) is dropped, so every cell stays canonical: sorted and
    zero-free."""
    scalars = {x: field.scalar(x)
               for x in {x for row in int_cells for cell in row for _, x in cell}}
    return tuple(tuple(tuple((k, scalars[x]) for k, x in cell if scalars[x])
                       if cell else () for cell in row) for row in int_cells)


@dataclass(frozen=True, repr=False)
class FreeNilpotent:
    d: int
    c: int
    algebra: LieAlgebra
    words: tuple[HallWord, ...]
    degrees: tuple[int, ...]

    def __repr__(self):
        return (f"FreeNilpotent(d={self.d}, c={self.c}, "
                f"dim {self.algebra.dim} over {self.algebra.field.name})")

    def layer_dims(self) -> dict[int, int]:
        out = {k: 0 for k in range(1, self.c + 1)}
        for deg in self.degrees:
            out[deg] += 1
        return out


@lru_cache(maxsize=None)
def free_nilpotent(d: int, c: int, field: Field = QQ) -> FreeNilpotent:
    """The free nilpotent Lie algebra on d generators of class c."""
    if d < 0 or c < 1:
        raise ValueError("need d >= 0 and c >= 1")
    int_cells, labels, degrees, words = _integer_structure(d, c)
    algebra = LieAlgebra(field, len(words), _convert(int_cells, field), labels)
    for k in range(1, c + 1):
        expected = witt_dimension(d, k)
        actual = sum(1 for deg in degrees if deg == k)
        if actual != expected:
            raise InternalCheckError(
                f"degree-{k} layer has {actual} words, Witt number is {expected}")
    return FreeNilpotent(d, c, algebra, words, degrees)
