"""Free nilpotent Lie algebras on a Hall-word basis.

The basis of the free nilpotent algebra on d generators of class c consists
of the Hall words of degree at most c (M. Hall, Proc. AMS 1 (1950));
the layer of degree k has dimension given by the Witt formula
(1/k) sum_{e | k} mu(e) d^(k/e).  Words are ordered by degree first, which
makes the order a Hall order: a bracket is greater than both its factors.

Structure constants come from rewriting in the Hall basis (C. Reutenauer,
Free Lie Algebras (1993), section 4), truncated above degree c.  For Hall
words u, v: [u, u] = 0; if u < v then [u, v] = -[v, u]; if u > v and u is
a generator or u = [a, b] with b <= v, then (u, v) is a Hall pair and
[u, v] is that basis word; otherwise u = [a, b] with b > v, and the Jacobi
identity gives [[a, b], v] = [[a, v], b] + [a, [b, v]], expanded bilinearly.

Termination.  Take u > v of total degree n and u = [a, b] with a > b > v.
The inner brackets [a, v] and [b, v] have total degree below n.  Each word
w of [a, v] has degree deg a + deg v > deg b, so w > b, and the pair (w, b)
has smaller word b > v.  Each word w of [b, v] has degree above deg b, so
w > b, and the pair (a, w) has smaller word min(a, w) > b > v.  So the
rewriting descends in total degree, and within a total degree it strictly
raises the smaller word of the pair, of which there are finitely many.
_hall_table fills its memo, keyed by word index, in exactly this order: by
increasing total degree, and within it by decreasing smaller word.  Every rewrite then
reads cells already filled, and there is no recursion.

Three self-checks of the former construction, which expanded every Hall
word into the free associative algebra and solved for the brackets over Q,
are gone with it: "expansions are not independent", "not in the Hall span"
and "non-integral".  Rewriting solves no linear system, every cell is a
combination of Hall words with integer coefficients by construction, and a
Hall pair missing from the basis raises InternalCheckError.  The table
depends on (d, c) alone, the design envelope admits finitely many (d, c)
(295 pairs with d >= 2, where c <= 10, and the d <= 1 cases, whose brackets
all vanish), and the test suite checks every one of them against the
associative model: each bracket, expanded through the Hall words, is the
commutator of their expansions, and the expansions of each layer are
linearly independent.  The Witt layer count, the validation over Q in
_integer_structure and every check downstream are kept.

The integer structure constants are rows {j: {k: c}} of nonzero cells, the
stored form of LieAlgebra, validated once per (d, c) and converted to each
field.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .errors import Immutable, InternalCheckError
from .fields import QQ, Field
from .liealg import LieAlgebra


class HallWord(Immutable):
    """A generator x_i or a bracket (u, v) of Hall words with u > v and,
    when u = (a, b), b <= v.  Ordered by degree, then recursively by
    (left, right) / generator index.  Immutable; the hash is computed once,
    from the hashes its factors computed once, and words with different
    hashes are unequal without recursing."""

    _fields = ("degree", "index", "left", "right")

    def __init__(self, degree: int, index: Optional[int] = None,
                 left: Optional[HallWord] = None,
                 right: Optional[HallWord] = None):
        super().__init__(degree, index, left, right)
        self.__dict__["_hash"] = hash((degree, index, left, right))

    def __eq__(self, other):
        if other.__class__ is self.__class__ and self._hash != other._hash:
            return False
        return super().__eq__(other)

    def __hash__(self):
        return self._hash

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


def _hall_table(d: int, c: int):
    """Integer structure constants of the free nilpotent algebra as rows of
    nonzero cells, cells[i] = {j: {k: c}} with every c nonzero, with the
    Hall word labels, degrees and words; not yet validated.  Computed by
    the rewriting in the module docstring; indices follow the Hall order."""
    words = hall_words(d, c)
    nw = len(words)
    index = {w: i for i, w in enumerate(words)}
    degree = [w.degree for w in words]
    left = [index[w.left] if w.index is None else None for w in words]
    right = [index[w.right] if w.index is None else None for w in words]
    pair_word = {(left[k], right[k]): k for k in range(d, nw)}
    # memo[i][j] is the bracket of words i and j as {k: coefficient}, for
    # both orders of a pair once it is filled; [u, u] = 0.
    memo: list[dict[int, dict[int, int]]] = [{i: {}} for i in range(nw)]

    # Degrees are sorted, so the words of degree at most k are words[:ends[k]].
    ends = [sum(1 for g in degree if g <= k) for k in range(c + 1)]
    for n in range(2, c + 1):
        for j in reversed(range(ends[n // 2])):
            for i in range(max(j + 1, ends[n - degree[j] - 1]),
                           ends[n - degree[j]]):
                if left[i] is None or right[i] <= j:
                    k = pair_word.get((i, j))
                    if k is None:
                        raise InternalCheckError(
                            f"Hall pair ({words[i].label()}, "
                            f"{words[j].label()}) is not a basis word")
                    cell = {k: 1}
                else:
                    a, b = left[i], right[i]
                    cell = {}
                    for w, x in memo[a][j].items():  # [[a, v], b]
                        for k, z in memo[w][b].items():
                            cell[k] = cell.get(k, 0) + x * z
                    for w, x in memo[b][j].items():  # [a, [b, v]]
                        for k, z in memo[a][w].items():
                            cell[k] = cell.get(k, 0) + x * z
                    cell = {k: x for k, x in cell.items() if x}
                memo[i][j] = cell
                memo[j][i] = {k: -x for k, x in cell.items()}
    cells = tuple({j: cell for j, cell in row.items() if cell} for row in memo)
    labels = tuple(w.label() for w in words)
    return cells, labels, tuple(degree), words


@lru_cache(maxsize=16)
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
            f"free nilpotent algebra fails validation: {report.detail}")
    return int_cells, labels, degrees, words


def _convert(int_cells, field: Field):
    """The integer rows over field.  Each distinct integer is converted
    once, and a coefficient that vanishes in field (a multiple of p over
    GF(p)) is dropped, with its cell if that empties it, so every cell stays
    canonical: nonempty and zero-free."""
    scalars = {x: field.scalar(x) for row in int_cells
               for cell in row.values() for x in cell.values()}
    return tuple({j: c for j, cell in row.items()
                  if (c := {k: scalars[x] for k, x in cell.items()
                            if scalars[x]})}
                 for row in int_cells)


class FreeNilpotent(Immutable):
    """The free nilpotent algebra on d generators of class c, with its Hall
    words and their degrees in basis order.  Immutable."""

    _fields = ("d", "c", "algebra", "words", "degrees")

    def __repr__(self):
        return (f"FreeNilpotent(d={self.d}, c={self.c}, "
                f"dim {self.algebra.dim} over {self.algebra.field.name})")

    def layer_dims(self) -> dict[int, int]:
        out = {k: 0 for k in range(1, self.c + 1)}
        for deg in self.degrees:
            out[deg] += 1
        return out


@lru_cache(maxsize=32)
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
