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

The rewriting needs no self-check of independence, span or integrality.
It solves no linear system, every cell is a combination of Hall words
with integer coefficients by construction, and a Hall pair missing from
the basis raises InternalCheckError.  The table depends on (d, c) alone,
the design envelope admits finitely many (d, c) (295 pairs with d >= 2,
where c <= 10, and the d <= 1 cases, whose brackets all vanish), and the
test suite checks every one of them against the associative model: each
bracket, expanded through the Hall words, is the commutator of their
expansions, and the expansions of each layer are linearly independent.
Each table is checked as it is built: its layer sizes against the Witt
numbers, and its brackets by the validation over Q in _integer_structure.

The integer structure constants are rows {j: {k: c}} of nonzero cells, the
stored form of LieAlgebra, validated once per (d, c) and converted to each
field.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import Immutable, InternalCheckError
from .fields import QQ, Field
from .liealg import LieAlgebra


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


def hall_words(d: int, c: int) -> tuple[tuple[int, ...], tuple]:
    """The Hall words on d generators of degree at most c, in basis order,
    as two tuples (degrees, factors).  factors[i] is None for the generator
    x_(i+1), i < d; otherwise it is the Hall pair (u, v) of the indices of
    the word's left and right factors: u > v and, when u is not a
    generator, v >= factors[u][1].

    The words are ordered by degree, and each layer by (u, v).  This is the
    recursive Hall order, which compares degrees, then left factors, then
    right factors: the factors have lower degree than the word, so their
    indices already follow that order, and comparing two pairs of indices
    compares the two pairs of factors.  The loop below emits each layer in
    that order without sorting: u runs up the earlier layers in index
    order, and v increases for each u."""
    degrees = [1] * d if c >= 1 else []
    factors: list = [None] * len(degrees)
    starts = [0, 0, len(degrees)]  # layer k is words starts[k]:starts[k+1]
    for k in range(2, c + 1):
        for u in range(starts[k]):
            dv = k - degrees[u]
            low = starts[dv] if factors[u] is None \
                else max(starts[dv], factors[u][1])
            for v in range(low, min(u, starts[dv + 1])):
                factors.append((u, v))
                degrees.append(k)
        starts.append(len(factors))
    return tuple(degrees), tuple(factors)


def _hall_table(d: int, c: int):
    """Integer structure constants of the free nilpotent algebra as rows of
    nonzero cells, cells[i] = {j: {k: c}} with every c nonzero, with the
    Hall word labels, degrees and factors; not yet validated.  Computed by
    the rewriting in the module docstring; indices follow the Hall order."""
    degree, factors = hall_words(d, c)
    nw = len(factors)
    labels: list[str] = []
    for f in factors:
        labels.append(f"x{len(labels) + 1}" if f is None
                      else f"[{labels[f[0]]},{labels[f[1]]}]")
    pair_word = {factors[k]: k for k in range(d, nw)}
    # memo[i][j] is the bracket of words i and j as {k: coefficient}, for
    # both orders of a pair once it is filled; [u, u] = 0.
    memo: list[dict[int, dict[int, int]]] = [{i: {}} for i in range(nw)]

    # Degrees are sorted, so the words of degree at most k are words[:ends[k]].
    ends = [sum(1 for g in degree if g <= k) for k in range(c + 1)]
    for n in range(2, c + 1):
        for j in reversed(range(ends[n // 2])):
            for i in range(max(j + 1, ends[n - degree[j] - 1]),
                           ends[n - degree[j]]):
                f = factors[i]
                if f is None or f[1] <= j:
                    k = pair_word.get((i, j))
                    if k is None:
                        raise InternalCheckError(
                            f"Hall pair ({labels[i]}, {labels[j]}) "
                            f"is not a basis word")
                    cell = {k: 1}
                else:
                    a, b = f
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
    return cells, tuple(labels), degree, factors


@lru_cache(maxsize=16)
def _integer_structure(d: int, c: int):
    """The validated _hall_table as the algebra over Q that validated it,
    with the degrees and factors; shared by all coefficient fields.  Its
    cells hold integers, which free_nilpotent converts to the other fields.

    One validation over Q stands for every field.  Antisymmetry and the
    Jacobi identity on basis triples are polynomial identities with integer
    coefficients in the structure constants, and validate() checks exactly
    these identities on the converted cells.  The conversion Z -> Q is
    injective, so the check over Q decides them over Z; reduction Z -> GF(p)
    is a ring homomorphism, so an identity that holds over Z holds in every
    GF(p).  A table that passes here therefore passes validate() over every
    field, and free_nilpotent does not validate again.
    """
    int_cells, labels, degrees, factors = _hall_table(d, c)
    algebra = LieAlgebra(QQ, len(factors), _convert(int_cells, QQ), labels)
    report = algebra.validate()
    if not report.ok:
        raise InternalCheckError(
            f"free nilpotent algebra fails validation: {report.detail}")
    return algebra, degrees, factors


def _convert(int_cells, field: Field):
    """The integer rows (the cells of the algebra over Q, or of the Hall
    table) over field.  Each distinct integer is converted once, and a
    coefficient that vanishes in field (a multiple of p over
    GF(p)) is dropped, with its cell if that empties it, so every cell stays
    canonical: nonempty and zero-free."""
    values = {x for row in int_cells for cell in row.values()
              for x in cell.values()}
    scalars = {x: field.scalar(x) for x in values}
    return tuple({j: c for j, cell in row.items()
                  if (c := {k: scalars[x] for k, x in cell.items()
                            if scalars[x]})}
                 for row in int_cells)


class FreeNilpotent(Immutable):
    """The free nilpotent algebra on d generators of class c, with the
    factors and degrees of its Hall words in basis order (hall_words).
    Immutable."""

    _fields = ("d", "c", "algebra", "factors", "degrees")

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
    over_q, degrees, factors = _integer_structure(d, c)
    algebra = over_q if field == QQ else LieAlgebra(
        field, over_q.dim, _convert(over_q.cells, field), over_q.basis_names)
    for k in range(1, c + 1):
        expected = witt_dimension(d, k)
        actual = sum(1 for deg in degrees if deg == k)
        if actual != expected:
            raise InternalCheckError(
                f"degree-{k} layer has {actual} words, Witt number is {expected}")
    return FreeNilpotent(d, c, algebra, factors, degrees)
