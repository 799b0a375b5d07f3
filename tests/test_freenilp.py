import pytest
import sympy

from lietensor import GF, QQ, free_nilpotent, hall_words, witt_dimension
from lietensor import freenilp
from lietensor.errors import InternalCheckError
from lietensor.freenilp import (HallWord, _commutator, _expansion,
                                _integer_structure, mobius)
from lietensor.liealg import LieAlgebra

from support import dense_validation_failures


def test_mobius_against_sympy():
    for n in range(1, 40):
        assert mobius(n) == sympy.mobius(n)


def sympy_witt(d, k):
    total = sum(sympy.mobius(e) * d ** (k // e) for e in sympy.divisors(k))
    return total // k


def test_witt_dimensions_match_independent_formula():
    for d in range(0, 5):
        for k in range(1, 5):
            assert witt_dimension(d, k) == sympy_witt(d, k)


@pytest.mark.parametrize("d,c,dim", [(2, 2, 3), (2, 3, 5), (2, 4, 8),
                                     (3, 2, 6), (3, 3, 14)])
def test_golden_dimensions(d, c, dim):
    F = free_nilpotent(d, c)
    assert F.algebra.dim == dim


def test_layer_dimensions_are_witt_numbers():
    for d in range(1, 5):
        for c in range(1, 5):
            F = free_nilpotent(d, c)
            layers = F.layer_dims()
            for k in range(1, c + 1):
                assert layers[k] == witt_dimension(d, k), (d, c, k)


def test_validation_passes():
    # Jacobi of the Hall structure constants: the strongest single
    # correctness test of this module.
    for d in range(1, 5):
        for c in range(1, 5):
            assert free_nilpotent(d, c).algebra.validate().ok, (d, c)


def test_validation_passes_over_prime_fields():
    for field in (GF(2), GF(3), GF(5)):
        for (d, c) in ((2, 3), (3, 3)):
            assert free_nilpotent(d, c, field).algebra.validate().ok


def test_hall_words_satisfy_the_hall_condition():
    words = hall_words(3, 4)
    seen = set(words)
    for w in words:
        if w.index is None:
            assert w.left in seen and w.right in seen
            assert w.right < w.left
            if w.left.index is None:
                assert w.left.right <= w.right
    assert list(words) == sorted(words)


def test_small_hall_basis_labels():
    F = free_nilpotent(2, 2)
    assert F.algebra.basis_names == ("x1", "x2", "[x2,x1]")
    F = free_nilpotent(2, 3)
    assert F.algebra.basis_names == (
        "x1", "x2", "[x2,x1]", "[[x2,x1],x1]", "[[x2,x1],x2]")


def test_brackets_raise_degree_additively():
    F = free_nilpotent(3, 3)
    A = F.algebra
    for i in range(A.dim):
        for j in range(A.dim):
            total = F.degrees[i] + F.degrees[j]
            row = A.table[i][j]
            if total > F.c:
                assert not any(row)
            else:
                for k, coeff in enumerate(row):
                    if coeff:
                        assert F.degrees[k] == total


def test_defining_bracket_of_first_hall_word():
    F = free_nilpotent(2, 2)
    A = F.algebra
    # [x2, x1] is itself a basis word; [x1, x2] is its negative
    assert A.table[1][0] == (QQ.zero, QQ.zero, QQ.one)
    assert A.table[0][1] == (QQ.zero, QQ.zero, -QQ.one)


def test_free_nilpotent_edge_cases():
    assert free_nilpotent(0, 2).algebra.dim == 0
    assert free_nilpotent(1, 4).algebra.dim == 1
    F = free_nilpotent(4, 1)
    assert F.algebra.dim == 4 and F.algebra.is_abelian
    with pytest.raises(ValueError):
        free_nilpotent(2, 0)
    with pytest.raises(ValueError):
        free_nilpotent(-1, 2)


def test_instances_are_cached():
    assert free_nilpotent(2, 3) is free_nilpotent(2, 3)


def test_hall_word_ordering():
    a, b = HallWord(1, index=0), HallWord(1, index=1)
    w = HallWord(2, left=b, right=a)
    assert a < b < w
    assert w <= w and not w < w


@pytest.mark.parametrize("d,c", [(2, 4), (3, 3)])
def test_brackets_expand_to_associative_commutators(d, c):
    # No elimination involved: expanding table[i][j] back through the Hall
    # expansions must give the commutator of the two expansions.  Jacobi and
    # dimension checks cannot see a global sign error in the table; this can.
    F = free_nilpotent(d, c)
    memo: dict = {}
    expansions = [_expansion(w, c, memo) for w in F.words]
    for i, ei in enumerate(expansions):
        for j, ej in enumerate(expansions):
            combo: dict = {}
            for k, x in enumerate(F.algebra.table[i][j]):
                for m, v in expansions[k].items():
                    combo[m] = combo.get(m, 0) + x * v
            assert {m: v for m, v in combo.items() if v} == \
                _commutator(ei, ej, c), (i, j)


def dense_integer_table(int_cells):
    """Sparse integer cells ((k, x), ...) as a dense n x n table of lists."""
    n = len(int_cells)
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(int_cells):
        for j, cell in enumerate(row):
            for k, x in cell:
                table[i][j][k] = x
    return table


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=lambda f: f.name)
@pytest.mark.parametrize("d,c", [(2, 4), (3, 3), (4, 3)])
def test_table_is_the_cellwise_conversion_of_the_integer_table(d, c, field):
    # Converting each distinct integer once, and dropping the coefficients
    # that vanish in the field, must give exactly the elementwise conversion
    # of the dense integer table, scalar types included.
    int_table = dense_integer_table(_integer_structure(d, c)[0])
    table = free_nilpotent(d, c, field).algebra.table
    assert table == tuple(tuple(tuple(field.scalar(x) for x in cell)
                                for cell in row) for row in int_table)
    assert {type(x) for row in table for cell in row for x in cell} == \
        {type(field.zero)}


@pytest.mark.parametrize("d,c", [(2, 3), (3, 2)])
def test_a_corrupted_integer_cell_is_rejected_for_every_field(d, c, monkeypatch):
    # The integer table is validated once, over Q, for every field.  Shift
    # one integer constant (antisymmetry breaks), or a constant and its
    # mirror (only Jacobi can break): whenever the dense check over some
    # field finds the corrupted table invalid, so does the one over Q, and
    # free_nilpotent then rejects it for every field.
    int_cells, labels, degrees, words = freenilp._hall_table(d, c)
    table = dense_integer_table(int_cells)
    n = len(words)
    fields = (QQ, GF(2), GF(3), GF(5))
    monkeypatch.setattr(freenilp, "_integer_structure",
                        freenilp._integer_structure.__wrapped__)
    corruptions = [((i, j, k),) for i in range(n) for j in range(n)
                   for k in range(n)]
    corruptions += [((i, j, k), (j, i, k)) for i in range(n)
                    for j in range(i + 1, n) for k in range(n)]
    outcomes = set()
    for shift in (1, 5):
        for cells in corruptions:
            bad = [[list(cell) for cell in row] for row in table]
            for sign, (i, j, k) in zip((1, -1), cells):
                bad[i][j][k] += sign * shift
            bad = tuple(tuple(tuple((k, x) for k, x in enumerate(cell) if x)
                              for cell in row) for row in bad)
            monkeypatch.setattr(freenilp, "_hall_table",
                                lambda d, c: (bad, labels, degrees, words))
            invalid = {field: any(dense_validation_failures(LieAlgebra(
                           field, n, freenilp._convert(bad, field), labels)))
                       for field in fields}
            assert invalid[QQ] or not any(invalid.values()), cells
            for field in fields:
                if invalid[QQ]:
                    with pytest.raises(InternalCheckError, match="fails validation"):
                        freenilp.free_nilpotent.__wrapped__(d, c, field)
                else:
                    freenilp.free_nilpotent.__wrapped__(d, c, field)
            outcomes.add((len(cells), invalid[QQ], invalid[GF(5)]))
    assert (1, True, True) in outcomes and (2, True, True) in outcomes
    assert (2, True, False) in outcomes  # a shift by 5 vanishes over GF(5)
