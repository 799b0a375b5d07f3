import hashlib
import tracemalloc
from functools import cmp_to_key

import pytest
import sympy

from lietensor import GF, QQ, free_nilpotent, hall_words, witt_dimension
from lietensor import freenilp
from lietensor.catalog import MAX_AMBIENT
from lietensor.cli import canonical_json, free_nilpotent_document
from lietensor.errors import InternalCheckError
from lietensor.fields import Field
from lietensor.freenilp import _integer_structure, mobius
from lietensor.liealg import LieAlgebra
from lietensor.linalg import span

from support import (associative_commutator, dense_validate, free_envelope,
                     hall_expansions, recording, table)


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
    degrees, factors = hall_words(3, 4)
    assert len(degrees) == len(factors) == 3 + 3 + 8 + 18
    assert degrees[:3] == (1, 1, 1) and factors[:3] == (None, None, None)
    for i in range(3, len(factors)):
        u, v = factors[i]
        assert v < u < i and degrees[i] == degrees[u] + degrees[v]
        if factors[u] is not None:
            assert factors[u][1] <= v
        # ordered by degree, then by the pair of factor indices
        assert (degrees[i - 1], factors[i - 1] or ()) < (degrees[i], (u, v))


def hall_tree(label):
    """A basis label "x3" or "[a,b]" as its degree and the generator index
    or the trees of its two factors."""
    def parse(pos):
        if label[pos] == "x":
            end = pos + 1
            while end < len(label) and label[end].isdigit():
                end += 1
            return (1, int(label[pos + 1:end])), end
        left, pos = parse(pos + 1)  # after "["
        right, pos = parse(pos + 1)  # after ","
        return (left[0] + right[0], left, right), pos + 1  # after "]"
    return parse(0)[0]


def recursive_hall_order(a, b):
    """The Hall order written out recursively: degree first, then the
    generator index, or the left factor and then the right factor."""
    if a[0] != b[0]:
        return a[0] - b[0]
    if a[0] == 1:
        return a[1] - b[1]
    return recursive_hall_order(a[1], b[1]) or recursive_hall_order(a[2], b[2])


@pytest.mark.parametrize("d,c", [(2, 16), (15, 3), (3, 6)])
def test_the_index_pair_order_is_the_recursive_hall_order(d, c):
    # The basis sorts each layer by the indices of the two factors; this
    # sorts it by the factors themselves, read back from the labels.
    labels = freenilp._hall_table(d, c)[1]
    trees = [hall_tree(label) for label in labels]
    assert sorted(trees, key=cmp_to_key(recursive_hall_order)) == trees
    assert len(set(trees)) == len(trees)


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
            cell = A.cells[i].get(j, {})
            if total > F.c:
                assert not cell
            else:
                assert all(F.degrees[k] == total for k in cell)


def test_defining_bracket_of_first_hall_word():
    F = free_nilpotent(2, 2)
    A = F.algebra
    # [x2, x1] is itself a basis word; [x1, x2] is its negative
    assert A.cells[1][0] == {2: QQ.one}
    assert A.cells[0][1] == {2: -QQ.one}


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


def test_memory_grows_with_the_nonzero_cells_not_with_dim_squared():
    # F(2, 13) has 1377 basis words but only a few thousand nonzero cells;
    # an n x n grid of cells took 34 MB here, the rows of nonzero cells
    # about 5 MB.  The caches are cleared so that the whole construction,
    # Hall table and validation included, is traced.
    for cached in (free_nilpotent, _integer_structure):
        cached.cache_clear()
    tracemalloc.start()
    try:
        assert free_nilpotent(2, 13).algebra.dim == 1377
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        for cached in (free_nilpotent, _integer_structure):
            cached.cache_clear()
    assert peak < 12 * 2 ** 20, peak


ENVELOPE = free_envelope()


def test_the_envelope_admits_295_free_algebras_with_two_or_more_generators():
    assert len(ENVELOPE) == 295
    assert max(c for d, c in ENVELOPE) == 10 and (2, 10) in ENVELOPE
    assert max(d for d, c in ENVELOPE) == MAX_AMBIENT


@pytest.mark.parametrize("d,classes", [
    pytest.param(d, (c,), id=f"{d}-{c}") for d, c in ENVELOPE] + [
    pytest.param(d, range(1, MAX_AMBIENT + 1), id=f"{d}-1..{MAX_AMBIENT}")
    for d in (0, 1)])
def test_brackets_expand_to_associative_commutators(d, classes):
    # No elimination involved: expanding cells[i][j] back through the Hall
    # expansions must give the commutator of the two expansions, for every
    # (d, c) the design envelope admits.  The expansions are linearly
    # independent, so this pins every cell; Jacobi and dimension checks
    # cannot see a global sign error in the table, and this can.
    for c in classes:
        cells, _, degrees, factors = freenilp._hall_table(d, c)
        expansions = hall_expansions(factors, c)
        monomials = {m: i for i, m in enumerate({m for e in expansions
                                                 for m in e})}
        assert span(QQ, len(monomials), (
            {monomials[m]: QQ.scalar(v) for m, v in e.items()}
            for e in expansions)).dim == len(expansions), c
        for i, ei in enumerate(expansions):
            for j, ej in enumerate(expansions):
                if degrees[i] + degrees[j] > c:
                    assert j not in cells[i], (c, i, j)  # truncated away
                    continue
                combo: dict = {}
                for k, x in cells[i].get(j, {}).items():
                    assert type(x) is int and x, (c, i, j)
                    for m, v in expansions[k].items():
                        combo[m] = combo.get(m, 0) + x * v
                assert {m: v for m, v in combo.items() if v} == \
                    associative_commutator(ei, ej, c), (c, i, j)


def test_a_hall_pair_missing_from_the_basis_is_an_internal_error(monkeypatch):
    # Drop the last word of top degree: the rewriting reaches the Hall pair
    # that names it, and the lookup of its index must fail loudly.
    degrees, factors = hall_words(2, 4)
    monkeypatch.setattr(freenilp, "hall_words",
                        lambda d, c: (degrees[:-1], factors[:-1]))
    with pytest.raises(InternalCheckError, match="is not a basis word"):
        freenilp._hall_table(2, 4)


def test_layer_sizes_are_checked_against_witt_once_per_pair(monkeypatch):
    # The layer sizes depend on (d, c) alone, so _integer_structure checks
    # them once for every field: c calls to witt_dimension, and a wrong
    # Witt number is an internal error.
    real = freenilp.witt_dimension
    for cached in (free_nilpotent, _integer_structure):
        cached.cache_clear()
    with recording(freenilp, "witt_dimension") as calls:
        for field in (QQ, GF(2), GF(3)):
            free_nilpotent(2, 3, field)
    assert [k for (_, k), _, _ in calls] == [1, 2, 3]
    monkeypatch.setattr(freenilp, "witt_dimension",
                        lambda d, k: real(d, k) + (k == 2))
    for cached in (free_nilpotent, _integer_structure):
        cached.cache_clear()
    with pytest.raises(InternalCheckError,
                       match="degree-2 layer has 1 words, Witt number is 2"):
        free_nilpotent(2, 3)


# sha256 of canonical_json(free_nilpotent_document(d, c, field)), recorded
# from the associative-expansion construction the Hall rewriting replaced.
PINNED_FREE_NILPOTENT_DOCUMENTS = {
    (2, 10): ("60007da297f156cb038b6e52bc24e03ab7e01b49ed8a4957f7dd4ec55f407d9e",
              "85fd654cd388ef52d70f6f73e788597158fea1038456f7007242b6c950e7795e",
              "fd98c7ae054b03c3fc9badfc80b1d01e462b32973b62eff29e38325542304e5e"),
    (3, 5): ("226b3f77885a69fd5a6aadebd0684bd5fafd9d249d80942ddd8c1658d944667d",
             "8327e3ced47dbc6bbdc2e92be270a35302ca6f382f1e7cd36b711c78f8658fdf",
             "5e95e927ac832765cfa1fbfd52363bd4a5e6967bf5006fcc35f973232e046cbe"),
    (4, 4): ("2f46bbec7b73d48edbff20780707c89ee8c55742630eaac55d5e1c5cdffcc101",
             "57cb0d185abd6841ec322182e62206177395479abbdbc363ce436bb074a08f8c",
             "b3524b8a537cb96ab9043a13680c306287c113a57988a973b28cc183343d35c7"),
    (6, 3): ("be8c845f85b97b19c5d6d4fa8be6d25e99304be0581764835da23c1fcdcc809f",
             "dd5b286fd5cc4b9e06efa6e88cd888bcbcc0e4fc2eab4a09bdf3e4debb6941da",
             "eb860b409e9d161dcd4e745d90090d048a47116d8d4aaea8490a90cf8035d70b"),
    (16, 2): ("9e476b6733ab81bb315c4254c6ed432a45a29b1f054ab66db8329071276bf9aa",
              "e41171779f2291e486f28be4380f1717f9d9e78abba3631d1673db4e02efccf5",
              "2893f6496112903e01d8828b586b89f988bc9d32dc75ea64ae835044cc6f086c"),
}


@pytest.mark.parametrize("d,c", sorted(PINNED_FREE_NILPOTENT_DOCUMENTS))
def test_free_nilpotent_documents_are_pinned(d, c):
    got = tuple(hashlib.sha256(canonical_json(
        free_nilpotent_document(d, c, field)).encode()).hexdigest()
        for field in (QQ, GF(2), GF(5)))
    assert got == PINNED_FREE_NILPOTENT_DOCUMENTS[d, c]


def dense_integer_table(int_cells):
    """Integer rows {j: {k: x}} as a dense n x n table of lists."""
    n = len(int_cells)
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(int_cells):
        for j, cell in row.items():
            for k, x in cell.items():
                table[i][j][k] = x
    return table


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=lambda f: f.name)
@pytest.mark.parametrize("d,c", [(2, 4), (3, 3), (4, 3)])
def test_table_is_the_cellwise_conversion_of_the_integer_table(d, c, field):
    # Converting each distinct integer once, and dropping the coefficients
    # that vanish in the field, must give exactly the elementwise conversion
    # of the dense integer table, scalar types included.
    int_table = dense_integer_table(freenilp._hall_table(d, c)[0])
    dense_table = table(free_nilpotent(d, c, field).algebra)
    assert dense_table == tuple(tuple(tuple(field.scalar(x) for x in cell)
                                for cell in row) for row in int_table)
    assert {type(x) for row in dense_table for cell in row for x in cell} == \
        {type(field.zero)}


# Every (d, c) that the tests of this module build with free_nilpotent.
BUILT_PAIRS = sorted({(d, c) for d in range(1, 5) for c in range(1, 5)}
                     | {(0, 2), (2, 10), (2, 13), (3, 5), (4, 4), (6, 3),
                        (16, 2)})


@pytest.mark.parametrize("d,c", BUILT_PAIRS, ids=lambda p: str(p))
def test_each_distinct_integer_is_converted_once(d, c):
    # The cells over every field are the coefficient-by-coefficient
    # conversion of the integer table, zeros dropped; the Q algebra is the
    # one that _integer_structure validated; and _convert calls
    # Field.scalar once per distinct integer.
    int_cells = freenilp._hall_table(d, c)[0]
    values = {x for row in int_cells for cell in row.values()
              for x in cell.values()}
    assert free_nilpotent(d, c, QQ).algebra is _integer_structure(d, c)[0]
    for field in (QQ, GF(2), GF(3), GF(5)):
        expected = tuple(
            {j: v for j, cell in row.items()
             if (v := {k: field.scalar(x) for k, x in cell.items()
                       if field.scalar(x)})}
            for row in int_cells)
        assert free_nilpotent(d, c, field).algebra.cells == expected, field
        with recording(Field, "scalar") as calls:
            assert freenilp._convert(int_cells, field) == expected, field
        assert sorted(x for (_, x), _, _ in calls) == sorted(values), field


@pytest.mark.parametrize("d,c", [(2, 3), (3, 2)])
def test_a_corrupted_integer_cell_is_rejected_for_every_field(d, c, monkeypatch):
    # The integer table is validated once, over Q, for every field.  Shift
    # one integer constant (antisymmetry breaks), or a constant and its
    # mirror (only Jacobi can break): whenever the dense check over some
    # field finds the corrupted table invalid, so does the one over Q, and
    # free_nilpotent then rejects it for every field.
    int_cells, labels, degrees, factors = freenilp._hall_table(d, c)
    table = dense_integer_table(int_cells)
    n = len(factors)
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
            bad = tuple({j: {k: x for k, x in enumerate(cell) if x}
                         for j, cell in enumerate(row) if any(cell)}
                        for row in bad)
            monkeypatch.setattr(freenilp, "_hall_table",
                                lambda d, c: (bad, labels, degrees, factors))
            invalid = {field: not dense_validate(LieAlgebra(
                           field, n, freenilp._convert(bad, field), labels)).ok
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
