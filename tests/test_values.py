"""The package's value types are plain immutable classes that declare their
fields once; errors.Immutable derives their constructors, equality, hashes
and reprs from that declaration.  These tests pin the semantics they keep:
constructor order, keywords and defaults; TypeError on a malformed
argument list; equality by fields and type; hashes that skip the sparse
payload of Matrix, Subspace, LieAlgebra and BilinearMap, and every field of
TensorSquare but its base; and AttributeError on assignment."""

from itertools import combinations

import pytest

import lietensor
from lietensor import (GF, QQ, BilinearMap, Cover, Field, FreeNilpotent,
                       FreePresentation, LieAlgebra, Matrix, Subspace,
                       TensorSquare, Verdict, build_cover,
                       build_tensor_square, free_nilpotent, heisenberg,
                       presentation_of)
from lietensor.errors import Immutable
from lietensor.tensor import (Abelianization, TensorReport, WhiteheadGamma,
                              tensor_report)

# Each type with its constructor's parameters, in positional order.
FIELDS = {
    Verdict: ("ok", "detail", "witness"),
    Field: ("characteristic",),
    Matrix: ("field", "rows", "cols", "sparse_columns"),
    Subspace: ("field", "ambient_dim", "pivots", "sparse_rows"),
    LieAlgebra: ("field", "dim", "cells", "basis_names"),
    BilinearMap: ("field", "source_dim", "target_dim", "cells"),
    FreeNilpotent: ("d", "c", "algebra", "factors", "degrees"),
    FreePresentation: ("L", "free", "onto", "relations",
                       "relations_commutator"),
    Cover: ("L", "algebra", "multiplier", "onto", "boundaries", "d"),
    Abelianization: ("algebra", "to_ab", "lift_cols", "tensor", "map",
                     "kernel"),
    WhiteheadGamma: ("rank", "dim", "to_square"),
    TensorSquare: ("base", "relation_space", "algebra", "pairing"),
    TensorReport: ("dims", "verdicts", "diagnostics", "subspaces"),
}


def instances():
    """One instance of each value type, from the package's own builders."""
    L = heisenberg(1)
    T = build_tensor_square(L)
    return [Verdict(False, "fails", ("axiom-i", (0, 1, 2))), GF(5),
            T.relation_space.project, T.relation_space, L, T.pairing,
            free_nilpotent(2, 3),
            presentation_of(L), build_cover(L), T.abelianization,
            T.whitehead_gamma, T, tensor_report(T)]


def rebuilt(x, keywords=False):
    """A second instance with the same fields, built separately."""
    values = [getattr(x, name) for name in FIELDS[type(x)]]
    if keywords:
        return type(x)(**dict(zip(FIELDS[type(x)], values)))
    return type(x)(*values)


def test_every_value_type_is_covered():
    assert [type(x) for x in instances()] == list(FIELDS)


@pytest.mark.parametrize("keywords", [False, True])
def test_equal_fields_give_equal_values_and_hashes(keywords):
    for x in instances():
        y = rebuilt(x, keywords)
        assert y is not x and y == x and not y != x, type(x)
        if type(x) is TensorReport:  # its fields are dicts
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(y) == hash(x), type(x)
            assert {x: 1}[y] == 1, type(x)


def test_values_of_different_types_are_never_equal():
    for x, y in combinations(instances(), 2):
        assert x != y and not x == y, (type(x), type(y))


def test_assignment_and_deletion_raise_attribute_error():
    for x in instances():
        for name in FIELDS[type(x)] + ("extra",):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, FIELDS[type(x)][0])
        assert rebuilt(x) == x, type(x)


def test_sparse_payloads_are_compared_but_not_hashed():
    one = QQ.one
    a = Matrix(QQ, 2, 2, ({0: one}, {}))
    b = Matrix(QQ, 2, 2, ({}, {1: one}))
    assert a != b and hash(a) == hash(b) == hash((QQ, 2, 2))
    u = Subspace(QQ, 2, (0,), ({0: one},))
    assert u.free_cols == (1,)  # a cached view still works
    v = Subspace(QQ, 2, (0,), ({0: one, 1: one},))
    assert u != v and hash(u) == hash(v) == hash((QQ, 2, (0,)))
    f = BilinearMap(QQ, 1, 1, (({0: one},),))
    g = BilinearMap(QQ, 1, 1, (({},),))
    assert f != g and hash(f) == hash(g) == hash((QQ, 1, 1))
    K = LieAlgebra(QQ, 2, ({1: {0: one}}, {0: {0: -one}}), ("a", "b"))
    M = LieAlgebra(QQ, 2, ({}, {}), ("a", "b"))
    assert K != M and hash(K) == hash(M) == hash((QQ, 2))
    T = build_tensor_square(heisenberg(1))
    S = TensorSquare(T.base, T.relation_space, M, T.pairing)
    assert S != T and hash(S) == hash(T) == hash((T.base,))


def test_keywords_and_defaults():
    assert Verdict(True) == Verdict(True, "", None) == \
        Verdict(ok=True, witness=None)
    assert repr(Verdict(True)) == "Verdict(ok=True, detail='', witness=None)"
    assert Field() == QQ and Field(characteristic=3) == GF(3)
    assert repr(GF(3)) == "Field(characteristic=3)"
    with pytest.raises(ValueError, match="not prime"):
        Field(4)


def test_lie_algebra_constructor_checks_its_cells():
    L = heisenberg(1)
    with pytest.raises(ValueError, match="size mismatch"):
        LieAlgebra(L.field, 2, L.cells, L.basis_names)
    cells = [dict(row) for row in L.cells]
    cells[0][1] = {3: QQ.one}
    with pytest.raises(ValueError, match="not in range"):
        LieAlgebra(L.field, 3, cells, L.basis_names)


def test_every_value_type_of_the_package_declares_the_pinned_fields():
    # A value type added later is covered by the tests above only once it
    # is listed in FIELDS.
    found, todo = set(), [Immutable]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith(lietensor.__name__ + "."):
                found.add(cls)
    assert found == set(FIELDS)
    for cls, names in FIELDS.items():
        assert cls._fields == names, cls


def test_malformed_argument_lists_raise_type_error():
    one = QQ.one
    for make, message in (
            (lambda: Verdict(True, "", None, "extra"), "takes 3 fields"),
            (lambda: Matrix(QQ, 1, 1, ({0: one},), rows=1), "repeated field 'rows'"),
            (lambda: Verdict(True, reason="x"), "unknown field 'reason'"),
            (lambda: Verdict(True, ok=False), "repeated field 'ok'"),
            (lambda: Verdict(detail="x"), "missing field 'ok'"),
            (lambda: Matrix(QQ, 1, sparse_columns=()), "missing field 'cols'"),
            (lambda: Cover(), "missing field 'L'")):
        with pytest.raises(TypeError, match=message):
            make()
