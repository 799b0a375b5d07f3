import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lietensor import (GF, QQ, Field, BilinearMap, LieAlgebra, abelian,
                       bracket_pairing, build_tensor_square, catalog,
                       direct_sum, free_nilpotent, heisenberg, is_lie_pairing,
                       lie_algebra_from_brackets, presentation_of,
                       quotient_algebra, sl2, zero_algebra)
from lietensor.cli import verify_document
from lietensor.errors import (InternalCheckError, InvalidInputError,
                              NotIdealError)
from lietensor import liealg, linalg
from lietensor.liealg import ideal_closure
from lietensor.linalg import Subspace, sparse

from support import (Subalgebra, basis, basis_rows, bilinear_from_table,
                     cells_of, contains, corrupted_tables,
                     random_nilpotent_quotient, random_vector, span,
                     sympy_rank, table)

ALL_CATALOG = ["zero", "abelian(1)", "abelian(3)", "heisenberg(1)",
               "heisenberg(2)", "sl2", "heisenberg(1)+abelian(1)"]


def vec(field, entries):
    return tuple(field.scalar(x) for x in entries)


def test_validate_passes_on_catalog():
    for name in ALL_CATALOG:
        assert catalog(name).validate().ok, name


def test_validate_reports_antisymmetry_corruption():
    good = sl2()
    cells = [dict(row) for row in good.cells]
    cells[0][1] = {2: QQ.scalar(5)}  # no longer -cells[1][0]
    bad = LieAlgebra(QQ, 3, cells, good.basis_names)
    report = bad.validate()
    assert not report.ok
    assert (0, 1) in report.witness[0]
    assert report.detail.startswith("antisymmetry fails at [")


def test_bracket_examples():
    h = heisenberg(1)
    x, y, z = basis(h)
    assert h.bracket(x, y) == z
    v = vec(QQ, [3, -2, 5])
    assert h.bracket(v, v) == (QQ.zero,) * 3
    s = sl2()
    e, f, hh = basis(s)
    ef = tuple(a + b for a, b in zip(e, f))
    assert s.bracket(hh, ef) == vec(QQ, [2, -2, 0])


def test_derived_subalgebra():
    assert abelian(4).derived_subalgebra.dim == 0
    h = heisenberg(1)
    assert h.derived_subalgebra == span(QQ, 3, [vec(QQ, [0, 0, 1])])
    s = sl2()
    # oracle: the span of {h, 2e, -2f} has full rank
    sc = table(s)
    rows = [sc[0][1], sc[2][0], sc[2][1]]
    assert sympy_rank(rows, 3) == 3
    assert s.derived_subalgebra.dim == 3


def test_center():
    assert abelian(3).center == Subspace.full_space(QQ, 3)
    h = heisenberg(1)
    assert h.center == span(QQ, 3, [vec(QQ, [0, 0, 1])])
    s = sl2()
    # oracle: the 9 x 3 stacked adjoint matrix has rank 3
    sc = table(s)
    stacked = [[sc[i][j][c] for i in range(3)]
               for j in range(3) for c in range(3)]
    assert sympy_rank(stacked, 3) == 3
    assert s.center.dim == 0


def test_lower_central_series():
    assert [s.dim for s in abelian(3).lower_central_series()] == [3, 0]
    assert abelian(3).nilpotency_class() == 1
    for m in (1, 2):
        h = heisenberg(m)
        assert [s.dim for s in h.lower_central_series()] == [2 * m + 1, 1, 0]
        assert h.nilpotency_class() == 2
    s = sl2()
    dims = [x.dim for x in s.lower_central_series()]
    assert dims == [3, 3]  # stabilizes at the whole algebra immediately
    assert s.nilpotency_class() is None
    assert not s.is_nilpotent
    assert zero_algebra().nilpotency_class() == 1


def test_quotient_algebra():
    h = heisenberg(1)
    q, proj = quotient_algebra(h, h.derived_subalgebra)
    assert q.dim == 2 and q.is_abelian
    assert q.validate().ok
    full, ident = quotient_algebra(h, linalg.span(QQ, 3, ()))
    assert full.dim == 3
    assert ident.sparse_columns == ({0: QQ.one}, {1: QQ.one}, {2: QQ.one})
    assert full.cells == h.cells
    nothing, _ = quotient_algebra(h, Subspace.full_space(QQ, 3))
    assert nothing.dim == 0


def test_quotient_projection_is_homomorphism():
    for name in ALL_CATALOG:
        L = catalog(name)
        derived = L.derived_subalgebra
        q, proj = quotient_algebra(L, derived)
        sc, e = table(L), basis(L)
        for i in range(L.dim):
            for j in range(L.dim):
                lhs = proj.apply(sc[i][j])
                rhs = q.bracket(proj.apply(e[i]), proj.apply(e[j]))
                assert lhs == rhs


def test_quotient_rejects_non_ideal():
    h = heisenberg(1)
    not_ideal = span(QQ, 3, [vec(QQ, [1, 0, 0])])
    with pytest.raises(NotIdealError) as err:
        quotient_algebra(h, not_ideal)
    assert err.value.witness is not None


def test_derived_and_center_are_ideals():
    for name in ALL_CATALOG:
        L = catalog(name)
        for space in (L.derived_subalgebra, L.center):
            for row in space.sparse_rows:
                for j in range(L.dim):
                    assert not space.reduce_sparse(
                        L.bracket_sparse(row, {j: L.field.one}))


def test_lower_central_series_descends():
    for name in ALL_CATALOG:
        series = catalog(name).lower_central_series()
        for bigger, smaller in zip(series, series[1:]):
            assert bigger.contains_space(smaller)


def test_direct_sum():
    a = direct_sum(abelian(1), abelian(2))
    assert a.dim == 3 and a.is_abelian
    b = direct_sum(heisenberg(1), abelian(1))
    assert b.dim == 4 and b.nilpotency_class() == 2
    assert b.validate().ok
    ha = direct_sum(heisenberg(1), heisenberg(2))
    assert ha.derived_subalgebra.dim == \
        heisenberg(1).derived_subalgebra.dim + heisenberg(2).derived_subalgebra.dim
    with pytest.raises(ValueError):
        direct_sum(abelian(1, QQ), abelian(1, GF(2)))


def test_bracket_pairing_is_lie_pairing_on_catalog():
    for name in ALL_CATALOG:
        L = catalog(name)
        assert is_lie_pairing(bracket_pairing(L), L, L).ok, name


def test_bracket_pairing_into_derived_subalgebra():
    # The motivating example lands in the derived subalgebra; express it
    # there and check the axioms against that algebra's own bracket.
    L = heisenberg(2)
    derived = Subalgebra(L, L.derived_subalgebra)
    cells = tuple(tuple(derived.coords_sparse(row.get(j, {}))
                        for j in range(L.dim)) for row in L.cells)
    rho = BilinearMap(QQ, L.dim, derived.algebra.dim, cells)
    assert is_lie_pairing(rho, L, derived.algebra).ok


def test_zero_pairing_is_lie_pairing():
    L = sl2()
    rho = BilinearMap(QQ, 3, 3, tuple(tuple({} for _ in range(3))
                                      for _ in range(3)))
    assert is_lie_pairing(rho, L, L).ok


def test_broken_pairing_has_witness():
    L = sl2()
    shifted = [[list(v) for v in row] for row in table(L)]
    shifted[0][1][0] = shifted[0][1][0] + QQ.one  # shift one component of [e,f]
    rho = bilinear_from_table(QQ, 3, 3, shifted)
    check = is_lie_pairing(rho, L, L)
    assert not check.ok
    assert check.witness is not None and check.witness[0].startswith("axiom")


def test_catalog_constructors():
    assert heisenberg(2).dim == 5
    assert abelian(0).dim == 0
    with pytest.raises(InvalidInputError):
        sl2(GF(2))
    assert sl2(GF(3)).validate().ok
    assert catalog("heisenberg(1)+heisenberg(1)").dim == 6
    with pytest.raises(InvalidInputError):
        catalog("so3")


def test_ideal_closure():
    h = heisenberg(1)
    closed = ideal_closure(h, [vec(QQ, [1, 0, 0])])
    # [x, y] = z gets pulled in
    assert closed == span(QQ, 3, [vec(QQ, [1, 0, 0]), vec(QQ, [0, 0, 1])])


@st.composite
def tables_and_vectors(draw):
    """An arbitrary bilinear table (not necessarily Lie) over Q, GF(2) or
    GF(5), and a zero, dense or sparse vector."""
    field = Field(draw(st.sampled_from([0, 2, 5])))
    n = draw(st.integers(1, 5))
    ints = st.integers(-3, 3)
    raw = draw(st.lists(ints, min_size=n ** 3, max_size=n ** 3))
    grid = tuple(tuple(tuple(field.scalar(raw[(i * n + j) * n + k])
                             for k in range(n)) for j in range(n))
                 for i in range(n))
    L = LieAlgebra(field, n, cells_of(grid), tuple(f"x{i}" for i in range(n)))
    top = field.characteristic - 1 if field.characteristic else 4
    v = draw(st.one_of(st.just([0] * n),
                       st.lists(st.integers(1, top), min_size=n, max_size=n),
                       st.lists(ints, min_size=n, max_size=n)))
    return L, tuple(field.scalar(x) for x in v)


@settings(max_examples=80, deadline=None)
@given(tables_and_vectors())
def test_ad_is_bracket_with_each_basis_vector(case):
    L, v = case
    assert L.ad_sparse(sparse(v)) == [sparse(L.bracket(v, x)) for x in basis(L)]


def test_ideal_checks_agree_with_the_bracket_loop_under_every_corruption():
    # Mutation test for the ad-based ideal check in quotient_algebra and for
    # ideal_closure: on every single corrupted constant, NotIdealError is
    # raised (with the same witness) exactly when the plain loop over
    # bracket(row, x_j) finds an escaping vector.
    outcomes = set()
    for L in (heisenberg(2), heisenberg(1, GF(2)), sl2(GF(5))):
        center = L.center if L.center.dim else L.derived_subalgebra
        ideal = span(L.field, L.dim, basis_rows(center)[:1])
        rows, e = basis_rows(ideal), basis(L)
        for where, bad in corrupted_tables(L):
            escapes = [w for row in rows
                       for w in (bad.bracket(row, x) for x in e)
                       if not contains(ideal, w)]
            try:
                quotient_algebra(bad, ideal)
                witness = None
            except NotIdealError as exc:
                witness = exc.witness
            except InternalCheckError:
                witness = None
            assert witness == (escapes[0] if escapes else None), where
            outcomes.add(bool(escapes))

            closure = ideal
            while True:
                grown = span(
                    L.field, L.dim, list(basis_rows(closure)) +
                    [bad.bracket(r, x) for r in basis_rows(closure) for x in e])
                if grown == closure:
                    break
                closure = grown
            assert ideal_closure(bad, rows) == closure, where
    assert outcomes == {True, False}


# ----------------------------------------------------------------------
# the stored form: canonical sparse cells
# ----------------------------------------------------------------------

@st.composite
def pairs_of_tables(draw):
    """Two dense tables (not necessarily Lie) over Q, GF(2) or GF(5) that
    differ in at most one integer entry, shifted by 0, 2 or 5: so the two
    are equal exactly when the shift vanishes in the field."""
    field = Field(draw(st.sampled_from([0, 2, 5])))
    n = draw(st.integers(0, 4))
    raw = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, 5]),
                        min_size=n ** 3, max_size=n ** 3))
    other = list(raw)
    if n:
        other[draw(st.integers(0, n ** 3 - 1))] += draw(st.sampled_from([0, 2, 5]))

    def table(ints):
        return tuple(tuple(tuple(field.scalar(ints[(i * n + j) * n + k])
                                 for k in range(n)) for j in range(n))
                     for i in range(n))

    return field, table(raw), table(other)


@settings(max_examples=150, deadline=None)
@given(pairs_of_tables())
def test_cells_are_canonical_and_decide_equality(case):
    field, t1, t2 = case
    names = tuple(f"x{i}" for i in range(len(t1)))
    a = LieAlgebra(field, len(t1), cells_of(t1), names)
    b = LieAlgebra(field, len(t2), cells_of(t2), names)
    assert table(a) == t1 and table(b) == t2
    for i, row in enumerate(a.cells):
        for j, v in enumerate(t1[i]):
            cell = {k: c for k, c in enumerate(v) if c}
            assert row.get(j) == (cell or None)
        assert all(row.values())
    assert (a == b) == (t1 == t2)
    if a == b:
        assert hash(a) == hash(b)


def test_a_cell_that_is_not_canonical_is_rejected():
    one = QQ.one
    for row in ({1: {0: QQ.zero}}, {1: {2: one}}, {1: {-1: one}}, {2: {0: one}},
                {-1: {0: one}}, {1: {}}):
        with pytest.raises(ValueError, match="in range, nonempty and zero-free"):
            LieAlgebra(QQ, 2, (row, {}), ("a", "b"))
    with pytest.raises(ValueError, match="size mismatch"):
        LieAlgebra(QQ, 2, ({},), ("a", "b"))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)],
                         ids=lambda f: f.name)
def test_every_constructor_stores_the_cells_of_its_dense_view(field):
    # F(3, 4) has constants +-2, which vanish over GF(2); the random
    # quotient, the subalgebra and the tensor square of F(2, 4) reduce
    # brackets whose residuals come out of index order.
    F = free_nilpotent(2, 3, field).algebra
    F33 = free_nilpotent(3, 3, field).algebra
    h2 = heisenberg(2, field)
    seed = random_vector(random.Random(1), field, F33.dim)
    one, two = field.one, field.scalar(2)
    # unsorted terms, a repeated index that cancels, a zero and a 2
    brackets = {(0, 1): [(2, one), (1, one), (1, -one), (0, field.zero)],
                (0, 2): [(2, two), (1, one)]}
    algebras = [lie_algebra_from_brackets(field, 3, brackets),
                F, free_nilpotent(3, 4, field).algebra,
                quotient_algebra(h2, h2.center)[0],
                quotient_algebra(F, F.lower_central_series()[2])[0],
                random_nilpotent_quotient(random.Random(0), 3, 4, field),
                Subalgebra(F, F.derived_subalgebra).algebra,
                Subalgebra(F33, ideal_closure(F33, [seed])).algebra,
                direct_sum(heisenberg(1, field), abelian(2, field)),
                build_tensor_square(heisenberg(1, field)).algebra,
                build_tensor_square(F).algebra,
                build_tensor_square(free_nilpotent(2, 4, field).algebra).algebra]
    if field.characteristic != 2:
        s = sl2(field)
        algebras += [direct_sum(s, h2), Subalgebra(s, s.derived_subalgebra).algebra,
                     build_tensor_square(s).algebra]
    for A in algebras:
        assert A == LieAlgebra(field, A.dim, cells_of(table(A)),
                               A.basis_names), A


def test_the_dense_view_is_off_the_verification_path(monkeypatch):
    # Nothing that verify runs (both engines, the cover and the report
    # layer) may call the dense forks that remain for the benchmark tracer:
    # the dense bracket, the dense pairing map and quotient_algebra, from the
    # catalog or a random cross-oracle quotient onwards.  The inputs are
    # built first, as the random quotient is a quotient_algebra; the caches
    # are cleared so that every construction happens under the patch.
    def refuse(*args, **kwargs):
        raise AssertionError("a dense fork was called")

    algebras = [catalog("heisenberg(2)+abelian(1)"),
                catalog("heisenberg(2)+abelian(1)", GF(2)), sl2(GF(3)),
                random_nilpotent_quotient(random.Random(20260810), 3, 3)]
    for cached in (build_tensor_square, presentation_of, free_nilpotent):
        cached.cache_clear()
    monkeypatch.setattr(LieAlgebra, "bracket", refuse)
    monkeypatch.setattr(BilinearMap, "apply", refuse)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lietensor" and \
                hasattr(module, "quotient_algebra"):
            monkeypatch.setattr(module, "quotient_algebra", refuse)
    for L in algebras:
        doc = verify_document(L, "test")
        assert all(v == "pass" or v == "skipped: not nilpotent"
                   for v in doc["verdicts"].values()), doc["verdicts"]
    L = algebras[0]
    x = basis(L)[0]
    for call in (lambda: L.bracket(x, x),
                 lambda: bracket_pairing(L).apply(x, x),
                 lambda: liealg.quotient_algebra(L, L.center)):
        with pytest.raises(AssertionError, match="dense fork"):
            call()
