"""The sparse verification kernels against the dense loops they replaced.

Each rewritten check is run on every single corrupted structure constant of
small algebras and must give exactly what the plain dense loop in
support.py gives: the same verdict, witness, table or exception.  The
checks and their oracles both return Verdict, so a verdict is compared
whole: its ok, its detail and its structured witness.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lietensor import (GF, QQ, BilinearMap, Field, LieAlgebra, Verdict,
                       abelian, build_tensor_square, bracket_pairing, catalog,
                       free_nilpotent, heisenberg, is_lie_pairing,
                       presentation_of, quotient_algebra, sl2)
from lietensor import linalg, presentation
from lietensor.catalog import CATALOG_SUITE, SUITE_FIELDS, is_supported
from lietensor.errors import InternalCheckError
from lietensor.liealg import homomorphism_failure
from lietensor.linalg import Subspace, dense, kernel, sparse
from lietensor.tensor import TensorSquare

from support import (Subalgebra, basis, cells_of,
                     corrupted_alternating_tables, corrupted_pairings,
                     corrupted_tables, dense_bracket,
                     dense_decomposition_verdict, dense_homomorphism_failure,
                     dense_is_lie_pairing, dense_subalgebra_table,
                     dense_validate, elimination_log, matrix_from_rows,
                     recording, table)


@st.composite
def brackets_of_two_vectors(draw):
    """An arbitrary bilinear table (not necessarily Lie) over Q, GF(2) or
    GF(5), and two vectors, each zero, sparse or dense."""
    field = Field(draw(st.sampled_from([0, 2, 5])))
    n = draw(st.integers(1, 5))
    ints = st.integers(-3, 3)
    raw = draw(st.lists(ints, min_size=n ** 3, max_size=n ** 3))
    grid = tuple(tuple(tuple(field.scalar(raw[(i * n + j) * n + k])
                             for k in range(n)) for j in range(n))
                 for i in range(n))
    L = LieAlgebra(field, n, cells_of(grid), tuple(f"x{i}" for i in range(n)))
    vector = st.one_of(st.just([0] * n),
                       st.lists(st.sampled_from([0, 0, 0, 1, -2]),
                                min_size=n, max_size=n),
                       st.lists(ints, min_size=n, max_size=n))
    u, v = draw(vector), draw(vector)
    return (L, tuple(map(field.scalar, u)), tuple(map(field.scalar, v)))


@settings(max_examples=100, deadline=None)
@given(brackets_of_two_vectors())
def test_sparse_bracket_equals_bracket(case):
    L, u, v = case
    w = L.bracket_sparse(sparse(u), sparse(v))
    assert all(w.values())  # no stored zeros, so dict equality is exact
    assert w == sparse(L.bracket(u, v))
    assert dense(w, L.dim, L.field.zero) == dense_bracket(L, u, v)
    assert L.ad_sparse(sparse(u)) == \
        [sparse(dense_bracket(L, u, x)) for x in basis(L)]


def pairing_cases():
    """(rho, L, H) for the bracket pairing of sl2 and the universal pairings
    of heisenberg(1) over Q and GF(2) and of sl2 over GF(3)."""
    L = sl2()
    yield bracket_pairing(L), L, L
    for base in (heisenberg(1), heisenberg(1, GF(2)), sl2(GF(3))):
        T = build_tensor_square(base)
        yield T.pairing, base, T.algebra


def test_pairing_check_matches_the_dense_oracle_under_every_corruption():
    kinds = set()
    for rho, L, H in pairing_cases():
        assert is_lie_pairing(rho, L, H) == dense_is_lie_pairing(rho, L, H) \
            == Verdict(True)
        variants = ([(bad, L, H) for _, bad in corrupted_pairings(rho)]
                    + [(rho, bad, H) for _, bad in corrupted_tables(L)]
                    + [(rho, L, bad) for _, bad in corrupted_tables(H)])
        for args in variants:
            expected = dense_is_lie_pairing(*args)
            got = is_lie_pairing(*args)
            assert got == expected, (L.field, expected)
            if not got.ok:
                kind, indices = got.witness
                assert all(0 <= i < L.dim for i in indices)
                assert len(indices) == (4 if kind == "axiom-iii" else 3)
            kinds.add(expected.witness[0] if expected.witness else "ok")
    assert kinds == {"ok", "axiom-i", "axiom-ii", "axiom-iii"}


def subalgebra_cases():
    F = free_nilpotent(2, 3).algebra
    H2 = heisenberg(2)
    h_gf2 = heisenberg(1, GF(2))
    yield F, F.derived_subalgebra
    yield H2, H2.derived_subalgebra
    one = QQ.one
    yield H2, linalg.span(QQ, 5, [{0: one}, {2: one}, {4: one}])
    yield sl2(GF(5)), Subspace.full_space(GF(5), 3)
    one = GF(2).one
    yield h_gf2, linalg.span(GF(2), 3, [{0: one}, {2: one}])


def test_subalgebra_matches_the_bracket_loop_under_every_corruption():
    outcomes = set()
    for L, space in subalgebra_cases():
        assert table(Subalgebra(L, space).algebra) == \
            dense_subalgebra_table(L, space)
        for where, bad in corrupted_tables(L):
            try:
                expected = dense_subalgebra_table(bad, space)
            except ValueError as exc:
                expected = str(exc)
            try:
                got = table(Subalgebra(bad, space).algebra)
            except ValueError as exc:
                got = str(exc)
            assert got == expected, (L, where)
            outcomes.add(isinstance(expected, str))
    assert outcomes == {True, False}


def test_subalgebra_rejects_a_subspace_not_closed_under_the_bracket():
    L = heisenberg(1)
    open_plane = linalg.span(QQ, 3, [{0: QQ.one}, {1: QQ.one}])
    with pytest.raises(ValueError, match="does not lie in the subalgebra"):
        Subalgebra(L, open_plane)
    with pytest.raises(ValueError, match="does not lie in the subalgebra"):
        Subalgebra(L, L.derived_subalgebra).coords_sparse({0: QQ.one})


def test_validate_matches_the_dense_triple_loop_under_every_corruption():
    # heisenberg(1)+abelian(2) has mostly zero cells, so most triples are
    # skipped by the sparse loop until a corruption makes them nonzero;
    # free_nilpotent(2, 4) has degree-3 words in its cells, whose partners
    # supply the third index.
    found = set()
    for L in (heisenberg(2), sl2(GF(5)), free_nilpotent(2, 3).algebra,
              free_nilpotent(2, 4).algebra,
              catalog("heisenberg(1)+abelian(2)", GF(3))):
        assert L.validate() == dense_validate(L) == \
            Verdict(True, "valid", ((), ()))
        for where, bad in corrupted_tables(L):
            report = bad.validate()
            assert report == dense_validate(bad), where
            anti, jacobi = report.witness
            assert report.ok == (not anti and not jacobi)
            assert all(i <= j for i, j in anti)
            assert all(i < j < k for i, j, k in jacobi)
            found.add(bool(jacobi))
    assert found == {True, False}


def test_homomorphism_failure_matches_the_dense_loop_under_every_corruption():
    # The projection onto a quotient and the identity, with one corrupted
    # constant in the source or in the target.
    outcomes = set()
    for L in (heisenberg(2), sl2(GF(3)), heisenberg(1, GF(2))):
        ideal = L.center if L.center.dim else linalg.span(L.field, L.dim, ())
        Q, proj = quotient_algebra(L, ideal)
        maps = [(proj.sparse_columns, L, Q),
                ([{i: L.field.one} for i in range(L.dim)], L, L)]
        for images, source, target in maps:
            dense_images = [dense(im, target.dim, L.field.zero) for im in images]
            assert homomorphism_failure(images, source, target) is None
            for _, bad in corrupted_tables(source):
                expected = dense_homomorphism_failure(dense_images, bad, target)
                assert homomorphism_failure(images, bad, target) == expected
                outcomes.add(expected is None)
            for _, bad in corrupted_tables(target):
                expected = dense_homomorphism_failure(dense_images, source, bad)
                assert homomorphism_failure(images, source, bad) == expected
                outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_decomposition_verdict_matches_the_dense_loops_under_every_corruption():
    # Every verdict of verify_decomposition on every corrupted constant of
    # the tensor square's algebra.  The constant is corrupted together with
    # its mirror: the algebra comes from descended_algebra, which validates
    # it, so its bracket is alternating.
    details = set()
    for base in (heisenberg(1), heisenberg(1, GF(2)), sl2(GF(3)),
                 heisenberg(1, GF(3))):
        T = build_tensor_square(base)
        for where, bad in corrupted_alternating_tables(T.algebra):
            results = []
            for check in (TensorSquare.verify_decomposition,
                          dense_decomposition_verdict):
                fresh = TensorSquare(base, T.relation_space, bad, T.pairing)
                try:
                    results.append(check(fresh))
                except InternalCheckError as exc:
                    results.append(str(exc))
            assert results[0] == results[1], (base.field, where)
            details.add(getattr(results[1], "detail", "raised"))
    assert "complement is not an ideal" in details


def test_commutator_check_brackets_only_pairs_with_a_nonzero_side():
    # A pair whose source cell is zero, and whose images meet in no nonzero
    # cell of the target, has two empty sides; the commutator map's
    # homomorphism check on heisenberg(2)'s tensor square must bracket only
    # the other pairs, in row-major order.
    T = build_tensor_square(heisenberg(2))
    fresh = TensorSquare(T.base, T.relation_space, T.algebra, T.pairing)
    images = fresh._commutator.sparse_columns
    position = {id(image): j for j, image in enumerate(images)}
    with recording(LieAlgebra, "bracket_sparse") as seen:
        fresh.commutator_map
    cells, target = T.algebra.cells, T.base.cells
    expected = [(i, j) for i in range(T.dim) for j in range(T.dim)
                if j in cells[i] or any(b in target[a] for a in images[i]
                                        for b in images[j])]
    assert [(position[id(u)], position[id(v)])
            for (K, u, v), _, _ in seen if K is T.base] == expected
    both_nonzero = [(i, j) for i in range(T.dim) for j in range(T.dim)
                    if j in cells[i] or (images[i] and images[j])]
    assert len(expected) < len(both_nonzero) < T.dim ** 2
    # A zero source cell is still bracketed where the images meet in a
    # nonzero cell of the target, though here the bracket cancels:
    # abelian(2) -> heisenberg(1), e0 -> x1 + x2, e1 -> x3.
    H, one = heisenberg(1), QQ.one
    assert H.cells[0][1] == {2: one}
    images = [{0: one, 1: one}, {2: one}]
    with recording(LieAlgebra, "bracket_sparse") as seen:
        assert homomorphism_failure(images, abelian(2), H) is None
    assert [args[1:] for args, _, _ in seen] == [(images[0], images[0])]


def test_presentation_isomorphism_check_visits_fewer_pairs():
    # The presentation engine's exterior square of free_nilpotent(3, 3) maps
    # onto the tensor engine's by a bijection, so every image is nonzero and
    # the rule "the cell or both images nonzero" visits every pair.  The
    # check must visit only the pairs whose cell is nonzero or whose images
    # meet in a nonzero cell of the target.
    L = free_nilpotent(3, 3).algebra
    T = build_tensor_square(L)
    P = presentation_of(L)
    target, _ = T.exterior_square()
    T.commutator_map  # the tensor square's own check runs before recording
    with recording(presentation, "homomorphism_failure") as checked, \
            recording(LieAlgebra, "bracket_sparse") as brackets:
        presentation.exterior_via_presentation(P, T)
    [((images, source, _), _, _)] = checked
    assert source is P.exterior and all(images)
    cells = source.cells
    expected = [(images[i], images[j]) for i in range(source.dim)
                for j in range(source.dim)
                if j in cells[i] or any(b in target.cells[a]
                                        for a in images[i] for b in images[j])]
    seen = [args[1:] for args, _, _ in brackets if args[0] is target]
    assert len(seen) == len(expected) < source.dim ** 2
    assert all(u is x and v is y for (u, v), (x, y) in zip(seen, expected))


def inserts_during(run):
    """run() and the vectors that it inserts into spans, in order."""
    with elimination_log() as log:
        result = run()
    return result, [record.vector for record in log.inserts]


def assert_kernel_rows_skip_the_scan(m):
    # Each kernel row leads in the second block, at the unit column of the
    # column just inserted, which no stored row holds when the columns go
    # in last first (linalg.kernel): the span skips its back-reduction
    # scan, as the pivot is not among the columns its rows can hold.
    with elimination_log() as log:
        space = kernel(m)
    scanned = [record.scanned for record in log.inserts
               if record.pivot is not None and record.pivot >= m.rows]
    assert len(scanned) == space.dim
    assert not any(scanned)


@st.composite
def wide_sparse_matrices(draw):
    """At most 4 x 16 and mostly zero, like kappa: L -> T, over Q, GF(2),
    GF(3) or GF(5)."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    ncols = draw(st.integers(0, 16))
    row_st = st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2]),
                      min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row_st, max_size=4))
    return matrix_from_rows(field, [list(map(field.scalar, r)) for r in rows],
                            cols=ncols)


@settings(deadline=None)
@given(wide_sparse_matrices())
def test_kernel_rows_skip_the_back_reduction_scan(m):
    assert_kernel_rows_skip_the_scan(m)


def test_commutator_kernels_of_the_catalog_skip_the_back_reduction_scan():
    dims = 0
    for name in CATALOG_SUITE:
        for field in SUITE_FIELDS:
            if is_supported(name, field):
                T = build_tensor_square(catalog(name, field))
                kappa, _ = T.commutator_map
                assert_kernel_rows_skip_the_scan(kappa)
                dims += kappa.cols - kappa.rank()
    assert dims > 0


@pytest.mark.parametrize("field, r1_and_j", [(QQ, 283), (GF(2), 294)])
def test_tensor_square_spans_its_relations_without_r1(field, r1_and_j):
    # J on the triples with a nonzero cell, s(w, x_f), w (x) w and
    # s(w_r, w_s) (tensor module docstring) span the relation space of
    # free_nilpotent(3, 3) in fewer inserts than r1 and J (and, over GF(2),
    # u (x) u) took, at the same rank; none of them is empty.
    L = free_nilpotent(3, 3, field).algebra
    L.derived_subalgebra  # cached before counting
    T, inserted = inserts_during(lambda: build_tensor_square.__wrapped__(L))
    assert T.relation_space.dim == 161
    assert all(inserted) and len(inserted) < r1_and_j


def test_lower_central_series_inserts_only_nonzero_brackets():
    # L^2 is the derived subalgebra, spanned by the cells [x_i, x_j], j > i,
    # in row order.  Each later term is spanned by the [w, x_j] over the
    # echelon rows w of the term before; most of them are 0, and only the
    # others are inserted, in the same order.
    F = free_nilpotent(3, 3).algebra
    L = LieAlgebra(F.field, F.dim, F.cells, F.basis_names)  # nothing cached
    series, inserted = inserts_during(L.lower_central_series)
    expected = [cell for i, row in enumerate(L.cells)
                for j, cell in row.items() if j > i]
    expected += [w for term in series[1:-1] for row in term.sparse_rows
                 for w in L.ad_sparse(row) if w]
    assert inserted == expected
    assert len(expected) < sum(term.dim for term in series[:-1]) * L.dim


def test_pairing_check_evaluates_axioms_i_and_ii_only_where_a_cell_is_nonzero():
    # Each evaluation of axiom (i) or (ii) calls is_lie_pairing's inner
    # difference(); its caller's (l, lp, s) is the triple.  The five sides
    # read the cells (l, l'), (l', l), (l', s), (l, s) and (s, l).
    L = heisenberg(2)
    T = build_tensor_square(L)
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "difference":
            names = frame.f_back.f_locals
            seen.append((names["l"], names["lp"], names["s"]))

    sys.setprofile(profile)
    try:
        assert is_lie_pairing(T.pairing, L, T.algebra) == Verdict(True)
    finally:
        sys.setprofile(None)
    nz, n = L.cells, L.dim
    expected = [(l, lp, s) for l in range(n) for lp in range(n)
                for s in range(n)
                if lp in nz[l] or l in nz[lp] or s in nz[lp] or s in nz[l]
                or l in nz[s]]
    assert sorted(set(seen)) == expected == list(dict.fromkeys(seen))
    assert len(expected) < n ** 3


def test_pairing_check_reads_the_transposed_cell_of_a_table():
    # [x1, x0] = x2 while [x0, x1] = 0, and rho(x2, x2) is the only nonzero
    # value: only the cell (l', l) of (l, l', s) = (0, 1, 2) is nonzero, and
    # axiom (ii) fails there first.  A check that assumed antisymmetry would
    # skip the triple and report a later one.
    o = QQ.one
    L = LieAlgebra(QQ, 3, ({}, {0: {2: o}}, {}), ("x1", "x2", "x3"))
    H = LieAlgebra(QQ, 1, ({},), ("x1",))
    cells = tuple(tuple({0: o} if (i, j) == (2, 2) else {} for j in range(3))
                  for i in range(3))
    rho = BilinearMap(QQ, 3, 1, cells)
    expected = Verdict(False, witness=("axiom-ii", (0, 1, 2)))
    assert is_lie_pairing(rho, L, H) == dense_is_lie_pairing(rho, L, H) \
        == expected
