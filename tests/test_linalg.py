import random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import GF as SympyGF
from sympy.polys.domains import QQ as SympyQQ
from sympy.polys.matrices import DomainMatrix

from lietensor import build_tensor_square, catalog, free_nilpotent
from lietensor.cli import verify_document
from lietensor.fields import GF, QQ
from lietensor.presentation import (build_cover, presentation_of,
                                    verify_cover_theorem)
from lietensor.liealg import (bracket_pairing, ideal_closure,
                              lie_algebra_from_table)
from lietensor import linalg
from lietensor.linalg import (Matrix, SpanBuilder, Subspace, annihilator,
                              kernel, rref, sparse, subspace_intersect,
                              subspace_sum)

import support
from support import (complement_within, contains, inverse, linear_map,
                     matrix_from_rows, random_nilpotent_quotient, solve,
                     sympy_nullity, sympy_rank, to_sympy)


def mat(field, rows, cols=None):
    return matrix_from_rows(field, [[field.scalar(x) for x in r] for r in rows],
                            cols=cols)


def vec(field, entries):
    return tuple(field.scalar(x) for x in entries)


def span(field, ambient, rows):
    return support.span(field, ambient, [vec(field, r) for r in rows])


# ----------------------------------------------------------------------
# spec'd examples
# ----------------------------------------------------------------------

def test_rref_examples():
    r, p = rref(mat(QQ, [[2, 4], [1, 2]]))
    assert r.entries == ((QQ.one, QQ.scalar(2)),) and p == (0,)
    ident = Matrix.identity(QQ, 3)
    r, p = rref(ident)
    assert r == ident and p == (0, 1, 2)
    f2 = GF(2)
    r, p = rref(mat(f2, [[1, 1], [1, 1]]))
    assert r.entries == ((f2.one, f2.one),) and p == (0,)


def test_kernel_examples():
    assert kernel(Matrix.identity(QQ, 2)).dim == 0
    assert kernel(Matrix.zero(QQ, 2, 2)) == Subspace.full_space(QQ, 2)
    k = kernel(mat(QQ, [[1, 2]]))
    assert k.basis.entries == ((QQ.one, QQ.parse("-1/2")),)


def test_sum_examples():
    x_axis = span(QQ, 2, [[1, 0]])
    y_axis = span(QQ, 2, [[0, 1]])
    assert subspace_sum(x_axis, y_axis) == Subspace.full_space(QQ, 2)
    a = span(QQ, 3, [[1, 2, 3], [0, 1, 1]])
    assert subspace_sum(a, a) == a
    assert subspace_sum(a, Subspace.zero_space(QQ, 3)) == a


def test_intersect_examples():
    x_axis = span(QQ, 2, [[1, 0]])
    y_axis = span(QQ, 2, [[0, 1]])
    assert subspace_intersect(x_axis, y_axis).dim == 0
    a = span(QQ, 3, [[1, 2, 3], [0, 1, 1]])
    assert subspace_intersect(a, a) == a
    diag = span(QQ, 2, [[1, 1]])
    assert subspace_intersect(diag, Subspace.full_space(QQ, 2)) == diag


def test_contains_examples():
    a = span(QQ, 2, [[0, 1]])
    assert contains(a, vec(QQ, [0, 0]))
    assert not contains(a, vec(QQ, [1, 0]))
    assert contains(span(QQ, 2, [[1, 1]]), vec(QQ, [2, 2]))
    assert span(QQ, 2, [[1, 1]]).contains_space(span(QQ, 2, [[-3, -3]]))
    assert not a.contains_space(span(QQ, 2, [[1, 1]]))


def test_quotient_examples():
    assert span(QQ, 3, [[0, 0, 1]]).project.rows == 2
    assert Subspace.zero_space(QQ, 3).project == Matrix.identity(QQ, 3)
    assert span(QQ, 2, [[1, 1]]).project.rows == 1


def test_subspace_equality_is_structural():
    a = span(QQ, 3, [[2, 4, 0], [1, 2, 1]])
    b = span(QQ, 3, [[1, 2, 1], [0, 0, -2], [3, 6, 1]])
    assert a == b
    assert hash(a) == hash(b)


def test_ambient_mismatch_errors():
    a = span(QQ, 2, [[1, 0]])
    b = span(QQ, 3, [[1, 0, 0]])
    with pytest.raises(ValueError):
        subspace_sum(a, b)
    with pytest.raises(ValueError):
        subspace_intersect(a, b)


def test_solve_and_inverse():
    # The test suite's solve and inverse, the oracles of the cover tests.
    m = mat(QQ, [[1, 2], [3, 4]])
    x = solve(m, vec(QQ, [5, 6]))
    assert m.apply(x) == vec(QQ, [5, 6])
    assert solve(mat(QQ, [[1, 1], [1, 1]]), vec(QQ, [0, 1])) is None
    assert inverse(m).mul(m) == Matrix.identity(QQ, 2)
    with pytest.raises(ValueError):
        inverse(mat(QQ, [[1, 1], [1, 1]]))


def test_complement_within():
    outer = span(QQ, 3, [[1, 0, 1], [0, 1, 1]])
    inner = span(QQ, 3, [[1, 1, 2]])
    comp = complement_within(inner, outer)
    assert comp.dim == 1
    assert subspace_intersect(comp, inner).dim == 0
    assert subspace_sum(comp, inner) == outer
    with pytest.raises(ValueError):
        complement_within(span(QQ, 3, [[1, 0, 0]]), outer)


def test_linear_map_basics():
    f = linear_map(QQ, 2, [vec(QQ, [1, 0]), vec(QQ, [1, 0])])
    assert f.apply(vec(QQ, [1, 1])) == vec(QQ, [2, 0])
    assert f.rank() == 1
    assert kernel(f).dim == 1
    assert f.image() == span(QQ, 2, [[1, 0]])
    assert not f.is_bijective()
    assert Matrix.identity(QQ, 2).is_bijective()


def test_wrong_widths_are_rejected_not_truncated():
    # Every entry point that still takes a dense vector rejects one of the
    # wrong width instead of reading a prefix of it or padding it.
    m = mat(QQ, [[1, 2, 3]], cols=3)
    builder = SpanBuilder(QQ, 3)
    L = lie_algebra_from_table(QQ, [[(QQ.zero,) * 2] * 2] * 2)
    rho = bracket_pairing(L)
    for v in (vec(QQ, [1, 2]), vec(QQ, [1, 2, 3, 4])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            m.apply(v)
        with pytest.raises(ValueError, match="ambient mismatch"):
            builder.add(v)
    for v in (vec(QQ, [1]), vec(QQ, [1, 2, 3])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            L.bracket(v, vec(QQ, [1, 0]))
        with pytest.raises(ValueError, match="ambient mismatch"):
            ideal_closure(L, [vec(QQ, [1, 0]), v])
        with pytest.raises(ValueError, match="dimension mismatch"):
            rho.apply(vec(QQ, [1, 0]), v)
    with pytest.raises(ValueError, match="one coordinate per basis vector"):
        lie_algebra_from_table(QQ, [[(QQ.one,), (QQ.one,)]] * 2)
    assert m.apply(vec(QQ, [1, 1, 1])) == vec(QQ, [6])
    assert builder._rows == {}


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

fields_st = st.sampled_from([QQ, GF(2), GF(5)])
entry_st = st.integers(-4, 4)


@st.composite
def matrices(draw, max_dim=5):
    field = draw(fields_st)
    nrows = draw(st.integers(0, max_dim))
    ncols = draw(st.integers(1, max_dim))
    rows = draw(st.lists(
        st.lists(entry_st, min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows))
    return matrix_from_rows(field,
                            [[field.scalar(x) for x in r] for r in rows],
                            cols=ncols)


@st.composite
def subspaces(draw, ambient=4):
    field = draw(fields_st)
    nrows = draw(st.integers(0, ambient))
    rows = draw(st.lists(
        st.lists(entry_st, min_size=ambient, max_size=ambient),
        min_size=nrows, max_size=nrows))
    return support.span(field, ambient,
                        [[field.scalar(x) for x in r] for r in rows])


@given(matrices())
def test_rank_nullity(m):
    assert m.rank() + kernel(m).dim == m.cols


@given(matrices())
def test_rref_is_idempotent(m):
    r1, p1 = rref(m)
    r2, p2 = rref(r1)
    assert r1 == r2 and p1 == p2


@given(matrices())
def test_kernel_vectors_annihilate(m):
    zero = (m.field.zero,) * m.rows
    for row in kernel(m).basis.entries:
        assert m.apply(row) == zero


@settings(max_examples=60)
@given(subspaces(), subspaces())
def test_modular_dimension_law(a, b):
    if a.field != b.field:
        return
    s = subspace_sum(a, b)
    i = subspace_intersect(a, b)
    assert s.dim + i.dim == a.dim + b.dim
    assert a.contains_space(i) and b.contains_space(i)
    assert s.contains_space(a) and s.contains_space(b)


@given(subspaces(), st.lists(entry_st, min_size=4, max_size=4))
def test_quotient_round_trip(sub, raw):
    v = tuple(sub.field.scalar(x) for x in raw)
    rest = sub.reduce_sparse(sparse(v))
    y = sub.project.apply(v)
    assert y == tuple(rest.get(c, sub.field.zero) for c in sub.free_cols)
    assert (not any(y)) == contains(sub, v)


@st.composite
def descents(draw):
    """A random subspace S, a random sparse map f on its ambient space and
    a random map g on the quotient; half the time f is g after S.project,
    so that it kills S."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    sparse_entry = st.sampled_from([0, 0, 0, 1, -1, 2, 3])

    def columns(rows, count):
        return draw(st.lists(st.lists(sparse_entry, min_size=rows,
                                      max_size=rows),
                             min_size=count, max_size=count))

    S = support.span(field, n, [[field.scalar(x) for x in r]
                                for r in columns(n, draw(st.integers(0, n)))])

    def matrix(rows, cols):
        return Matrix(field, rows, cols, tuple(
            sparse([field.scalar(x) for x in c]) for c in columns(rows, cols)))
    g = matrix(m, len(S.free_cols))
    f = g.mul(S.project) if draw(st.booleans()) else matrix(m, n)
    return S, f, g


@settings(max_examples=150)
@given(descents())
def test_descend_is_the_map_induced_on_the_quotient(case):
    S, f, g = case
    induced = S.descend(f.sparse_columns, f.rows)
    assert (induced is None) == (f.image_of(S).dim > 0)
    if induced is not None:
        assert induced.mul(S.project) == f
        # project is onto, so the induced map is unique
        assert (induced == g) == (g.mul(S.project) == f)


@given(matrices(max_dim=4))
def test_rank_matches_sympy(m):
    if not m.field.is_rational:
        return
    assert m.rank() == sympy_rank(m.entries, m.cols)
    assert kernel(m).dim == sympy_nullity(m.entries, m.cols)


@given(matrices(max_dim=4))
def test_rref_entries_are_canonical(m):
    if not m.field.is_rational:
        return
    r, _ = rref(m)
    for row in r.entries:
        for x in row:
            assert x.denominator > 0


@settings(deadline=None)
@given(matrices(), st.data())
def test_span_builder_is_order_independent(m, data):
    shuffled = data.draw(st.permutations(m.entries))
    reduced, pivots = rref(m)
    assert support.span(m.field, m.cols, shuffled) == \
        support.span(m.field, m.cols, m.entries) == \
        Subspace(m.field, m.cols, pivots,
                 tuple(sparse(r) for r in reduced.entries))
    if m.field.is_rational and m.rows:
        # sympy's RREF never goes through the package's elimination.
        oracle, oracle_pivots = sympy.Matrix(
            [[to_sympy(x) for x in r] for r in m.entries]).rref()
        assert pivots == tuple(oracle_pivots)
        assert [[to_sympy(x) for x in r] for r in reduced.entries] == \
            oracle.tolist()[:len(pivots)]


@st.composite
def spans_with_more_rows(draw, max_dim=5):
    field = draw(fields_st)
    ncols = draw(st.integers(1, max_dim))
    row_st = st.lists(entry_st, min_size=ncols, max_size=ncols)
    first = draw(st.lists(row_st, max_size=max_dim))
    later = draw(st.lists(row_st, min_size=1, max_size=max_dim))
    probes = draw(st.lists(row_st, min_size=1, max_size=3))

    def scalars(rows):
        return [tuple(field.scalar(x) for x in r) for r in rows]
    return field, ncols, scalars(first), scalars(later), scalars(probes)


@settings(deadline=None)
@given(spans_with_more_rows())
def test_subspace_keeps_its_sparse_rows_apart_from_the_builder(case):
    field, ncols, first, later, probes = case
    space = support.span(field, ncols, first)
    assert list(space.sparse_rows) == [sparse(r) for r in space.basis.entries]
    snapshot = [dict(r) for r in space.sparse_rows]
    copy = Subspace(field, ncols, space.pivots,
                    tuple(sparse(r) for r in space.basis.entries))
    residuals = [space.reduce_sparse(sparse(v)) for v in probes]
    other = support.span(field, ncols, later)
    # A sum seeded from the subspace's own rows must not reach the rows
    # that its span handed over.
    total = subspace_sum(space, other)
    assert support.span(field, ncols, first + later) == total == \
        subspace_sum(copy, other)
    assert list(space.sparse_rows) == snapshot
    assert space == copy and space.basis == copy.basis
    assert [space.reduce_sparse(sparse(v)) for v in probes] == residuals == \
        [copy.reduce_sparse(sparse(v)) for v in probes]
    assert list(total.sparse_rows) == [sparse(r) for r in total.basis.entries]


def sympy_domain(field):
    return SympyQQ if field.is_rational else SympyGF(field.characteristic)


def sympy_matrix(field, rows, cols):
    domain = sympy_domain(field)
    if field.is_rational:
        entries = [[domain(int(x.numerator), int(x.denominator)) for x in r]
                   for r in rows]
    else:
        entries = [[domain(int(x)) for x in r] for r in rows]
    if not rows:
        return DomainMatrix.zeros((0, cols), domain)
    return DomainMatrix(entries, (len(rows), cols), domain)


def from_sympy(field, x):
    if field.is_rational:
        return field.scalar(int(x.numerator)) / field.scalar(int(x.denominator))
    return field.scalar(int(x))


def test_a_sum_back_reduces_a_pivot_that_only_a_first_operand_row_holds():
    # The row (1, 1, 0) of the first operand is the only row that holds
    # column 1.  The second operand's e_1 makes 1 a pivot, and that row,
    # which went in unchanged, must lose its entry there; neither operand
    # changes.
    for field in (QQ, GF(5)):
        one = field.one
        seed = span(field, 3, [[1, 1, 0]])
        later = span(field, 3, [[0, 1, 0]])
        assert subspace_sum(seed, later).sparse_rows == ({0: one}, {1: one})
        assert subspace_sum(seed, later) == span(field, 3, [[1, 1, 0],
                                                            [0, 1, 0]])
        assert seed.sparse_rows == ({0: one, 1: one},)
        assert later.sparse_rows == ({1: one},)


@st.composite
def seeded_rows(draw, max_dim=6):
    # Mostly zero entries, so that many new pivots lie outside every stored
    # row and the builder skips its scan.
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    ncols = draw(st.integers(1, max_dim))
    row_st = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, 3]),
                      min_size=ncols, max_size=ncols)
    seed, later = (draw(st.lists(row_st, max_size=max_dim)) for _ in range(2))
    return (field, ncols, [vec(field, r) for r in seed],
            [vec(field, r) for r in later])


@settings(deadline=None, max_examples=200)
@given(seeded_rows())
def test_a_sum_of_spans_and_one_span_give_the_sympy_rref(case):
    # sympy's DomainMatrix over QQ and GF(p) never goes through the
    # package's elimination.
    field, ncols, seed, later = case
    rows = seed + later
    echelon, pivots = sympy_matrix(field, rows, ncols).rref()
    expected = tuple(sparse([from_sympy(field, x) for x in r])
                     for r in echelon.to_list()[:len(pivots)])
    whole = linalg.span(field, ncols, [sparse(r) for r in rows])
    summed = subspace_sum(support.span(field, ncols, seed),
                          support.span(field, ncols, later))
    assert summed == whole
    for space in (whole, summed):
        assert space.pivots == tuple(pivots)
        assert space.sparse_rows == expected


all_fields_st = st.sampled_from([QQ, GF(2), GF(3), GF(5)])
sparse_entry_st = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 2, 3])
# fields, most rows, fewest and most columns, entries
PAIR_SHAPES = [
    (fields_st, 5, 1, 5, entry_st),  # small and dense
    (all_fields_st, 4, 0, 16, sparse_entry_st),  # wide, like kappa: L -> T
    (all_fields_st, 16, 0, 4, sparse_entry_st),  # tall, like a center's map
]


@st.composite
def matrix_pairs(draw):
    """The rows of two matrices of one width, small and dense, or wide or
    tall and mostly zero, with 0 rows and 0 columns among them."""
    fields, max_rows, min_cols, max_cols, entries = \
        draw(st.sampled_from(PAIR_SHAPES))
    field = draw(fields)
    ncols = draw(st.integers(min_cols, max_cols))
    row_st = st.lists(entries, min_size=ncols, max_size=ncols)
    a, b = (draw(st.lists(row_st, max_size=max_rows)) for _ in range(2))
    return (field, ncols, [[field.scalar(x) for x in r] for r in a],
            [[field.scalar(x) for x in r] for r in b])


@settings(deadline=None, max_examples=300)
@given(matrix_pairs())
@example((GF(3), 0, [[]] * 16, [[]]))
@example((QQ, 16, [], [[QQ.zero] * 15 + [QQ.one]]))
def test_kernel_and_intersection_agree_with_sympy(case):
    # sympy's DomainMatrix over QQ and GF(p) never goes through the
    # package's elimination.
    field, ncols, a_rows, b_rows = case

    def rank(rows):
        return sympy_matrix(field, rows, ncols).rank()

    m = matrix_from_rows(field, a_rows, cols=ncols)
    null = sympy_matrix(field, a_rows, ncols).nullspace().to_list()
    oracle = support.span(field, ncols,
                          [[from_sympy(field, x) for x in r] for r in null])
    k = kernel(m)
    assert k == oracle and k.dim == ncols - rank(a_rows)
    a = support.span(field, ncols, a_rows)
    b = support.span(field, ncols, b_rows)
    meet = subspace_intersect(a, b)
    assert meet.dim == rank(a_rows) + rank(b_rows) - rank(a_rows + b_rows)
    for v in meet.basis.entries:
        assert rank(a_rows + [list(v)]) == rank(a_rows)
        assert rank(b_rows + [list(v)]) == rank(b_rows)
    assert list(meet.sparse_rows) == [sparse(r) for r in meet.basis.entries]


@st.composite
def bilinear_cells(draw):
    """An arbitrary bilinear map F^n x F^n -> F^m as an n x n grid of dense
    cells, over Q, GF(2), GF(3) or GF(5): neither antisymmetric nor free
    of zero cells."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cell_st = st.one_of(st.just([0] * m),
                        st.lists(st.sampled_from([0, 0, 1, -1, 2, 3]),
                                 min_size=m, max_size=m))
    grid = [[[field.scalar(x) for x in draw(cell_st)] for _ in range(n)]
            for _ in range(n)]
    return field, n, m, grid


@settings(deadline=None)
@given(bilinear_cells())
def test_annihilator_is_the_kernel_of_the_stacked_map(case):
    # The dense stacked map has row j*m + k and column i holding entry k of
    # cell (i, j); sympy's null space of it never goes through the package.
    field, n, m, grid = case
    stacked = [[grid[i][j][k] for i in range(n)]
               for j in range(n) for k in range(m)]
    null = sympy_matrix(field, stacked, n).nullspace().to_list()
    oracle = support.span(field, n,
                          [[from_sympy(field, x) for x in r] for r in null])
    got = annihilator(field, n, m, lambda i, j: sparse(grid[i][j]).items())
    assert got == oracle
    assert got == kernel(matrix_from_rows(field, stacked, cols=n))


# ----------------------------------------------------------------------
# the stored forms: sparse columns and echelon rows
# ----------------------------------------------------------------------

@st.composite
def matrix_cases(draw, max_dim=4):
    field = draw(fields_st)
    nrows, ncols, k = (draw(st.integers(lo, max_dim)) for lo in (0, 1, 1))

    def rows(nr, nc, entries=entry_st):
        drawn = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc),
                              min_size=nr, max_size=nr))
        return tuple(tuple(field.scalar(x) for x in r) for r in drawn)
    return (field, ncols, rows(nrows, ncols), rows(ncols, k),
            rows(ncols, ncols), rows(nrows, ncols, st.integers(0, 1)),
            tuple(field.scalar(x) for x in draw(
                st.lists(entry_st, min_size=nrows, max_size=nrows))))


@settings(deadline=None)
@given(matrix_cases())
def test_stored_forms_agree_with_sympy(case):
    # sympy's DomainMatrix over QQ and GF(p) never goes through the
    # package's elimination.
    field, ncols, a_rows, b_rows, s_rows, c_rows, rhs = case

    def rows_of(dm):
        return tuple(tuple(from_sympy(field, x) for x in r)
                     for r in dm.to_list())

    a = matrix_from_rows(field, a_rows, cols=ncols)
    b = matrix_from_rows(field, b_rows)
    s = matrix_from_rows(field, s_rows)
    A, S = (sympy_matrix(field, r, ncols).to_dense() for r in (a_rows, s_rows))
    B = sympy_matrix(field, b_rows, b.cols)
    for m, rows in ((a, a_rows), (b, b_rows), (s, s_rows)):
        assert m.entries == rows
        assert all(all(col.values()) and all(0 <= r < m.rows for r in col)
                   for col in m.sparse_columns)
    assert a.mul(b).entries == rows_of(A.matmul(B))
    assert a.rank() == A.rank()
    null = [[from_sympy(field, x) for x in r] for r in A.nullspace().to_list()]
    assert kernel(a) == support.span(field, ncols, null)
    x = solve(a, rhs)
    solvable = sympy_matrix(field, [r + (y,) for r, y in zip(a_rows, rhs)],
                            ncols + 1).rank() == A.rank()
    assert (x is not None) == solvable
    assert x is None or a.apply(x) == rhs
    if S.rank() == ncols:
        assert inverse(s).entries == rows_of(S.inv())
    else:
        with pytest.raises(ValueError, match="singular"):
            inverse(s)
    # Equal stored forms, equal dense entries and equal hashes coincide.
    c = matrix_from_rows(field, c_rows, cols=ncols)
    for other in (matrix_from_rows(field, list(a_rows), cols=ncols), c):
        assert (a == other) == (a.entries == other.entries)
        assert a != other or hash(a) == hash(other)
    span_a = support.span(field, ncols, a_rows)
    for other in (support.span(field, ncols, a_rows[::-1] + a_rows[:1]),
                  support.span(field, ncols, c_rows)):
        assert (span_a == other) == \
            (span_a.basis.entries == other.basis.entries)
        assert span_a != other or hash(span_a) == hash(other)


def test_the_dense_views_are_off_the_verification_path(monkeypatch):
    # Nothing that verify runs (both engines, the cover and the report
    # layer) may read a dense matrix or basis, from the catalog, abelian(16)
    # or a random cross-oracle quotient onwards.  The caches are cleared so
    # that every construction happens under the patch.
    def refuse(self):
        raise AssertionError("a dense view was read")

    for cached in (build_tensor_square, presentation_of, free_nilpotent):
        cached.cache_clear()
    monkeypatch.setattr(Matrix, "entries", property(refuse))
    monkeypatch.setattr(Subspace, "basis", property(refuse))
    algebras = [catalog("heisenberg(2)+abelian(1)"),
                catalog("heisenberg(2)+abelian(1)", GF(2)),
                catalog("abelian(16)"),
                random_nilpotent_quotient(random.Random(20260810), 3, 3)]
    for L in algebras:
        verdicts = verify_document(L, "test")["verdicts"]
        assert set(verdicts.values()) == {"pass"}, (L, verdicts)
    L = catalog("heisenberg(2)+abelian(1)", GF(5))
    assert verify_cover_theorem(build_cover(L), build_tensor_square(L)).ok
    with pytest.raises(AssertionError, match="dense view"):
        Matrix.identity(QQ, 1).entries
