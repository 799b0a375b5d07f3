import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lietensor import (GF, QQ, Verdict, abelian, build_tensor_square,
                       catalog, heisenberg, induced_map, is_lie_pairing, sl2,
                       tensor_report)
from lietensor import linalg, tensor
from lietensor.catalog import CATALOG_SUITE, SUITE_FIELDS, is_supported
from lietensor.cli import verify_document
from lietensor.errors import InternalCheckError, InvalidInputError
from lietensor.freenilp import free_nilpotent
from lietensor.liealg import (BilinearMap, LieAlgebra, bracket_pairing,
                              lie_algebra_from_brackets)
from lietensor.linalg import (Matrix, Subspace, add_scaled, dense, kernel,
                              sparse, subspace_sum)
from lietensor.tensor import Abelianization, TensorSquare

from support import (basis, basis_rows, bilinear_from_table, cells_of, column,
                     contains, corrupted_tables, dense_apply, dense_bilinear,
                     dense_residual, inverse, linear_map, matrix_from_rows,
                     pairing_table, random_nilpotent_quotient,
                     random_semidirect, recording, reduced_bracket_cells,
                     select_columns, span, sympy_rank,
                     symmetric_derived_vectors, table,
                     tensor_relation_vectors, valid_algebras)


def vec(field, entries):
    return tuple(field.scalar(x) for x in entries)


def pure(T, i, j):
    """x_i (x) x_j in the quotient coordinates of T, as a dense vector."""
    return dense(T.pairing.cells[i][j], T.dim, T.base.field.zero)


# ----------------------------------------------------------------------
# construction and golden dimensions (oracles computed first)
# ----------------------------------------------------------------------

def test_sl2_relation_rank_oracle():
    """Independent expansion of the relation vectors; sympy does the rank."""
    L = sl2()
    rows = tensor_relation_vectors(L)
    assert sympy_rank(rows, 9) == 6
    T = build_tensor_square(L)
    assert T.relation_space.dim == 6
    assert T.dim == 3


def test_heisenberg1_relation_rank_oracle():
    L = heisenberg(1)
    rows = tensor_relation_vectors(L)
    assert sympy_rank(rows, 9) == 3
    assert build_tensor_square(L).dim == 6


def test_abelian_tensor_square():
    for n in range(0, 5):
        T = build_tensor_square(abelian(n))
        assert T.relation_space.dim == 0
        assert T.dim == n * n
        assert T.algebra.is_abelian
        assert T.square_submodule.dim == n * (n + 1) // 2
        ext, _ = T.exterior_square()
        assert ext.dim == n * (n - 1) // 2 and ext.is_abelian
        _, j2 = T.commutator_map
        assert j2.dim == n * n  # the commutator map is zero


def test_abelian_square_submodule_spanning_set():
    # For abelian algebras the square submodule is spanned exactly by the
    # diagonal tensors and the symmetrized off-diagonal ones, and the
    # off-diagonal pure tensors span a complement.
    for field in (QQ, GF(2)):
        n = 3
        T = build_tensor_square(abelian(n, field))
        spanning = [pure(T, i, i) for i in range(n)]
        spanning += [tuple(a + b for a, b in zip(pure(T, i, j), pure(T, j, i)))
                     for i in range(n) for j in range(i + 1, n)]
        assert T.square_submodule == span(field, T.dim, spanning)
        off_diag = span(field, T.dim,
                                 [pure(T, i, j) for i in range(n)
                                  for j in range(i + 1, n)])
        assert off_diag.dim == n * (n - 1) // 2
        total = span(field, T.dim,
                              list(basis_rows(T.square_submodule))
                              + list(basis_rows(off_diag)))
        assert total.dim == T.dim  # direct sum by dimensions


def test_heisenberg1_golden_dims():
    T = build_tensor_square(heisenberg(1))
    rep = tensor_report(T)
    assert rep.dims["tensor_square"] == 6
    assert rep.dims["square_submodule"] == 3
    assert rep.dims["exterior_square"] == 3
    assert rep.dims["j2"] == 5
    assert rep.dims["schur_multiplier"] == 2
    assert rep.dims["tensor_center"] == 0
    assert rep.dims["exterior_center"] == 0
    assert rep.dims["abelianization_kernel"] == 2


def test_sl2_golden_dims():
    T = build_tensor_square(sl2())
    rep = tensor_report(T)
    assert rep.dims["tensor_square"] == 3
    assert rep.dims["square_submodule"] == 0
    assert rep.dims["exterior_square"] == 3
    assert rep.dims["j2"] == 0
    assert rep.dims["schur_multiplier"] == 0
    # the induced commutator map on the exterior square is bijective
    kappa, _ = T.commutator_map
    induced = select_columns(kappa, T.square_submodule.free_cols)
    assert induced.is_bijective()


def test_heisenberg2_centers():
    L = heisenberg(2)
    T = build_tensor_square(L)
    z = span(QQ, 5, [vec(QQ, [0, 0, 0, 0, 1])])
    assert T.square_submodule.dim == 10
    assert T.tensor_center == z
    assert T.exterior_center == z


def test_heisenberg1_tensor_center_is_zero():
    # z (x) x is nonzero here, unlike heisenberg(2) where extra generators
    # kill it, so the tensor center vanishes.
    T = build_tensor_square(heisenberg(1))
    z = vec(QQ, [0, 0, 1])
    x = vec(QQ, [1, 0, 0])
    assert any(T.pairing.apply(z, x))
    assert T.tensor_center.dim == 0


def test_square_submodule_is_central_and_in_j2():
    for name in ("abelian(3)", "heisenberg(1)", "heisenberg(2)", "sl2"):
        T = build_tensor_square(catalog(name))
        sq = T.square_submodule
        _, j2 = T.commutator_map
        assert j2.contains_space(sq)
        for row in sq.sparse_rows:
            for b in range(T.dim):
                assert not T.algebra.bracket_sparse(row, {b: QQ.one})


def test_universal_pairing_axioms():
    for name in ("abelian(2)", "heisenberg(1)", "heisenberg(2)", "sl2",
                 "heisenberg(1)+abelian(1)"):
        L = catalog(name)
        T = build_tensor_square(L)
        assert is_lie_pairing(T.pairing, L, T.algebra).ok, name


def test_pairing_is_bilinear_projection():
    L = heisenberg(2)
    T = build_tensor_square(L)
    rng = random.Random(7)
    for _ in range(10):
        u = vec(QQ, [rng.randint(-3, 3) for _ in range(5)])
        v = vec(QQ, [rng.randint(-3, 3) for _ in range(5)])
        expected = [QQ.zero] * T.dim
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                if ui and vj:
                    expected = [a + ui * vj * b
                                for a, b in zip(expected, pure(T, i, j))]
        assert T.pairing.apply(u, v) == tuple(expected)


def exterior_pairing_is_the_projected_pairing(T):
    # The dense oracle: the projection applied to each pure tensor.
    ext, proj = T.exterior_square()
    wedge = T.exterior_pairing
    assert (wedge.source_dim, wedge.target_dim) == (T.base.dim, ext.dim)
    assert pairing_table(wedge) == tuple(
        tuple(dense_apply(proj, cell) for cell in row)
        for row in pairing_table(T.pairing))


def exterior_pairing_is_alternating(T):
    cells, n = T.exterior_pairing.cells, T.base.dim
    assert not any(cells[i][i] for i in range(n))
    assert all(cells[j][i] == {k: -c for k, c in cells[i][j].items()}
               for i in range(n) for j in range(n))


def exterior_pairing_is_a_lie_pairing(T):
    verdict = is_lie_pairing(T.exterior_pairing, T.base,
                             T.exterior_square()[0])
    assert verdict.ok, verdict.witness


EXTERIOR_PAIRING_CHECKS = [exterior_pairing_is_the_projected_pairing,
                           exterior_pairing_is_alternating,
                           exterior_pairing_is_a_lie_pairing]


@pytest.mark.parametrize("check", EXTERIOR_PAIRING_CHECKS,
                         ids=lambda check: check.__name__)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(valid_algebras())
def test_exterior_pairing_on_valid_algebras(check, L):
    check(build_tensor_square(L))


@pytest.mark.parametrize("check", EXTERIOR_PAIRING_CHECKS,
                         ids=lambda check: check.__name__)
def test_exterior_pairing_on_the_catalog(check):
    squares = [build_tensor_square(catalog(name, field))
               for name in CATALOG_SUITE for field in SUITE_FIELDS
               if is_supported(name, field)]
    assert len(squares) == 47
    for T in squares:
        check(T)


# ----------------------------------------------------------------------
# theorem verdicts
# ----------------------------------------------------------------------

THEOREM_NAMES = ("verify_decomposition", "verify_j2_decomposition",
                 "verify_center_identity", "verify_square_restriction",
                 "verify_kernel_identity")


@pytest.mark.parametrize("name", ["zero", "abelian(1)", "abelian(4)",
                                  "heisenberg(1)", "heisenberg(2)", "sl2",
                                  "heisenberg(1)+abelian(1)",
                                  "heisenberg(1)+heisenberg(1)"])
def test_theorem_suite_over_q(name):
    T = build_tensor_square(catalog(name))
    for theorem in THEOREM_NAMES:
        verdict = getattr(T, theorem)()
        assert verdict.ok, f"{theorem} on {name}: {verdict.detail}"


def test_kernel_identity_dims():
    T = build_tensor_square(heisenberg(1))
    assert T.abelianization.kernel.dim == 2
    assert T.verify_kernel_identity().ok
    T = build_tensor_square(sl2())
    assert T.abelianization.kernel.dim == 3  # the target is zero


def test_decomposition_dims_additive():
    rng = random.Random(99)
    algebras = [catalog(n) for n in ("abelian(3)", "heisenberg(2)", "sl2")]
    algebras += [random_nilpotent_quotient(rng, 3, 2) for _ in range(3)]
    for L in algebras:
        T = build_tensor_square(L)
        ext, _ = T.exterior_square()
        assert T.dim == T.square_submodule.dim + ext.dim
        assert ext.dim == (T.schur_multiplier().dim
                           + L.derived_subalgebra.dim)


# ----------------------------------------------------------------------
# functoriality, factorization, Whitehead functor
# ----------------------------------------------------------------------

def test_abelianization_functoriality():
    for name in ("heisenberg(1)", "heisenberg(2)", "sl2"):
        L = catalog(name)
        T = build_tensor_square(L)
        ab = T.abelianization
        # the induced map is compatible with both pairings pointwise
        rng = random.Random(3)
        for _ in range(8):
            u = vec(L.field, [rng.randint(-2, 2) for _ in range(L.dim)])
            v = vec(L.field, [rng.randint(-2, 2) for _ in range(L.dim)])
            to_ab = ab.to_ab
            assert ab.map.apply(T.pairing.apply(u, v)) == \
                ab.tensor.pairing.apply(to_ab.apply(u), to_ab.apply(v))
        again = induced_map(T, ab.to_ab, ab.tensor)
        assert again == ab.map


def test_factor_pairing_recovers_commutator_map():
    L = heisenberg(2)
    T = build_tensor_square(L)
    zeta = T.factor_pairing(bracket_pairing(L), L)
    kappa, _ = T.commutator_map
    assert zeta == kappa


def test_factor_pairing_zero_and_identity():
    L = heisenberg(1)
    T = build_tensor_square(L)
    zero_rho = BilinearMap(QQ, 3, 3, tuple(tuple({} for _ in range(3))
                                           for _ in range(3)))
    zeta = T.factor_pairing(zero_rho, L)
    assert zeta == Matrix(QQ, 3, T.dim, ({},) * T.dim)
    ident = T.factor_pairing(T.pairing, T.algebra)
    assert ident.sparse_columns == tuple({i: QQ.one} for i in range(T.dim))


def test_factor_pairing_recovers_any_homomorphism():
    # Composing the universal pairing with an algebra homomorphism gives a
    # Lie pairing whose factorization must be that homomorphism; the
    # exterior projection is a convenient nontrivial instance.
    L = heisenberg(2)
    T = build_tensor_square(L)
    ext, proj = T.exterior_square()
    table = tuple(tuple(proj.apply(pure(T, i, j)) for j in range(L.dim))
                  for i in range(L.dim))
    rho = bilinear_from_table(QQ, L.dim, ext.dim, table)
    zeta = T.factor_pairing(rho, ext)
    assert zeta == proj


def test_factor_pairing_rejects_non_pairing():
    L = sl2()
    T = build_tensor_square(L)
    shifted = [[list(v) for v in row] for row in table(L)]
    shifted[0][1][0] = shifted[0][1][0] + QQ.one
    rho = bilinear_from_table(QQ, 3, 3, shifted)
    with pytest.raises(InvalidInputError):
        T.factor_pairing(rho, L)


def test_whitehead_gamma():
    for name, m in (("sl2", 0), ("abelian(2)", 2), ("heisenberg(1)", 2),
                    ("heisenberg(2)", 4)):
        T = build_tensor_square(catalog(name))
        gamma = T.whitehead_gamma
        assert gamma.rank == m
        assert gamma.dim == m * (m + 1) // 2
        assert gamma.dim == T.square_submodule.dim


def test_whitehead_quadratic_property():
    rng = random.Random(11)
    for field in (QQ, GF(2), GF(3)):
        L = heisenberg(1, field)
        T = build_tensor_square(L)
        gamma = T.whitehead_gamma
        ab = T.abelianization
        for _ in range(10):
            coords = [field.scalar(rng.randint(-2, 2)) for _ in range(gamma.rank)]
            lifted = [field.zero] * L.dim
            for c, col in zip(coords, ab.lift_cols):
                lifted[col] += c
            assert gamma.to_square.apply(gamma.quadratic(coords)) == \
                T.pairing.apply(lifted, lifted)


def test_whitehead_char2_dimension():
    T = build_tensor_square(abelian(3, GF(2)))
    assert T.whitehead_gamma.dim == 6
    assert T.square_submodule.dim == 6


def test_tensor_center_right_diagnostic():
    for name in ("abelian(3)", "heisenberg(1)", "heisenberg(2)", "sl2"):
        T = build_tensor_square(catalog(name))
        assert T.tensor_center == T.tensor_center_right


def test_tensor_square_cached():
    L = heisenberg(1)
    assert build_tensor_square(L) is build_tensor_square(L)


def test_solvable_non_nilpotent_algebras():
    # [x, y] = y: solvable but not nilpotent and not perfect, so it exercises
    # the engine outside both the catalog's nilpotent cases and sl2.
    borel = lie_algebra_from_brackets(QQ, 2, {(0, 1): [(1, QQ.one)]},
                                      names=("x", "y"))
    assert not borel.is_nilpotent
    rep = tensor_report(build_tensor_square(borel))
    assert rep.dims["tensor_square"] == 2
    assert rep.dims["square_submodule"] == 1
    assert rep.dims["exterior_square"] == 1
    assert rep.dims["schur_multiplier"] == 0
    assert all(v.ok for v in rep.verdicts.values())

    diag = lie_algebra_from_brackets(
        QQ, 3, {(0, 1): [(1, QQ.one)], (0, 2): [(2, QQ.one)]})
    rep = tensor_report(build_tensor_square(diag))
    assert rep.dims["tensor_square"] == 3
    assert rep.dims["square_submodule"] == 1
    assert all(v.ok for v in rep.verdicts.values())


# ----------------------------------------------------------------------
# randomized algebras
# ----------------------------------------------------------------------

@st.composite
def two_step_algebras(draw):
    """Random class-<=2 algebras: any antisymmetric bilinear map from a
    generator space into a central, bracket-trivial space satisfies the
    Jacobi identity outright, so these are genuine Lie algebras."""
    field = draw(st.sampled_from([QQ, GF(2), GF(5)]))
    gens = draw(st.integers(1, 3))
    central = draw(st.integers(1, 2))
    brackets = {}
    for i in range(gens):
        for j in range(i + 1, gens):
            terms = [(gens + k, field.scalar(c))
                     for k, c in enumerate(
                         draw(st.lists(st.integers(-2, 2), min_size=central,
                                       max_size=central)))
                     if c]
            if terms:
                brackets[(i, j)] = terms
    return lie_algebra_from_brackets(field, gens + central, brackets)


@settings(max_examples=25, deadline=None)
@given(two_step_algebras())
def test_two_step_dim_additivity_and_theorems(L):
    assert L.validate().ok
    T = build_tensor_square(L)
    ext, _ = T.exterior_square()
    assert T.dim == T.square_submodule.dim + ext.dim
    assert ext.dim == T.schur_multiplier().dim + L.derived_subalgebra.dim
    assert T.verify_decomposition().ok
    assert T.verify_center_identity().ok
    assert is_lie_pairing(T.pairing, L, T.algebra).ok


def change_basis(L: LieAlgebra, p: Matrix) -> LieAlgebra:
    """Transport the structure constants through an invertible matrix."""
    p_inv = inverse(p)
    n = L.dim
    cols = [column(p, i) for i in range(n)]
    grid = tuple(
        tuple(p_inv.apply(L.bracket(cols[i], cols[j])) for j in range(n))
        for i in range(n))
    return LieAlgebra(L.field, n, cells_of(grid), L.basis_names)


def test_dimensions_are_basis_independent():
    rng = random.Random(2718)
    for name in ("heisenberg(1)", "heisenberg(2)", "sl2"):
        L = catalog(name)
        reference = tensor_report(build_tensor_square(L)).dims
        for _ in range(3):
            while True:
                raw = [[QQ.scalar(rng.randint(-2, 2)) for _ in range(L.dim)]
                       for _ in range(L.dim)]
                p = matrix_from_rows(QQ, raw, cols=L.dim)
                if p.rank() == L.dim:
                    break
            moved = change_basis(L, p)
            assert moved.validate().ok
            assert tensor_report(build_tensor_square(moved)).dims == reference


def random_basis_change(rng: random.Random, field, n: int) -> Matrix:
    """An invertible matrix: a permuted identity with n shears
    row_j += +-row_i, which keep the moved structure constants small."""
    rows = [[field.one if i == j else field.zero for j in range(n)]
            for i in range(n)]
    rng.shuffle(rows)
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = field.scalar(rng.choice([-1, 1]))
        rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
    return matrix_from_rows(field, rows, cols=n)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(valid_algebras(), st.integers(0, 2 ** 32))
def test_verify_is_basis_independent_on_valid_algebras(L, seed):
    # Every dimension, verdict and diagnostic of verify, both engines and
    # the cover included, over Q, GF(2), GF(3) and GF(5).
    p = random_basis_change(random.Random(seed), L.field, L.dim)
    assert p.rank() == L.dim
    moved = change_basis(L, p)
    assert moved.validate().ok
    doc, moved_doc = verify_document(L, "L"), verify_document(moved, "L")
    for key in ("dimensions", "verdicts", "diagnostics"):
        assert moved_doc[key] == doc[key], (L, key)
    assert not [v for v in doc["verdicts"].values() if v.startswith("fail")]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(valid_algebras())
def test_bracket_cells_are_the_reduced_products_of_pure_tensors(L):
    # The build reads each cell as the pairing of two brackets; the oracle
    # reduces each product [x_i, x_j] (x) [x_k, x_l] modulo the relations.
    T = build_tensor_square(L)
    assert T.algebra.cells == reduced_bracket_cells(T), L


def test_full_free_nilpotent_across_characteristics():
    # Whole free nilpotent algebras (trivial ideal), class up to 4, in every
    # supported characteristic; multiplier dimensions are the Witt numbers
    # of the next degree.
    from lietensor import free_nilpotent, witt_dimension
    cases = [(2, 4, 15, 3), (3, 3, 35, 6)]
    for d, c, tensor_dim, square_dim in cases:
        for field in (QQ, GF(2), GF(3), GF(5)):
            L = free_nilpotent(d, c, field).algebra
            rep = tensor_report(build_tensor_square(L))
            assert rep.dims["tensor_square"] == tensor_dim, (d, c, field.name)
            assert rep.dims["square_submodule"] == square_dim
            assert rep.dims["schur_multiplier"] == witt_dimension(d, c + 1)
            assert all(v.ok for v in rep.verdicts.values()), (d, c, field.name)


def test_multiplier_of_direct_sums():
    # Independent oracle: the multiplier of a direct sum is the sum of the
    # multipliers plus the tensor product of the two abelianizations.
    from lietensor import direct_sum, zero_algebra

    def mult(L):
        return build_tensor_square(L).schur_multiplier().dim

    def ab(L):
        return L.dim - L.derived_subalgebra.dim

    pairs = [(heisenberg(1), abelian(2)), (heisenberg(1), heisenberg(2)),
             (abelian(3), sl2()), (heisenberg(2), sl2()), (sl2(), sl2()),
             (heisenberg(1), zero_algebra())]
    for a, b in pairs:
        assert mult(direct_sum(a, b)) == mult(a) + mult(b) + ab(a) * ab(b)


def test_design_envelope_dim_16():
    # The dense exact kernel is sized for ambient dimensions up to n^2 with
    # n = 16; the largest catalog-style cases must stay comfortably inside.
    T = build_tensor_square(abelian(16))
    assert T.dim == 256 and T.square_submodule.dim == 136
    L = catalog("+".join(["heisenberg(1)"] * 5))
    rep = tensor_report(build_tensor_square(L))
    assert rep.dims["tensor_square"] == 110
    assert rep.dims["schur_multiplier"] == 50
    assert all(v.ok for v in rep.verdicts.values())


def test_quotients_of_tensor_validate():
    rng = random.Random(5)
    for field in (QQ, GF(3)):
        for _ in range(3):
            L = random_nilpotent_quotient(rng, 2, 3, field)
            T = build_tensor_square(L)
            assert T.algebra.validate().ok
            assert is_lie_pairing(T.pairing, L, T.algebra).ok


def test_characteristic_2_class_3():
    # Over GF(2) the crossed relations alone do not make the induced bracket
    # alternating once the class reaches 3 (w (x) w for w in the derived
    # subalgebra is not in their span), so the symmetric square of the
    # derived subalgebra is imposed explicitly; dims must match the other
    # characteristics, where those instances are redundant.
    from lietensor import free_nilpotent
    reference = None
    for field in (QQ, GF(2), GF(3)):
        L = free_nilpotent(2, 3, field).algebra
        T = build_tensor_square(L)
        rep = tensor_report(T)
        assert all(v.ok for v in rep.verdicts.values()), field.name
        dims = (rep.dims["tensor_square"], rep.dims["square_submodule"],
                rep.dims["exterior_square"], rep.dims["schur_multiplier"])
        if reference is None:
            reference = dims
        assert dims == reference == (9, 3, 6, 3)
    rng = random.Random(77)
    for _ in range(4):
        L = random_nilpotent_quotient(rng, 2, 3, GF(2))
        T = build_tensor_square(L)
        assert T.algebra.validate().ok
        assert T.verify_decomposition().ok
        assert is_lie_pairing(T.pairing, L, T.algebra).ok


def test_centers_are_cached_and_read_each_pure_tensor_once():
    # Each center is one call of annihilator, which reads each of its cells
    # once (test_linalg.py); cell (i, j) is x_i (x) x_j, x_j (x) x_i or the
    # wedge x_i ^ x_j.
    L = catalog("heisenberg(2)+abelian(1)")
    T = build_tensor_square.__wrapped__(L)
    n = L.dim
    proj = T.exterior_square()[1]  # builds the square submodule first
    readers = {"tensor_center": lambda i, j: pure(T, i, j),
               "tensor_center_right": lambda i, j: pure(T, j, i),
               "exterior_center": lambda i, j: proj.apply(pure(T, i, j))}
    for name, pure_of in readers.items():
        # the stacked adjoint, entry by entry, as the kernel's definition
        rows = [[pure_of(i, j)[c] for i in range(n)]
                for j in range(n) for c in range(len(pure_of(0, 0)))]
        expected = kernel(matrix_from_rows(L.field, rows, cols=n))
        with recording(tensor, "annihilator") as calls:
            first = getattr(T, name)
            assert getattr(T, name) is first, name
        [((_, dim, _, cell), _, result)] = calls
        assert result is first and first == expected and dim == n, name
        assert all(dict(cell(i, j)) == sparse(pure_of(i, j))
                   for i in range(n) for j in range(n)), name
    assert T.tensor_center.dim == T.exterior_center.dim == 1
    assert tensor_report(T).subspaces["tensor_center"] is T.tensor_center


def test_schur_multiplier_is_computed_once_per_tensor_square():
    # verify reads it in tensor_report, verify_j2_decomposition and the
    # cross_oracle verdict.
    T = build_tensor_square.__wrapped__(heisenberg(2))
    assert T.schur_multiplier() is T.schur_multiplier()
    assert T.schur_multiplier().dim == 5


def test_tensor_checks_agree_with_the_bracket_loop_under_every_corruption():
    # Mutation test for the three rewritten checks that read the tensor
    # square's own structure constants: centrality of the square submodule,
    # the complement-ideal check in verify_decomposition (both via ad) and
    # the commutator map's homomorphism check (basis images read as matrix
    # columns).  On every single corrupted constant each must fail exactly
    # when the plain formulation over bracket(row, x_b) and apply(x_b) does.
    outcomes = set()
    # sl2's commutator map is onto, so its homomorphism check has nonzero
    # right-hand sides; heisenberg(1)'s lands in the center.
    for base in (heisenberg(1), heisenberg(1, GF(2)), sl2(GF(3))):
        T = build_tensor_square(base)
        L, n = T.base, T.dim
        kappa, _ = T.commutator_map
        sq_rows = basis_rows(T.square_submodule)
        comp = T._complement
        comp_rows, e = basis_rows(comp), basis(T.algebra)
        for where, bad in corrupted_tables(T.algebra):
            sc = table(bad)
            not_central = any(any(bad.bracket(r, x))
                              for r in sq_rows for x in e)
            not_ideal = any(not contains(comp, bad.bracket(r, x))
                            for r in comp_rows for x in e)
            broken = [(i, j) for i in range(n) for j in range(n)
                      if kappa.apply(sc[i][j]) != L.bracket(
                          kappa.apply(e[i]), kappa.apply(e[j]))]
            bad_T = TensorSquare(L, T.relation_space, bad, T.pairing)
            if not_central:
                with pytest.raises(InternalCheckError, match="not central"):
                    bad_T.square_submodule
            else:
                try:
                    detail = bad_T.verify_decomposition().detail
                except InternalCheckError:
                    detail = None
                assert (detail == "complement is not an ideal") == not_ideal, \
                    (L.field, where)
            if broken:
                with pytest.raises(InternalCheckError,
                                   match=r"basis pair \(%d,%d\)" % broken[0]):
                    bad_T.commutator_map
            else:
                assert bad_T.commutator_map[0] == kappa, (L.field, where)
            outcomes.add((not_central, not_ideal, bool(broken)))
    for position in range(3):
        assert {o[position] for o in outcomes} == {True, False}


def test_theorem_verdicts_fail_on_a_corrupted_pairing():
    # verify_kernel_identity and verify_center_identity read the pairing's
    # cells, so one pure tensor x_i (x) x_j moved by a basis vector of T must
    # fail each.  In the last case the exterior center still lies in the
    # center, so that verdict fails through the intersection test alone.
    # The left and right tensor centers agree on every T the build makes;
    # with the cell (0, 4) of heisenberg(2) moved, the left one has
    # dimension 1 and the right one 0, so the right one is checked there
    # against the stacked adjoint of the right slot, entry by entry.
    cases = [("heisenberg(1)", (0, 2, 0), "verify_kernel_identity",
              "dim 2/3/2"),
             ("heisenberg(2)", (0, 4, 0), "verify_kernel_identity",
              "dim 1/1/0"),
             ("heisenberg(2)", (4, 0, 0), "verify_center_identity",
              "intersection identity fails")]
    for name, (i, j, k), check, detail in cases:
        L = catalog(name, QQ)
        T = build_tensor_square(L)
        assert getattr(T, check)().ok, name
        cells = [list(row) for row in T.pairing.cells]
        cells[i][j] = dict(cells[i][j])
        add_scaled(cells[i][j], QQ.one, [(k, QQ.one)])
        bad = TensorSquare(L, T.relation_space, T.algebra, BilinearMap(
            QQ, L.dim, T.dim, tuple(map(tuple, cells))))
        assert getattr(bad, check)() == Verdict(False, detail), (name, i, j, k)
        if (name, i, j) == ("heisenberg(2)", 0, 4):
            moved = bad
    assert L.center.contains_space(bad.exterior_center)
    n = L.dim
    rows = [[pure(moved, j, i)[c] for i in range(n)]
            for j in range(n) for c in range(moved.dim)]
    assert moved.tensor_center != moved.tensor_center_right
    assert moved.tensor_center_right == \
        kernel(matrix_from_rows(QQ, rows, cols=n))


def with_views(T: TensorSquare, **views) -> TensorSquare:
    """A fresh TensorSquare with T's fields and these cached views written
    into its __dict__, where a wrong cache would hold them; T and the
    build cache are left alone."""
    fresh = TensorSquare(T.base, T.relation_space, T.algebra, T.pairing)
    fresh.__dict__.update(views)
    return fresh


def test_every_branch_of_the_tensor_verdicts_fails_on_a_wrong_view():
    # Each failure branch of verify_decomposition, verify_j2_decomposition,
    # verify_square_restriction and verify_center_identity's containment
    # test, reached on heisenberg(1) with one cached view replaced: T has
    # dimension 6, the square submodule 3, the complement 3, j2 5, the
    # multiplier 2 (in the exterior square, of dimension 3) and L/L^2 2.
    L = heisenberg(1)
    T = build_tensor_square(L)
    sq, comp, mult = T.square_submodule, T._complement, T.schur_multiplier()
    ab, one = T.abelianization, QQ.one
    assert (T.dim, sq.dim, comp.dim, T.commutator_map[1].dim, mult.dim,
            T.exterior_square()[0].dim, ab.algebra.dim) == (6, 3, 3, 5, 2, 3, 2)
    other = next(plane for plane in (
        linalg.span(QQ, 3, [{a: one}, {b: one}])
        for a, b in ((0, 1), (0, 2), (1, 2))) if plane != mult)
    whole, nothing = Subspace.full_space(QQ, 6), linalg.span(QQ, 6, [])
    plane_xy = linalg.span(QQ, 6, [T.pairing.cells[0][1]])
    three = Abelianization(abelian(3), ab.to_ab, ab.lift_cols, ab.tensor,
                           ab.map, ab.kernel)
    cases = [
        ("verify_decomposition", {"_complement": subspace_sum(comp, sq)},
         "complement meets the square submodule"),
        ("verify_decomposition",
         {"_complement": linalg.span(QQ, 6, comp.sparse_rows[1:])},
         "complement + square submodule is not everything"),
        ("verify_j2_decomposition",
         {"_schur_multiplier": linalg.span(QQ, 3, mult.sparse_rows[1:])},
         "dim mismatch: 5 != 3 + 1"),
        ("verify_j2_decomposition", {"_complement": whole},
         "summands intersect"),
        ("verify_j2_decomposition", {"_complement": nothing},
         "summands do not fill the kernel"),
        ("verify_j2_decomposition", {"_schur_multiplier": other},
         "complement part does not map onto the multiplier"),
        ("verify_center_identity",
         {"exterior_center": Subspace.full_space(QQ, 3),
          "tensor_center": L.derived_subalgebra},
         "exterior center escapes the center"),
        ("verify_square_restriction", {"square_submodule": whole},
         "restriction is not injective"),
        ("verify_square_restriction", {"square_submodule": plane_xy},
         "image differs from the abelian square submodule"),
        ("verify_square_restriction", {"abelianization": three},
         "dim 3 != 3(3+1)/2"),
    ]
    for check, views, detail in cases:
        assert getattr(T, check)().ok, check
        assert getattr(with_views(T, **views), check)() == \
            Verdict(False, detail), (check, detail)


def test_the_raised_tensor_checks_fail_on_a_wrong_view():
    # whitehead_gamma's two raises and _schur_multiplier's on heisenberg(1).
    # A square submodule that is the whole of T is not the Whitehead image,
    # and the commutator map does not kill it; lifts that repeat a column
    # give the same image from m(m+1)/2 = 6 > 3 columns.
    T = build_tensor_square(heisenberg(1))
    ab = T.abelianization
    assert T.whitehead_gamma.dim == 3 and ab.lift_cols == (0, 1)
    whole = {"square_submodule": Subspace.full_space(QQ, T.dim)}
    repeated = {"abelianization": Abelianization(
        ab.algebra, ab.to_ab, (0, 0, 1), ab.tensor, ab.map, ab.kernel)}
    for views, read, message in (
            (whole, lambda bad: bad.whitehead_gamma,
             "Whitehead map is not onto the square submodule"),
            (repeated, lambda bad: bad.whitehead_gamma,
             "Whitehead map is not injective"),
            (whole, lambda bad: bad.schur_multiplier(),
             "commutator map does not vanish on the square submodule")):
        with pytest.raises(InternalCheckError) as raised:
            read(with_views(T, **views))
        assert str(raised.value) == message


def test_the_build_rejects_a_tensor_square_that_fails_jacobi(monkeypatch):
    # build_tensor_square validates T itself, the one quotient whose Jacobi
    # identity no input proves.  With the J instances left out of the
    # relations (the symmetric instances s(w, x), w (x) w and s(w, w') stay),
    # the quotient is antisymmetric, and its Jacobi sums are combinations
    # of [p, q] (x) r over p, q, r in L^2.  On two generators [L^2, L^2]
    # starts in degree 5, so free_nilpotent(2, 5) is the least of them whose
    # quotient breaks Jacobi, and the build must say where.
    L = free_nilpotent(2, 5).algebra
    n, real_span = L.dim, tensor.span

    def symmetric_only(field, width, vectors):
        if width == n * n:
            vectors = [v for v in vectors if all(
                v.get(b % n * n + b // n) == x for b, x in v.items())]
        return real_span(field, width, vectors)

    monkeypatch.setattr(tensor, "span", symmetric_only)
    with recording(tensor, "descended_algebra") as built, \
            pytest.raises(InternalCheckError) as raised:
        build_tensor_square.__wrapped__(L)
    report = built[0].result.validate()
    assert report.witness[0] == () and report.witness[1], report
    assert str(raised.value) == f"tensor square invalid: {report.detail}"


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)],
                         ids=lambda f: f.name)
def test_construction_matches_a_dense_re_expansion(field):
    # Independent oracle for the sparse construction: every relation
    # instance expanded densely, each pure tensor as the dense residual of
    # its unit vector, and each bracket cell as [x_i,x_j] (x) [x_k,x_l]
    # expanded over the pure tensors.
    rng = random.Random(field.characteristic)
    names = ["heisenberg(1)", "heisenberg(2)", "heisenberg(1)+abelian(1)"]
    if field.characteristic != 2:
        names += ["sl2", "sl2+abelian(1)"]  # sl2 is not defined over GF(2)
    algebras = [catalog(name, field) for name in names]
    algebras.append(free_nilpotent(2, 4, field).algebra)
    algebras += [random_nilpotent_quotient(rng, d, c, field)
                 for d, c in ((2, 3), (3, 2), (2, 4), (3, 3))]
    for L in algebras:
        T = build_tensor_square(L)
        n = L.dim
        relations = T.relation_space
        vectors = tensor_relation_vectors(L) + symmetric_derived_vectors(L)
        assert relations == span(field, n * n, vectors), L
        free = relations.free_cols
        assert T.dim == len(free)
        project = relations.project
        for i in range(n):
            for j in range(n):
                unit = [field.zero] * (n * n)
                unit[i * n + j] = field.one
                residual = dense_residual(relations, unit)
                assert pure(T, i, j) == tuple(residual[c] for c in free), (L, i, j)
                assert column(project, i * n + j) == pure(T, i, j)
        reps = [divmod(p, n) for p in free]
        sc, brackets, cells = table(L), table(T.algebra), pairing_table(T.pairing)
        for a, (i, j) in enumerate(reps):
            for b, (k, l) in enumerate(reps):
                assert brackets[a][b] == dense_bilinear(
                    cells, field, T.dim, sc[i][j], sc[k][l])


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)],
                         ids=lambda f: f.name)
def test_crossed_relation_identities_hold_on_every_basis_triple(field):
    # The two vector identities behind the build's generating set (r1 on
    # i < j with [x_i, x_j] != 0, J on i < j < k, u (x) u on L^2 over GF(2)
    # only), expanded densely from the table, together with the symmetries
    # and the vanishing cases it relies on.
    rng = random.Random(17 + field.characteristic)
    algebras = [random_semidirect(rng, 3, field),
                random_nilpotent_quotient(rng, 2, 3, field)]
    if field.characteristic != 2:
        algebras.append(sl2(field))  # sl2 is not defined over GF(2)
    for L in algebras:
        n, zero, one = L.dim, field.zero, field.one
        unit = [tuple(one if a == i else zero for a in range(n))
                for i in range(n)]

        sc = table(L)

        def br(i, j):
            return sc[i][j]

        def t(u, w):
            return [x * y for x in u for y in w]

        def comb(*terms):
            out = [zero] * (n * n)
            for c, v in terms:
                out = [a + c * b for a, b in zip(out, v)]
            return out

        def r1(i, j, k):
            return comb((one, t(br(i, j), unit[k])),
                        (-one, t(unit[i], br(j, k))),
                        (one, t(unit[j], br(i, k))))

        def r2(i, j, k):
            return comb((one, t(unit[i], br(j, k))),
                        (-one, t(br(k, i), unit[j])),
                        (one, t(br(j, i), unit[k])))

        def J(i, j, k):
            return comb((one, t(unit[i], br(j, k))),
                        (one, t(unit[j], br(k, i))),
                        (one, t(unit[k], br(i, j))))

        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert r2(i, j, k) == comb((one, r1(j, i, k)),
                                               (-one, r1(k, i, j)),
                                               (-one, J(i, j, k))), (L, i, j, k)
                    assert comb((one, r1(i, j, k)), (one, J(k, i, j))) == \
                        comb((one, t(br(i, j), unit[k])),
                             (one, t(unit[k], br(i, j)))), (L, i, j, k)
                    assert r1(j, i, k) == comb((-one, r1(i, j, k)))
                    assert J(j, k, i) == J(i, j, k) == comb((-one, J(j, i, k)))
                    if i == j:
                        assert not any(r1(i, i, k)) and not any(J(i, i, k))
                    if not any(br(i, j)):
                        # the r1 instances that the build leaves out
                        assert r1(i, j, k) == comb((-one, J(i, j, k)))
                        if k in (i, j):
                            assert not any(r1(i, j, k))


def test_relation_checks_agree_with_the_dense_loop_under_every_corruption():
    # Mutation test for the three checks that read the relation rows
    # sparsely: commutator_map (whose descent is also the build's
    # well-definedness check), factor_pairing and induced_map.  With one
    # entry of one echelon row shifted, each must fail exactly when the
    # dense loop over the basis rows finds a row that its ambient map does
    # not kill.
    outcomes = set()
    for base in (heisenberg(1), heisenberg(1, GF(2)), sl2(GF(3)),
                 catalog("heisenberg(1)+abelian(1)", GF(5))):
        T = build_tensor_square(base)
        L, n, field = T.base, T.base.dim, T.base.field
        relations = T.relation_space
        sc = table(L)
        kappa = linear_map(field, n, [sc[i][j] for i in range(n)
                                      for j in range(n)])
        pure_map = linear_map(field, T.dim, [pure(T, i, j) for i in range(n)
                                             for j in range(n)])
        identity = Matrix(field, n, n, tuple({i: field.one} for i in range(n)))
        rho = bracket_pairing(L)
        for r in range(relations.dim):
            for c in range(n * n):
                rows = [list(row) for row in basis_rows(relations)]
                rows[r][c] += field.one
                bad = Subspace(field, n * n, relations.pivots,
                               tuple(sparse(r) for r in rows))
                bad_T = TensorSquare(L, bad, T.algebra, T.pairing)
                kappa_fails = any(any(dense_apply(kappa, row)) for row in rows)
                pure_fails = any(any(dense_apply(pure_map, row)) for row in rows)
                if kappa_fails:
                    with pytest.raises(InternalCheckError,
                                       match="commutator map does not kill"
                                             ".*not well defined"):
                        bad_T.commutator_map
                    with pytest.raises(InvalidInputError, match="does not vanish"):
                        bad_T.factor_pairing(rho, L)
                else:
                    assert bad_T.commutator_map[0] == T.commutator_map[0]
                    assert bad_T.factor_pairing(rho, L) == T.factor_pairing(rho, L)
                if pure_fails:
                    with pytest.raises(InternalCheckError,
                                       match="induced map does not kill"):
                        induced_map(bad_T, identity, T)
                else:
                    assert induced_map(bad_T, identity, T) == \
                        induced_map(T, identity, T)
                outcomes.add((kappa_fails, pure_fails))
    for position in range(2):
        assert {o[position] for o in outcomes} == {True, False}
