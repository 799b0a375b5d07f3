import importlib.util
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from lietensor import (GF, QQ, Cover, FreePresentation, LieAlgebra,
                       Verdict, abelian, build_cover, build_tensor_square,
                       catalog, exterior_via_presentation, heisenberg,
                       multiplier_via_presentation, presentation_of, sl2,
                       verify_cover_theorem, verify_presentation_theorem,
                       zero_algebra)
from lietensor import cli, linalg, presentation
from lietensor.catalog import CATALOG_SUITE, SUITE_FIELDS, is_supported
from lietensor.cli import cover_document, verify_document
from lietensor.errors import (InternalCheckError, NotNilpotentError,
                              OutsideEnvelopeError, TheoremViolationError)
from lietensor.freenilp import FreeNilpotent
from lietensor.liealg import (homomorphism_failure, lie_algebra_from_brackets,
                              quotient_by_ideal)
from lietensor.linalg import (Subspace, add_scaled, combine, kernel,
                              subspace_intersect)
from lietensor.presentation import boundaries, theorem_map_verdict

from support import (all_columns_commutator, basis, column, complement_cover,
                     corrupted_tables, dense_restriction_verdict,
                     free_cover, generator_map, lifted, linear_map,
                     padded_exterior_map, presentation_quotient,
                     random_nilpotent_quotient, random_semidirect, solve,
                     span, subalgebra_cover_theorem, subalgebra_exterior,
                     symmetric_derived_vectors, table, tensor_relation_vectors,
                     valid_algebras, zassenhaus_relations_in_derived)

NILPOTENT_CATALOG = ["zero", "abelian(1)", "abelian(2)", "abelian(3)",
                     "heisenberg(1)", "heisenberg(2)",
                     "heisenberg(1)+abelian(1)",
                     "heisenberg(1)+heisenberg(1)"]


def test_presentation_of_abelian():
    for n in (1, 2, 3):
        P = presentation_of(abelian(n))
        assert P.free.d == n and P.free.c == 2
        assert P.relations.dim == n * (n - 1) // 2
        assert P.relations_commutator.dim == 0
        R = lifted(P.relations, n)
        assert P.free.algebra.derived_subalgebra.contains_space(R)
        # the kernel is exactly the degree-2 layer
        for i, deg in enumerate(P.free.degrees):
            assert (not R.reduce_sparse({i: QQ.one})) == (deg == 2)


def test_presentation_of_heisenberg1():
    P = presentation_of(heisenberg(1))
    assert P.free.d == 2 and P.free.c == 3
    assert P.free.algebra.dim == 5
    assert P.relations.dim == 2
    assert P.relations_commutator.dim == 0
    # kernel = span of the two degree-3 Hall words
    expected = linalg.span(QQ, 5, [{3: QQ.one}, {4: QQ.one}])
    assert lifted(P.relations, P.free.d) == expected


def test_presentation_of_zero_algebra():
    P = presentation_of(zero_algebra())
    assert P.free.d == 0 and P.free.c == 2
    assert P.free.algebra.dim == 0
    assert P.relations.dim == 0


def test_presentation_rejects_non_nilpotent():
    with pytest.raises(NotNilpotentError):
        presentation_of(sl2())


def test_presentation_map_properties():
    for name in NILPOTENT_CATALOG:
        L = catalog(name)
        P = presentation_of(L)
        assert P.onto.rank() == L.dim
        assert P.relations.contains_space(P.relations_commutator)
        assert P.free.algebra.derived_subalgebra.contains_space(
            lifted(P.relations, P.free.d))


def test_exterior_via_presentation_dims():
    for name, expected in (("abelian(2)", 1), ("abelian(3)", 3),
                           ("heisenberg(1)", 3), ("heisenberg(2)", 6)):
        L = catalog(name)
        P = presentation_of(L)
        Q, eps = exterior_via_presentation(P, build_tensor_square(L))
        assert Q.dim == expected, name
        assert eps.is_bijective()


def test_multiplier_via_presentation_dims():
    for name, expected in (("abelian(2)", 1), ("abelian(4)", 6),
                           ("heisenberg(1)", 2), ("heisenberg(2)", 5)):
        P = presentation_of(catalog(name))
        assert multiplier_via_presentation(P).dim == expected, name


def test_cross_oracle_on_catalog():
    for name in NILPOTENT_CATALOG:
        L = catalog(name)
        T = build_tensor_square(L)
        P = presentation_of(L)
        Q, _ = exterior_via_presentation(P, T)
        assert Q.dim == T.exterior_square()[0].dim, name
        assert multiplier_via_presentation(P).dim == \
            T.schur_multiplier().dim, name


def test_cross_oracle_on_random_quotients():
    rng = random.Random(424242)
    for field in (QQ, GF(3)):
        for d, c in ((2, 2), (2, 3), (3, 2)):
            L = random_nilpotent_quotient(rng, d, c, field)
            T = build_tensor_square(L)
            P = presentation_of(L)
            Q, _ = exterior_via_presentation(P, T)
            assert Q.dim == T.exterior_square()[0].dim
            assert multiplier_via_presentation(P).dim == \
                T.schur_multiplier().dim


def test_cover_of_abelian2_is_heisenberg():
    L = abelian(2)
    cover = build_cover(L)
    K = cover.algebra
    assert K.dim == 3
    assert cover.multiplier.dim == 1
    assert K.derived_subalgebra.dim == 1
    assert lifted(cover.multiplier, cover.d) == K.derived_subalgebra
    assert K.nilpotency_class() == 2  # this is the Heisenberg algebra


def test_cover_of_heisenberg1():
    P = presentation_of(heisenberg(1))
    cover = build_cover(heisenberg(1))
    assert cover.algebra.dim == 5
    assert cover.multiplier.dim == 2
    # [R, F] = 0 here, so the cover is the whole truncated free algebra
    assert P.relations_commutator.dim == 0
    assert generator_map(P, cover).is_bijective()


def test_cover_defining_pair_axioms():
    for name in NILPOTENT_CATALOG:
        L = catalog(name)
        cover = build_cover(L)
        K, ker_pi = cover.algebra, lifted(cover.multiplier, cover.d)
        assert K.dim == L.dim + cover.multiplier.dim
        assert kernel(cover.onto) == ker_pi
        assert K.center.contains_space(ker_pi)
        assert K.derived_subalgebra.contains_space(ker_pi)
        assert cover.onto.rank() == L.dim


def test_cover_theorem_on_catalog():
    for name in NILPOTENT_CATALOG:
        L = catalog(name)
        cover = build_cover(L)
        T = build_tensor_square(L)
        verdict = verify_cover_theorem(cover, T)
        assert verdict.ok, f"{name}: {verdict.detail}"
        assert cover.algebra.derived_subalgebra.dim == \
            T.exterior_square()[0].dim


def test_cover_theorem_on_random_quotients():
    rng = random.Random(31337)
    for d, c in ((2, 2), (3, 2), (2, 3)):
        L = random_nilpotent_quotient(rng, d, c)
        cover = build_cover(L)
        assert verify_cover_theorem(cover, build_tensor_square(L)).ok


def test_free_nilpotent_multiplier_closed_form():
    # For a free nilpotent algebra of class c the presentation kernel is
    # exactly the next graded layer with trivial commutator, so the
    # multiplier dimension is the Witt number of degree c + 1 and the
    # exterior square collects all layers from 2 through c + 1.
    from lietensor import free_nilpotent, witt_dimension
    for d, c in ((2, 2), (2, 3), (3, 2)):
        L = free_nilpotent(d, c).algebra
        P = presentation_of(L)
        T = build_tensor_square(L)
        expected_mult = witt_dimension(d, c + 1)
        expected_ext = sum(witt_dimension(d, k) for k in range(2, c + 2))
        assert multiplier_via_presentation(P).dim == expected_mult
        assert T.schur_multiplier().dim == expected_mult
        assert T.exterior_square()[0].dim == expected_ext
        assert P.relations_commutator.dim == 0


def test_cover_theorem_reports_dimension_mismatch():
    # Feeding the cover of a different algebra must fail in the verdict,
    # not with an exception: C' of abelian(2) has dimension 1, and the
    # exterior square of heisenberg(1) has dimension 3.
    wrong_cover = build_cover(abelian(2))
    verdict = verify_cover_theorem(wrong_cover,
                                   build_tensor_square(heisenberg(1)))
    assert verdict == Verdict(False, "the tensor square is of another algebra")


def test_both_routes_reject_the_tensor_square_of_another_algebra():
    # The theorem maps send basis vectors to wedges of vectors of L, read
    # from the tensor square's pairing: from another algebra's, they index
    # past its cells (abelian(2)) or land in an exterior square of the
    # wrong dimension (heisenberg(2)).  Each route must say so, in the
    # verdict and in the raise of exterior_via_presentation.
    L = heisenberg(1)
    P, cover = presentation_of(L), build_cover(L)
    failed = Verdict(False, "the tensor square is of another algebra")
    for other in (abelian(2), heisenberg(2)):
        T = build_tensor_square(other)
        assert verify_presentation_theorem(P, T) == failed, other
        assert verify_cover_theorem(cover, T) == failed, other
        with pytest.raises(TheoremViolationError) as raised:
            exterior_via_presentation(P, T)
        assert str(raised.value) == failed.detail, other


def wedge_pairs(P: FreePresentation) -> list:
    """The pairs of theorem_map_verdict on F': each composite Hall word
    goes to the wedge of the images of its two factors."""
    onto = P.onto.sparse_columns
    return [(onto[u], onto[v]) for u, v in P.free.factors[P.free.d:]]


def test_presentations_over_prime_fields():
    for field in (GF(2), GF(5)):
        L = heisenberg(1, field)
        T = build_tensor_square(L)
        P = presentation_of(L)
        Q, _ = exterior_via_presentation(P, T)
        assert Q.dim == 3
        assert multiplier_via_presentation(P).dim == 2
        cover = build_cover(L)
        assert cover.algebra.dim == 5


def test_isomorphism_check_catches_every_corrupted_source_constant():
    # theorem_map_verdict tests only the forward map; for a bijective map
    # that pins down every structure constant of the source, so corrupting
    # any single one must fail the verdict.  The zero map, from pairs of
    # zero vectors, is a homomorphism between any two algebras and carries
    # the multiplier into M(L), so only the bijectivity test can reject it.
    for L in (heisenberg(1), heisenberg(2)):
        P = presentation_of(L)
        T, ext, pairs = build_tensor_square(L), P.exterior, wedge_pairs(P)

        def verdict(pairs, source):
            return theorem_map_verdict(L, P.relations_commutator, pairs,
                                       source, T, multiplier_via_presentation(P))

        assert verdict(pairs, ext).witness.is_bijective(), L
        assert verdict([({}, {})] * len(pairs), ext) == Verdict(
            False, f"map from dimension {ext.dim} to {ext.dim} is not "
                   f"bijective"), L
        for _, bad in corrupted_tables(ext):
            failed = verdict(pairs, bad)
            assert not failed.ok and \
                failed.detail.startswith("map is not a homomorphism"), L


def test_presentation_checks_agree_with_the_bracket_loop_under_every_corruption(
        monkeypatch):
    # Mutation test for presentation_of on a free algebra with one corrupted
    # constant.  The relations do not read the free table, so they stay put;
    # the homomorphism check must fail exactly where the plain loop does.
    # It visits the generator rows only, which decide the rest by the Jacobi
    # identity in F; so for a table that fails validate() it must fail
    # exactly where the plain loop first fails in those rows.  Otherwise
    # the relation commutator, spanned by [r, x_g] over the
    # generators only, must equal the span of [r, x_j] over every column,
    # unless the corrupted table fails validate(): [R, F] = [R, X] rests on
    # the Jacobi identity, and free_nilpotent validates every table it
    # hands out (_integer_structure), so such a table never reaches
    # presentation_of outside this test.  The filiform algebra of dimension 4
    # has a relation below the top degree c + 1 of F: the others have none,
    # and a top-degree relation is not bracketed, as its brackets vanish in F.
    outcomes = {"raise": 0, "equal": 0, "invalid": 0}
    changed = 0
    filiform4 = lie_algebra_from_brackets(
        QQ, 4, {(0, 1): [(2, QQ.one)], (0, 2): [(3, QQ.one)]})
    cleans = [presentation_of(L)
              for L in (heisenberg(1), heisenberg(1, GF(2)), abelian(3),
                        filiform4)]
    for clean in cleans:
        L, F, onto = clean.L, clean.free, clean.onto
        images = [column(onto, i) for i in range(F.algebra.dim)]
        for where, bad in corrupted_tables(F.algebra):
            fake = FreeNilpotent(F.d, F.c, bad, F.factors, F.degrees)
            monkeypatch.setattr(presentation, "free_nilpotent",
                                lambda d, c, field: fake)
            sc = table(bad)
            broken = [(i, j) for i in range(bad.dim) for j in range(bad.dim)
                      if onto.apply(sc[i][j]) !=
                      L.bracket(images[i], images[j])]
            if not bad.validate().ok:
                broken = [(i, j) for i, j in broken if i < F.d]
            all_columns = all_columns_commutator(
                bad, lifted(clean.relations, F.d))
            try:
                P = presentation_of.__wrapped__(L)
            except InternalCheckError as exc:
                message = str(exc)
                assert not broken or message.endswith(
                    "homomorphism at (%d,%d)" % broken[0]), where
                assert broken or "homomorphism" not in message, where
                outcomes["raise"] += 1
                continue
            assert not broken, where
            assert P.relations == clean.relations, where
            if lifted(P.relations_commutator, F.d) == all_columns:
                outcomes["equal"] += 1
                changed += all_columns != lifted(
                    clean.relations_commutator, F.d)
            else:
                assert not bad.validate().ok, where
                outcomes["invalid"] += 1
    assert changed and all(outcomes.values()), outcomes


def test_graded_constructions_match_the_generic_oracles():
    # [R, F] from the generators, R /\ F' read off the grading, the exterior
    # square as F'/[R,F] and G = F/[R,F] as a cover equal the generic
    # constructions they replaced: the all-columns span, the Zassenhaus
    # intersection, the Subalgebra quotient and the complement with its
    # second quotient.  F'/[R,F] and its multiplier are also G restricted
    # to its composite positions and G's image of R there.
    algebras = [catalog(name, field)
                for name in NILPOTENT_CATALOG + ["heisenberg(3)", "abelian(5)"]
                for field in (QQ, GF(2), GF(5))]
    rng = random.Random(777)
    algebras += [random_nilpotent_quotient(rng, d, c, field)
                 for field in (QQ, GF(2), GF(5))
                 for d, c in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3))]
    for L in algebras:
        P = presentation_of(L)
        F, d = P.free.algebra, P.free.d
        R = lifted(P.relations, d)
        assert lifted(P.relations_commutator, d) == \
            all_columns_commutator(F, R), L
        assert R == zassenhaus_relations_in_derived(P), L
        ext, mult = subalgebra_exterior(P)
        assert P.exterior == ext, L
        assert multiplier_via_presentation(P) == mult, L
        assert exterior_via_presentation(P, build_tensor_square(L))[0] == ext, L
        G, to_G = presentation_quotient(P)
        assert P.exterior == quotient_by_ideal(
            G, linalg.span(G.field, G.dim - d, ()), d)[0], L
        image = to_G.image_of(R)
        assert multiplier_via_presentation(P) == Subspace(
            image.field, image.ambient_dim - d,
            tuple(p - d for p in image.pivots),
            tuple({j - d: x for j, x in row.items()}
                  for row in image.sparse_rows)), L
        assert free_cover(P) == complement_cover(P), L


def test_cover_projection_matches_a_linear_solve():
    # The projection G = F/[R,F] -> L is the presentation map on any
    # preimage under F -> G, found by solving from_free x = e_a.  The oracle
    # free_cover reads it as columns of the presentation map, and
    # build_cover's projection through the generator map G -> C must equal
    # it too.
    algebras = [catalog(name, field) for name, field in (
        ("heisenberg(1)", QQ), ("heisenberg(2)", QQ), ("abelian(2)", GF(2)),
        ("heisenberg(1)+abelian(1)", GF(3)))]
    # quotients whose relation commutator has pivots before cover columns,
    # so that K's coordinates sit at shifted columns of the free algebra
    algebras += [random_nilpotent_quotient(random.Random(seed), d, c)
                 for seed, d, c in ((6, 2, 4), (2, 3, 3))]
    for L in algebras:
        P = presentation_of(L)
        G, from_free, _, onto = free_cover(P)
        solved = linear_map(L.field, L.dim, [
            P.onto.apply(solve(from_free, x)) for x in basis(G)])
        assert onto == solved, L
        cover = build_cover(L)
        assert cover.onto.mul(generator_map(P, cover)) == solved, L


def nilpotent_cases():
    """The catalog's nilpotent entries over every suite field, and random
    nilpotent quotients over Q, GF(2) and GF(5)."""
    algebras = [catalog(name, field) for name in CATALOG_SUITE
                for field in SUITE_FIELDS if is_supported(name, field)]
    rng = random.Random(2718)
    algebras += [random_nilpotent_quotient(rng, d, c, field)
                 for field in (QQ, GF(2), GF(5))
                 for d, c in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3))]
    return [L for L in algebras if L.nilpotency_class() is not None]


def test_generator_rows_decide_the_presentation_homomorphism():
    # presentation_of checks F -> L on the d generator rows only.  With one
    # coordinate of one image shifted, it must still report the first
    # failing pair of the loop over every row, or None with it.
    outcomes = set()
    for L in nilpotent_cases():
        P = presentation_of(L)
        F, d, one = P.free.algebra, P.free.d, L.field.one
        images = P.onto.sparse_columns
        assert homomorphism_failure(images, F, L, rows=d) is None
        for w in range(F.dim):
            for k in range(L.dim):
                bad = list(images)
                bad[w] = dict(images[w])
                add_scaled(bad[w], one, [(k, one)])
                got = homomorphism_failure(bad, F, L, rows=d)
                assert got == homomorphism_failure(bad, F, L), (L, w, k)
                outcomes.add(got is None)
    assert outcomes == {True, False}


def test_generator_centrality_agrees_with_the_center():
    # In the cover of a nilpotent algebra the d generators decide
    # centrality: a centralizer is a subalgebra, and they generate C.
    # (build_cover checks no centrality: C's bracket is bilinear in pi, so
    # ker pi is central for every L.)  On every basis vector, the sum of them
    # and each row of ker pi the generator test must agree with the center
    # of the cover.
    outcomes = set()
    for L in nilpotent_cases():
        cover = build_cover(L)
        K, d, one = cover.algebra, cover.d, L.field.one
        center, ker_pi = K.center, lifted(cover.multiplier, d)
        vectors = [{a: one} for a in range(K.dim)] + \
            [{a: one for a in range(K.dim)}] + list(ker_pi.sparse_rows)
        for v in vectors:
            by_generators = not any(K.bracket_sparse(v, {g: one})
                                    for g in range(d))
            assert by_generators == (not center.reduce_sparse(v)), (L, v)
            outcomes.add(by_generators)
        assert center.contains_space(ker_pi), L
    assert outcomes == {True, False}


def cross_oracle_quotients(seeds):
    """The random quotients of the benchmark's cross_oracle workload at
    these seeds, drawn by its own generator (read, not changed)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen_inputs.py"
    spec = importlib.util.spec_from_file_location("gen_inputs", path)
    gen_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_inputs)
    reference = gen_inputs.quotients(gen_inputs.DEFAULT_SEED)
    shapes = [gen_inputs.shape(L, reference[:i]) for i, L in enumerate(reference)]
    return [L for seed in seeds for L in gen_inputs.quotients(seed, shapes)]


def test_the_theorem_map_read_on_f_prime_is_the_one_read_on_f():
    # exterior_via_presentation descends on [R,F] in F' coordinates; the
    # map and the quotient are those of the construction on all of F.
    for L in nilpotent_cases() + cross_oracle_quotients(range(4)):
        P = presentation_of(L)
        T = build_tensor_square(L)
        assert exterior_via_presentation(P, T) == \
            (P.exterior, padded_exterior_map(P, T)), L


def test_cover_theorem_matches_the_subalgebra_oracle():
    # verify_cover_theorem reads C' off the positions d.. of the cover and
    # maps E = A2/d3(A3) by x_i^x_j -> the wedge class of x_i (x) x_j.  The
    # oracle re-derives C' by elimination as a Subalgebra and solves for
    # the theorem map from the brackets of C's basis.  Both must agree on
    # every input, the solved map must be the pair map on E's basis, and
    # both must reject a cover with one corrupted cell of C'.
    algebras = nilpotent_cases() + cross_oracle_quotients(range(4))
    rejected = 0
    for L in algebras:
        cover = build_cover(L)
        T = build_tensor_square(L)
        verdict = verify_cover_theorem(cover, T)
        expected, theorem_map = subalgebra_cover_theorem(cover, T)
        assert verdict == expected and verdict.ok, (L, verdict, expected)
        pairs = list(combinations(range(L.dim), 2))
        wedge_cols = T.exterior_square()[1].sparse_columns
        assert theorem_map.sparse_columns == tuple(
            combine(T.pairing.cells[i][j].items(), wedge_cols)
            for i, j in (pairs[p] for p in cover.boundaries.free_cols)), L
        K, d = cover.algebra, cover.d
        if K.dim == d:
            continue
        cells = [dict(row) for row in K.cells]
        top = K.dim - 1
        shifted = dict(cells[d].get(top, {}))
        add_scaled(shifted, L.field.one, [(top, L.field.one)])
        cells[d][top] = shifted
        bad = Cover(cover.L,
                    LieAlgebra(K.field, K.dim, cells, K.basis_names),
                    cover.multiplier, cover.onto, cover.boundaries, cover.d)
        assert not verify_cover_theorem(bad, T).ok, L
        assert not subalgebra_cover_theorem(bad, T)[0].ok, L
        rejected += 1
    assert rejected > 40


def test_cover_is_the_free_presentation_quotient():
    # C = V (+) E and G = F/[R,F] are the same Lie algebra (Hopf, module
    # docstring of presentation): the map G -> C that sends G's generators
    # to C's first d basis vectors is a bijective homomorphism, carries G's
    # multiplier onto C's and commutes with the projections onto L.  Checked
    # on the catalog, random quotients and the cross_oracle quotients at
    # seeds 0-31, every input inside the presentation bound.
    algebras = nilpotent_cases() + cross_oracle_quotients(range(32))
    for L in algebras:
        P = presentation_of(L)
        cover = build_cover(L)
        G, _, multiplier, onto = free_cover(P)
        psi = generator_map(P, cover)
        assert psi.is_bijective(), L
        assert homomorphism_failure(psi.sparse_columns, G,
                                    cover.algebra) is None, L
        assert psi.image_of(multiplier) == lifted(cover.multiplier, cover.d), L
        assert cover.onto.mul(psi) == onto, L


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(valid_algebras())
def test_relation_space_is_spanned_by_every_crossed_instance(L):
    # The build inserts J on the triples i < j < k with a nonzero cell and,
    # for the echelon rows w of L^2 and its free columns f, s(w, x_f),
    # w (x) w and s(w_r, w_s) for r < s, where s(u, v) = u (x) v + v (x) u;
    # the dense oracle expands r1 and r2 on every basis triple and the
    # symmetric tensors on every bracket pair.
    n = L.dim
    vectors = tensor_relation_vectors(L) + symmetric_derived_vectors(L)
    assert build_tensor_square(L).relation_space == \
        span(L.field, n * n, vectors), L


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(valid_algebras())
def test_verify_passes_on_every_valid_algebra(L):
    # The whole verify document: every theorem verdict and both engines.
    # verify presents nilpotent inputs only, and its report skips the cover
    # with the presentation, a pinned report policy: build_cover itself
    # takes every input (test_cover_document_passes_on_every_valid_algebra).
    doc = verify_document(L, "random")
    verdicts = doc["verdicts"]
    assert not [v for v in verdicts.values() if v.startswith("fail")], \
        (L, verdicts)
    if not L.is_nilpotent:
        assert verdicts["cross_oracle"] == verdicts["cover"] == \
            "skipped: not nilpotent", L
    else:
        assert verdicts["cover"] == "pass", L


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(valid_algebras())
def test_alternating_square_modulo_boundaries_is_the_exterior_square(L):
    # dim A2/d3(A3) is the tensor engine's exterior square for every Lie
    # algebra (Ellis), nilpotent or not, and every L passes the cover
    # theorem.  d3 and the tensor square's crossed relations are built by
    # separate code on separate ambients.
    T = build_tensor_square(L)
    pairs = L.dim * (L.dim - 1) // 2
    assert pairs - boundaries(L).dim == T.exterior_square()[0].dim, L
    assert verify_cover_theorem(build_cover(L), T).ok, L


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(valid_algebras())
def test_cover_document_passes_on_every_valid_algebra(L):
    # The cover command's report on every input, nilpotent or not: the
    # defining pair and the cover theorem, with its multiplier comparison.
    verdicts = cover_document(L, "random")["verdicts"]
    assert verdicts == {"defining_pair": "pass", "cover_theorem": "pass"}, \
        (L, verdicts)


def not_carried(bad, mult) -> Verdict:
    """theorem_map_verdict's verdict on a multiplier that its theorem map
    does not carry onto M(L)."""
    return Verdict(False, f"the theorem map does not carry the multiplier "
                          f"(dim {bad.dim}) onto M(L) ({mult.dim})")


def test_cover_theorem_rejects_every_corruption_of_ker_pi():
    # verify_cover_theorem hands ker pi, held on E, to theorem_map_verdict,
    # whose theorem map must carry its rows onto M(L).  On covers of
    # heisenberg(1), where E has dimension 3 and ker pi 2, of
    # heisenberg(1)+abelian(1) over Q and GF(3) and of one V x| <D> that is
    # not nilpotent, ker pi is replaced by each coordinate subspace of E of
    # its dimension other than ker pi, and by the span of all its rows but
    # one.  Each must fail with the multiplier detail, not raise.
    semidirect = random_semidirect(random.Random(3), 3)
    assert not semidirect.is_nilpotent
    for L in (heisenberg(1), catalog("heisenberg(1)+abelian(1)"),
              catalog("heisenberg(1)+abelian(1)", GF(3)), semidirect):
        cover, T = build_cover(L), build_tensor_square(L)
        assert verify_cover_theorem(cover, T).ok, L
        K, d, ker, one = cover.algebra, cover.d, cover.multiplier, L.field.one
        rows, e = list(ker.sparse_rows), K.dim - d
        assert 0 < d and 0 < ker.dim < e, L
        others = [plane for plane in (
            linalg.span(L.field, e, [{c: one} for c in cols])
            for cols in combinations(range(e), ker.dim)) if plane != ker]
        assert others, L
        for bad in others + [linalg.span(L.field, e, rows[1:])]:
            corrupted = Cover(L, K, bad, cover.onto, cover.boundaries, d)
            assert verify_cover_theorem(corrupted, T) == \
                not_carried(bad, T.schur_multiplier()), (L, bad)


def test_presentation_theorem_rejects_every_corruption_of_the_multiplier(
        monkeypatch):
    # verify_presentation_theorem hands R/[R,F], held on E = F'/[R,F], to
    # theorem_map_verdict.  On heisenberg(1), E has dimension 3 and R/[R,F]
    # dimension 2.  Every other coordinate plane of E, and the span of all
    # rows of R/[R,F] but one, must fail with the multiplier detail, not
    # raise; and through verify, as the cross_oracle verdict.
    L = heisenberg(1)
    P, T = presentation_of(L), build_tensor_square(L)
    mult, one = multiplier_via_presentation(P), L.field.one
    assert (P.exterior.dim, mult.dim) == (3, 2)
    assert verify_presentation_theorem(P, T).ok
    pairs = wedge_pairs(P)
    planes = [linalg.span(L.field, 3, [{a: one}, {b: one}])
              for a, b in combinations(range(3), 2)]
    corrupted = [plane for plane in planes if plane != mult] + \
        [linalg.span(L.field, 3, mult.sparse_rows[1:])]
    assert len(corrupted) == 3
    for bad in corrupted:
        failed = not_carried(bad, T.schur_multiplier())
        assert theorem_map_verdict(L, P.relations_commutator, pairs,
                                   P.exterior, T, bad) == failed, bad
        monkeypatch.setattr(presentation, "multiplier_via_presentation",
                            lambda P, bad=bad: bad)
        assert verify_presentation_theorem(P, T) == failed, bad
        verdicts = verify_document(L, "corrupted")["verdicts"]
        assert verdicts["cross_oracle"] == f"fail: {failed.detail}", bad


def swapped(K: LieAlgebra, a: int, b: int) -> LieAlgebra:
    """K with its basis vectors a and b exchanged: an isomorphic algebra on
    other coordinates."""
    sigma = list(range(K.dim))
    sigma[a], sigma[b] = b, a
    cells = [{} for _ in range(K.dim)]
    for i, row in enumerate(K.cells):
        cells[sigma[i]] = {sigma[j]: {sigma[k]: x for k, x in cell.items()}
                           for j, cell in row.items()}
    return LieAlgebra(K.field, K.dim, cells, K.basis_names)


def test_the_wedge_map_must_kill_the_relation_commutator(monkeypatch):
    # theorem_map_verdict descends the wedge map from F' to F'/[R,F].  On
    # heisenberg(1), [R,F] = 0 in F' of dimension 3; with [R,F] widened to
    # the whole of F', the wedge map, which is not 0, does not kill it.
    # The verdict says so, exterior_via_presentation raises it, and verify
    # reports it as the cross_oracle verdict.
    L = heisenberg(1)
    P, T = presentation_of(L), build_tensor_square(L)
    assert P.relations_commutator.dim == 0 and P.free.algebra.dim == 5
    wide = FreePresentation(L, P.free, P.onto, P.relations,
                            Subspace.full_space(L.field, 3))
    message = "the theorem map does not kill the relations"
    assert verify_presentation_theorem(wide, T) == Verdict(False, message)
    with pytest.raises(TheoremViolationError) as raised:
        exterior_via_presentation(wide, T)
    assert str(raised.value) == message
    monkeypatch.setattr(cli, "presentation_of", lambda L: wide)
    assert verify_document(L, "wide")["verdicts"]["cross_oracle"] == \
        f"fail: {message}"


def test_each_early_branch_of_the_cover_theorem_fails_on_a_wrong_cover():
    # verify_cover_theorem's pivot check and theorem_map_verdict's first
    # two, on heisenberg(1): C has dimension 5 with V at positions 0, 1 and
    # C' = E at 2..4.  A cover of L with x and y exchanged is of another
    # algebra; C with positions 0 and 4 exchanged has C' off its positions
    # d..; and with every pair in the boundaries, the wedge map does not
    # kill them.
    L = heisenberg(1)
    cover, T = build_cover(L), build_tensor_square(L)
    C, d = cover.algebra, cover.d
    assert (C.dim, d) == (5, 2) and verify_cover_theorem(cover, T).ok
    pairs = Subspace.full_space(L.field, 3)
    assert cover.boundaries.dim == 0
    cases = [
        (Cover(swapped(L, 0, 1), C, cover.multiplier, cover.onto,
               cover.boundaries, d), "the tensor square is of another algebra"),
        (Cover(L, swapped(C, 0, 4), cover.multiplier, cover.onto,
               cover.boundaries, d),
         "cover derived subalgebra is not the span of its positions "
         "d..dim C - 1"),
        (Cover(L, C, cover.multiplier, cover.onto, pairs, d),
         "the theorem map does not kill the relations"),
    ]
    for bad, detail in cases:
        assert verify_cover_theorem(bad, T) == Verdict(False, detail), detail


def test_presentation_of_rejects_a_free_algebra_that_does_not_fit(monkeypatch):
    # presentation_of's two structural checks, with free_nilpotent patched.
    # F(2, 1) has no composite word, so the lifts of heisenberg(1) do not
    # generate it.  F(2, 3) with its two words of degree 3 exchanged is
    # still a presenting algebra, as both words die in L, so the
    # homomorphism check passes; but the cell of each word's factors no
    # longer holds that word.
    L = heisenberg(1)
    real = presentation.free_nilpotent
    F = real(2, 3, L.field)
    top = [k for k, degree in enumerate(F.degrees) if degree == 3]
    assert top == [3, 4]
    exchanged = FreeNilpotent(F.d, F.c, swapped(F.algebra, 3, 4), F.factors,
                              F.degrees)
    for fake, message in (
            (real(2, 1, L.field), "canonical lifts do not generate the algebra"),
            (exchanged, "derived basis is not coordinate-aligned")):
        monkeypatch.setattr(presentation, "free_nilpotent",
                            lambda d, c, field, fake=fake: fake)
        with pytest.raises(InternalCheckError) as raised:
            presentation_of.__wrapped__(L)
        assert str(raised.value) == message


def test_the_cover_rejects_an_algebra_that_breaks_jacobi():
    # build_cover's one check: kappa kills d3 exactly when the Jacobi
    # identity holds, as kappa(d3(x^y^z)) is the Jacobi sum.  The algebra
    # with [x1, x2] = x3 and [x1, x3] = x1 has the sum -x3 at (1, 2, 3).
    bad = lie_algebra_from_brackets(QQ, 3, {(0, 1): [(2, QQ.one)],
                                            (0, 2): [(0, QQ.one)]})
    assert bad.validate().witness == ((), ((0, 1, 2),))
    with pytest.raises(InternalCheckError) as raised:
        build_cover(bad)
    assert str(raised.value) == "the commutator map does not kill a boundary"


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(valid_algebras())
def test_facts_that_retained_checks_prove_hold_on_every_valid_algebra(L):
    # verify_decomposition, verify_j2_decomposition, verify_center_identity,
    # build_cover, presentation_of and liealg.quotient_by_ideal
    # do not check these facts, because a check they keep proves each one
    # (the arguments are written next to the code).  Here they are checked
    # directly: the restriction to the complement by a dense loop over
    # every ordered pair, the cover's brackets over every cell, its
    # validity, its projection as a homomorphism over every pair and its
    # dimension, ker pi against the center of the cover, every quotient
    # that quotient_by_ideal builds against validate(), R, computed on F',
    # against the whole kernel of F -> L and against the top truncation
    # layer, and [R,F] against its span over every basis vector of F.
    # valid_algebras draws quotients of free nilpotent algebras through
    # quotient_algebra, which no longer validates them, so L is checked too.
    assert L.validate().ok, L
    T = build_tensor_square(L)
    restriction = dense_restriction_verdict(T)
    assert restriction.ok, (L, restriction.detail)
    assert T.exterior_center.contains_space(T.tensor_center), L
    j2 = T.commutator_map[1]
    assert subspace_intersect(T._complement, j2).dim == \
        T.schur_multiplier().dim, L
    assert T.exterior_square()[0].validate().ok, L
    assert T.abelianization.algebra.validate().ok, L
    cover = build_cover(L)
    K, ker_pi = cover.algebra, lifted(cover.multiplier, cover.d)
    assert K.validate().ok, L
    assert homomorphism_failure(cover.onto.sparse_columns, K, L) is None, L
    assert K.dim == L.dim + cover.multiplier.dim, L
    assert K.derived_subalgebra.contains_space(ker_pi), L
    assert K.center.contains_space(ker_pi), L
    assert all(k >= cover.d for row in K.cells for cell in row.values()
               for k in cell), L
    if not L.is_nilpotent:
        return
    try:
        P = presentation_of(L)
    except OutsideEnvelopeError:
        return
    assert P.exterior.validate().ok, L
    F, d = P.free.algebra, P.free.d
    R, RF = lifted(P.relations, d), lifted(P.relations_commutator, d)
    assert R == kernel(P.onto), L
    top = [i for i, degree in enumerate(P.free.degrees) if degree == P.free.c]
    assert not any(R.reduce_sparse({i: L.field.one}) for i in top), L
    assert R.contains_space(RF), L
    assert RF == all_columns_commutator(F, R), L
    assert not any(RF.reduce_sparse(w)
                   for t in RF.sparse_rows for w in F.ad_sparse(t)), L
