"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance (all values
exact; time budgets asserted) and prints a single pass/fail line.  Golden
values below were first reproduced by the stated independent oracle: sympy
rank computations for the relation spans, the free-presentation engine for
the Heisenberg table, and the Witt formula for free nilpotent layers.
"""

import json
import random
import time

from lietensor import (QQ, build_cover, build_tensor_square, catalog,
                       exterior_via_presentation, free_nilpotent, heisenberg,
                       is_lie_pairing, multiplier_via_presentation,
                       presentation_of, sl2, tensor_report,
                       verify_cover_theorem, witt_dimension)
from lietensor.catalog import CATALOG_SUITE, SUITE_FIELDS, is_supported
from lietensor.cli import main

from support import (random_nilpotent_quotient, select_columns, span,
                     sympy_rank, tensor_relation_vectors)

THEOREMS = ("verify_decomposition", "verify_j2_decomposition",
            "verify_center_identity", "verify_square_restriction",
            "verify_kernel_identity")


def report(num, ok, detail):
    import conftest
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.criterion_lines.append(line)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_abelian_golden_table():
    started = time.perf_counter()
    ok = True
    for n in range(1, 6):
        T = build_tensor_square(catalog(f"abelian({n})"))
        _, j2 = T.commutator_map
        ok &= T.dim == n * n
        ok &= T.square_submodule.dim == n * (n + 1) // 2
        ok &= T.exterior_square()[0].dim == n * (n - 1) // 2
        ok &= T.schur_multiplier().dim == n * (n - 1) // 2
        ok &= j2.dim == n * n
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    report(1, ok, f"abelian n=1..5 exact dims, {elapsed:.2f}s (< 1s)")


def test_criterion_2_heisenberg_golden_table():
    started = time.perf_counter()
    # H(1): oracle = the free-presentation engine
    h1 = heisenberg(1)
    P1 = presentation_of(h1)
    oracle_ext = exterior_via_presentation(P1, build_tensor_square(h1))[0].dim
    oracle_mult = multiplier_via_presentation(P1).dim
    assert (oracle_ext, oracle_mult) == (3, 2)
    T1 = build_tensor_square(h1)
    rep = tensor_report(T1)
    d = rep.dims
    golden = (d["tensor_square"], d["square_submodule"], d["exterior_square"],
              d["j2"], d["schur_multiplier"], d["tensor_center"],
              d["exterior_center"], d["abelianization_kernel"])
    ok = golden == (6, 3, 3, 5, 2, 0, 0, 2)
    # H(2)
    h2 = heisenberg(2)
    T2 = build_tensor_square(h2)
    z = span(QQ, 5, [tuple(QQ.scalar(int(i == 4)) for i in range(5))])
    ok &= T2.square_submodule.dim == 10
    ok &= T2.tensor_center == z and T2.exterior_center == z
    P2 = presentation_of(h2)
    ok &= exterior_via_presentation(P2, T2)[0].dim == T2.exterior_square()[0].dim
    ok &= multiplier_via_presentation(P2).dim == T2.schur_multiplier().dim
    elapsed = time.perf_counter() - started
    ok &= elapsed < 5.0
    report(2, ok, f"H(1) dims {golden}, H(2) square=10 centers=span(z), "
                  f"{elapsed:.2f}s (< 5s)")


def test_criterion_3_sl2():
    L = sl2()
    # oracle: independent expansion of the relation span, rank via sympy
    rank = sympy_rank(tensor_relation_vectors(L), 9)
    ok = rank == 6
    T = build_tensor_square(L)
    ok &= T.relation_space.dim == 6
    ok &= T.dim == 3 and T.exterior_square()[0].dim == 3
    kappa, j2 = T.commutator_map
    ok &= T.square_submodule.dim == 0
    ok &= T.schur_multiplier().dim == 0 and j2.dim == 0
    induced = select_columns(kappa, T.square_submodule.free_cols)
    ok &= induced.is_bijective()
    report(3, ok, f"relation rank {rank} in ambient 9, tensor dim {T.dim}, "
                  f"induced commutator map bijective")


def test_criterion_4_theorem_suite():
    started = time.perf_counter()
    failures = []
    count = 0
    for name in CATALOG_SUITE:
        for field in SUITE_FIELDS:
            if not is_supported(name, field):
                continue
            T = build_tensor_square(catalog(name, field))
            for theorem in THEOREMS:
                verdict = getattr(T, theorem)()
                count += 1
                if not verdict.ok:
                    failures.append((name, field.name, theorem, verdict.detail))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 30.0
    report(4, ok, f"{count} theorem checks over Q, F2, F3, F5, "
                  f"{elapsed:.1f}s (< 30s); failures: {failures}")


def test_criterion_5_cross_oracle():
    started = time.perf_counter()
    failures = []
    checked = 0

    def check(L, label):
        nonlocal checked
        T = build_tensor_square(L)
        P = presentation_of(L)
        try:
            ext_alg, _ = exterior_via_presentation(P, T)  # bijective hom asserted
        except Exception as exc:  # noqa: BLE001 - recorded as a failure
            failures.append((label, str(exc)))
            return
        if ext_alg.dim != T.exterior_square()[0].dim:
            failures.append((label, "exterior dims disagree"))
        if multiplier_via_presentation(P).dim != T.schur_multiplier().dim:
            failures.append((label, "multiplier dims disagree"))
        checked += 1

    for name in CATALOG_SUITE:
        L = catalog(name)
        if L.is_nilpotent:
            check(L, name)
    rng = random.Random(20260810)
    quotients = 0
    for d, c in [(2, 2), (2, 3), (3, 2), (3, 3), (1, 1)] * 4:
        check(random_nilpotent_quotient(rng, d, c), f"quotient({d},{c})")
        quotients += 1
    elapsed = time.perf_counter() - started
    ok = not failures and quotients >= 20 and elapsed < 60.0
    report(5, ok, f"{checked} algebras ({quotients} random quotients), "
                  f"{elapsed:.1f}s (< 60s); failures: {failures}")


def test_criterion_6_free_nilpotent_dims():
    golden = {(2, 2): 3, (2, 3): 5, (2, 4): 8, (3, 2): 6, (3, 3): 14}
    ok = True
    for (d, c), dim in golden.items():
        # oracle: the Witt formula, layer by layer
        assert sum(witt_dimension(d, k) for k in range(1, c + 1)) == dim
        F = free_nilpotent(d, c)
        ok &= F.algebra.dim == dim
        ok &= F.algebra.validate().ok
    report(6, ok, f"dims {golden} with Jacobi validation")


def test_criterion_7_cover_suite():
    ok = True
    details = []
    for name, (dim_l, dim_m) in (("abelian(2)", (2, 1)),
                                 ("heisenberg(1)", (3, 2))):
        L = catalog(name)
        cover = build_cover(L)
        K = cover.algebra
        ok &= K.dim == dim_l + dim_m
        ok &= cover.multiplier.dim == dim_m
        ok &= K.center.contains_space(cover.multiplier)
        ok &= K.derived_subalgebra.contains_space(cover.multiplier)
        verdict = verify_cover_theorem(cover, build_tensor_square(L))
        ok &= verdict.ok
        details.append(f"{name}: {K.dim}={dim_l}+{dim_m}")
    report(7, ok, "; ".join(details))


def test_criterion_8_self_checks_never_fire():
    # Exercise every construction self-check on the whole suite: bracket
    # well-definedness and Jacobi run inside build_tensor_square, the
    # homomorphism check inside commutator_map, surjectivity/bijectivity
    # inside whitehead_gamma.  Any failure raises InternalCheckError.
    failures = []
    for name in CATALOG_SUITE:
        for field in SUITE_FIELDS:
            if not is_supported(name, field):
                continue
            label = f"{name}/{field.name}"
            try:
                L = catalog(name, field)
                T = build_tensor_square(L)
                T.commutator_map
                T.whitehead_gamma
                if not is_lie_pairing(T.pairing, L, T.algebra).ok:
                    failures.append((label, "universal pairing axioms"))
            except AssertionError as exc:
                failures.append((label, str(exc)))
    rng = random.Random(8)
    for d, c in ((2, 3), (3, 2), (3, 3)):
        label = f"quotient({d},{c})"
        try:
            T = build_tensor_square(random_nilpotent_quotient(rng, d, c))
            T.commutator_map
            T.whitehead_gamma
        except AssertionError as exc:
            failures.append((label, str(exc)))
    report(8, not failures, f"construction self-checks clean; failures: {failures}")


def test_criterion_9_determinism(tmp_path):
    first = tmp_path / "catalog1.json"
    second = tmp_path / "catalog2.json"
    code1 = main(["verify", "--catalog", "--out", str(first)])
    code2 = main(["verify", "--catalog", "--out", str(second)])
    same = first.read_bytes() == second.read_bytes()
    summary = json.loads(first.read_text())["summary"]
    ok = same and code1 == 0 and code2 == 0 and summary["fail"] == 0
    report(9, ok, f"verify --catalog byte-identical across runs, "
                  f"summary {summary}")
