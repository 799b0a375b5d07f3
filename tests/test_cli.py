import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lietensor import GF, QQ, catalog, heisenberg
from lietensor.cli import (MAX_DOCUMENT_BYTES, algebra_document,
                           canonical_hash, load_algebra, main,
                           parse_algebra_document)
from lietensor.errors import InvalidInputError


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


H1_DOC = {"field": "Q", "dim": 3, "brackets": [[0, 1, [[2, "1"]]]]}


def test_document_round_trip():
    L = parse_algebra_document(H1_DOC)
    echo = algebra_document(L)
    again = parse_algebra_document(echo)
    assert canonical_hash(algebra_document(again)) == canonical_hash(echo)
    assert L.cells == heisenberg(1).cells
    # The same brackets, listed in another order of pairs and of terms, are
    # the same algebra with the same echo document.
    listed = {"field": "Q", "dim": 4,
              "brackets": [[0, 1, [[2, "1"], [3, "2"]]], [0, 2, [[3, "1"]]]]}
    reordered = dict(listed, brackets=[[0, 2, [[3, "1"]]],
                                       [0, 1, [[3, "2"], [2, "1"]]]])
    a, b = map(parse_algebra_document, (listed, reordered))
    assert a == b and algebra_document(a) == algebra_document(b)
    assert canonical_hash(algebra_document(a)) == \
        canonical_hash(algebra_document(b))
    assert algebra_document(b)["brackets"] == listed["brackets"]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_canonical_hash_is_hashlibs_sha256_of_the_compact_json(data):
    # canonical_hash takes CPython's built-in SHA-256 so that no command
    # maps OpenSSL; hashlib's, here the reference, must give the same digest.
    import hashlib

    from support import valid_algebras

    doc = algebra_document(data.draw(valid_algebras()))
    packed = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert canonical_hash(doc) == \
        hashlib.sha256(packed.encode("ascii")).hexdigest()


def test_document_rejections():
    cases = [
        ({"field": "Q", "dim": 3,
          "brackets": [[0, 1, [[2, "1"]]], [1, 0, [[2, "1"]]]]},
         "duplicate unordered pair"),
        ({"field": "Q", "dim": 3, "brackets": [[1, 0, [[2, "1"]]]]},
         "i < j"),
        ({"field": "Q", "dim": 3, "brackets": [[0, 3, [[2, "1"]]]]},
         "out of range"),
        ({"field": "Q", "dim": 3, "brackets": [[0, 1, [[2, 1]]]]},
         "exact string"),
        ({"field": "Q", "dim": 3, "brackets": [[0, 1, [[2, "1.5"]]]]},
         "cannot parse"),
        ({"field": "R", "dim": 1, "brackets": []}, "field"),
        ({"field": "Q", "dim": 3}, "lacks"),
        ({"field": {"Fp": 6}, "dim": 1, "brackets": []}, "not prime"),
        ({"field": {"Fp": 0}, "dim": 1, "brackets": []}, "prime integer, got 0"),
        ({"field": {"Fp": 5}, "dim": 3, "brackets": [[0, 1, [[2, "1/5"]]]]},
         "scalar '1/5' has a denominator that is 0 in F5"),
    ]
    for doc, fragment in cases:
        with pytest.raises(InvalidInputError) as err:
            parse_algebra_document(doc)
        assert fragment in str(err.value), doc


def test_non_ascii_digits_are_rejected_with_exit_2(tmp_path, capsys):
    # \d used to accept any Unicode digit: "\u0661" parsed as 1 and
    # "\uff11\uff12" as 12, while "\u0663/\u0664" was rejected.
    for coeff in ("\u0661", "\uff11\uff12", "\u0663/\u0664"):
        path = tmp_path / "digits.json"
        path.write_text(json.dumps({"field": "Q", "dim": 3,
                                    "brackets": [[0, 1, [[2, coeff]]]]}))
        assert main(["verify", str(path)]) == 2, coeff
        captured = capsys.readouterr()
        assert "cannot parse" in captured.err, coeff
        assert "Traceback" not in captured.err and not captured.out, coeff


def test_a_denominator_that_vanishes_mod_p_is_rejected_with_exit_2(
        tmp_path, capsys):
    # "1/5" over GF(5) used to end with Python's "base is not invertible
    # for the given modulus", which names neither the scalar nor the field.
    path = tmp_path / "denominator.json"
    for coeff in ("1/5", "2/10", "-3/25"):
        path.write_text(json.dumps({"field": {"Fp": 5}, "dim": 3,
                                    "brackets": [[0, 1, [[2, coeff]]]]}))
        assert main(["verify", str(path)]) == 2, coeff
        captured = capsys.readouterr()
        assert f"scalar {coeff!r} has a denominator that is 0 in F5" in \
            captured.err, coeff
        assert "Traceback" not in captured.err and not captured.out, coeff
    path.write_text(json.dumps({"field": {"Fp": 5}, "dim": 3,
                                "brackets": [[0, 1, [[2, "3/2"]]]]}))
    assert main(["info", str(path)]) == 0


def test_catalog_names_with_non_ascii_digits_are_rejected(capsys):
    # \d in catalog terms used to resolve "abelian(\u0663)" (Arabic-Indic
    # 3) and "heisenberg(\uff11)" (fullwidth 1), and info exited 0.
    for name in ("abelian(\u0663)", "heisenberg(\uff11)"):
        with pytest.raises(InvalidInputError, match="unknown catalog"):
            catalog(name)
        assert main(["info", name]) == 2, name
        captured = capsys.readouterr()
        assert not captured.out and "Traceback" not in captured.err, name


def test_field_and_integer_arguments_take_ascii_digits_only(capsys):
    # int() used to read "--field \u0663" (Arabic-Indic 3) as GF(3),
    # "--field \uff15" (fullwidth 5) as GF(5), and "-d \u0662" as 2.
    for argv in (["info", "abelian(1)", "--field", "\u0663"],
                 ["info", "abelian(1)", "--field", "\uff15"],
                 ["info", "abelian(1)", "--field", "F\u0663"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert "unrecognized field" in captured.err, argv
        assert not captured.out and "Traceback" not in captured.err, argv
    for argv in (["free-nilpotent", "-d", "\u0662", "-c", "2"],
                 ["free-nilpotent", "-d", "2", "-c", "\u0662"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "invalid integer" in capsys.readouterr().err, argv
    for text, descriptor in (("F5", {"Fp": 5}), ("5", {"Fp": 5}), ("Q", "Q")):
        code, doc = run(["info", "abelian(1)", "--field", text], capsys)
        assert code == 0 and doc["input"]["document"]["field"] == descriptor
    code, doc = run(["free-nilpotent", "-d", "2", "-c", "2"], capsys)
    assert code == 0 and (doc["generators"], doc["class"]) == (2, 2), doc


def test_jacobi_rejection_carries_witness():
    # [x1,x2] = x1 and [x1,x3] = x2 violate the Jacobi identity at (0,1,2)
    doc = {"field": "Q", "dim": 3,
           "brackets": [[0, 1, [[0, "1"]]], [0, 2, [[1, "1"]]]]}
    with pytest.raises(InvalidInputError) as err:
        parse_algebra_document(doc)
    assert "Jacobi" in str(err.value) and "(0, 1, 2)" in str(err.value)


def test_load_algebra_from_file(tmp_path):
    path = tmp_path / "h1.json"
    path.write_text(json.dumps(H1_DOC))
    L, source = load_algebra(str(path))
    assert L.dim == 3 and source == str(path)
    with pytest.raises(InvalidInputError):
        load_algebra(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(InvalidInputError):
        load_algebra(str(bad))


def test_a_key_repeated_within_one_object_exits_2(tmp_path, capsys):
    # json.loads keeps the last value of a repeated key, so each of these
    # would be read as another algebra than the one written; the control
    # document, with no repeat, is accepted.
    path = tmp_path / "repeated.json"
    for key, text in (
            ("dim", '{"field":"Q","dim":2,"dim":3,"brackets":[]}'),
            ("Fp", '{"field":{"Fp":5,"Fp":7},"dim":2,"brackets":[]}'),
            ("brackets", '{"field":"Q","dim":2,'
                         '"brackets":[[0,1,[[0,"1"]]]],"brackets":[]}')):
        path.write_text(text)
        assert main(["info", str(path)]) == 2, key
        assert f"key {key!r} is repeated" in capsys.readouterr().err
    path.write_text('{"field":"Q","dim":2,"brackets":[]}')
    assert main(["info", str(path)]) == 0


def test_a_document_longer_than_the_bound_exits_2(tmp_path, capsys):
    # A valid document padded with spaces to one byte past the bound used
    # to parse; at the bound it still does.
    text = json.dumps(H1_DOC)
    path = tmp_path / "padded.json"
    path.write_text(text + " " * (MAX_DOCUMENT_BYTES + 1 - len(text)))
    assert main(["info", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(MAX_DOCUMENT_BYTES) in err and "Traceback" not in err
    path.write_text(text + " " * (MAX_DOCUMENT_BYTES - len(text)))
    assert main(["info", str(path)]) == 0


def test_a_document_path_that_never_ends_exits_2_in_bounded_memory():
    # /dev/zero never ends: reading all of it grew until a MemoryError
    # (exit 1, a traceback) under a cap, and without one until the host ran
    # out.  The child runs under a 600 MB address-space limit and a timeout,
    # so that a regression fails this test and not the host.
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-m", "lietensor", "info", "/dev/zero"],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap)
    assert result.returncode == 2, result.stderr
    assert str(MAX_DOCUMENT_BYTES) in result.stderr
    assert "Traceback" not in result.stderr


def test_load_algebra_refuses_a_field_with_a_document(tmp_path):
    # load_algebra(path, GF(5)) used to return the document's Q algebra
    # without a word; only the CLI refused --field with a document.
    path = tmp_path / "h1.json"
    path.write_text(json.dumps(H1_DOC))
    for field in (GF(5), QQ):
        with pytest.raises(InvalidInputError, match="not documents"):
            load_algebra(str(path), field)
    L, source = load_algebra("heisenberg(1)", GF(5))
    assert L.field == GF(5) and source == "catalog:heisenberg(1)"
    assert load_algebra("heisenberg(1)")[0].field == QQ


def test_info_command(capsys):
    code, doc = run(["info", "heisenberg(2)"], capsys)
    assert code == 0
    assert doc["dimensions"] == {"algebra": 5, "derived": 1, "center": 1}
    assert doc["nilpotency_class"] == 2
    assert doc["lower_central_series"] == [5, 1, 0]


def test_tensor_command_golden(tmp_path, capsys):
    path = tmp_path / "h1.json"
    path.write_text(json.dumps(H1_DOC))
    code, doc = run(["tensor", str(path)], capsys)
    assert code == 0
    d = doc["dimensions"]
    assert (d["tensor_square"], d["square_submodule"], d["exterior_square"],
            d["j2"], d["schur_multiplier"], d["tensor_center"],
            d["exterior_center"], d["abelianization_kernel"]) == \
        (6, 3, 3, 5, 2, 0, 0, 2)
    assert all(v == "pass" for v in doc["verdicts"].values())
    assert doc["subspaces"]["square_submodule"]


def test_present_command(capsys):
    code, doc = run(["present", "heisenberg(1)"], capsys)
    assert code == 0
    assert doc["free"]["dim"] == 5
    assert doc["free"]["hall_basis"][2] == "[x2,x1]"
    assert doc["dimensions"]["schur_multiplier"] == 2
    assert doc["dimensions"]["exterior_square"] == 3


def test_present_rejects_sl2(capsys):
    assert main(["present", "sl2"]) == 2
    assert "nilpotent" in capsys.readouterr().err


def test_cover_command(tmp_path, capsys):
    # The cover needs no presentation, so sl2 (perfect, M = 0) and the
    # 2-dimensional solvable algebra [x, y] = y are covered and checked too.
    path = tmp_path / "borel.json"
    path.write_text(json.dumps(
        {"field": "Q", "dim": 2, "brackets": [[0, 1, [[1, "1"]]]]}))
    for args, dims in ((["cover", "abelian(2)"], (2, 3, 1)),
                       (["cover", "sl2"], (3, 3, 0)),
                       (["cover", str(path)], (2, 2, 0))):
        code, doc = run(args, capsys)
        assert code == 0, args
        assert doc["verdicts"] == {"defining_pair": "pass",
                                   "cover_theorem": "pass"}, args
        got = doc["dimensions"]
        assert (got["algebra"], got["cover"], got["multiplier"]) == dims, args


def test_free_nilpotent_command_round_trips(tmp_path, capsys):
    code, doc = run(["free-nilpotent", "-d", "2", "-c", "3"], capsys)
    assert code == 0
    assert doc["dim"] == 5
    assert doc["layers"] == {"1": 2, "2": 1, "3": 2}
    inner = tmp_path / "f23.json"
    inner.write_text(json.dumps(doc["document"]))
    L, _ = load_algebra(str(inner))
    assert L.dim == 5 and L.validate().ok
    assert main(["free-nilpotent", "-d", "2", "-c", "0"]) == 2


def test_verify_command(capsys):
    code, doc = run(["verify", "heisenberg(1)"], capsys)
    assert code == 0
    assert all(v == "pass" for v in doc["verdicts"].values())

    code, doc = run(["verify", "sl2"], capsys)
    assert code == 0
    assert doc["verdicts"]["cover"] == "skipped: not nilpotent"
    assert doc["verdicts"]["cross_oracle"] == "skipped: not nilpotent"
    assert doc["verdicts"]["decomposition"] == "pass"

    code, doc = run(["verify", "zero"], capsys)
    assert code == 0
    assert all(v == 0 for v in doc["dimensions"].values())
    assert all(v == "pass" for v in doc["verdicts"].values())


def test_verify_skips_presentations_for_non_nilpotent_document(tmp_path, capsys):
    doc = {"field": "Q", "dim": 2, "brackets": [[0, 1, [[1, "1"]]]]}
    path = tmp_path / "borel.json"
    path.write_text(json.dumps(doc))
    code, report = run(["verify", str(path)], capsys)
    assert code == 0
    assert report["verdicts"]["cover"] == "skipped: not nilpotent"
    assert report["verdicts"]["decomposition"] == "pass"


def test_verify_over_prime_field(capsys):
    code, doc = run(["verify", "heisenberg(1)", "--field", "F2"], capsys)
    assert code == 0
    assert doc["input"]["document"]["field"] == {"Fp": 2}
    assert all(v == "pass" for v in doc["verdicts"].values())
    assert main(["verify", "sl2", "--field", "2"]) == 2


def test_exit_codes(capsys):
    assert main(["info", "nosuchthing(3)"]) == 2
    capsys.readouterr()
    assert main(["verify"]) == 2
    capsys.readouterr()
    assert main(["info", "sl2", "--field", "F4"]) == 2
    capsys.readouterr()
    assert main(["info", "sl2", "--out", "/nonexistent-dir/report.json"]) == 2
    assert "cannot write report" in capsys.readouterr().err


def test_failed_verdict_gives_exit_code_1(monkeypatch, capsys):
    # Everything passes on real input, so force one verdict to fail to pin
    # the exit-code contract.
    from lietensor import cli
    from lietensor.tensor import Verdict

    monkeypatch.setattr(cli, "verify_cover_theorem",
                        lambda cover, tensor=None: Verdict(False, "forced"))
    code, doc = run(["verify", "heisenberg(1)"], capsys)
    assert code == 1
    assert doc["verdicts"]["cover"] == "fail: forced"


def test_a_failed_verdict_fails_exactly_its_catalog_entries(monkeypatch,
                                                            capsys):
    # verify --catalog marks an entry by the rule of the exit code: with the
    # cover verdict forced to fail, the 44 nilpotent entries, which run it,
    # fail, the summary counts them and the command exits 1.
    from lietensor import cli
    from lietensor.catalog import CATALOG_SUITE, SUITE_FIELDS, is_supported
    from lietensor.tensor import Verdict

    monkeypatch.setattr(cli, "verify_cover_theorem",
                        lambda cover, tensor=None: Verdict(False, "forced"))
    code, doc = run(["verify", "--catalog"], capsys)
    nilpotent = [(name, field.descriptor()) for name in CATALOG_SUITE
                 for field in SUITE_FIELDS if is_supported(name, field)
                 and catalog(name, field).is_nilpotent]
    assert len(nilpotent) == 44 and doc["summary"]["fail"] == 44
    assert [(e["name"], e["field"]) for e in doc["entries"]
            if e["status"] == "fail"] == nilpotent
    assert code == 1


def test_an_invalid_catalog_algebra_is_a_verification_failure(monkeypatch,
                                                              capsys):
    # A catalog constructor that builds an invalid algebra is a bug in the
    # package: main reports it and exits 1 instead of raising.
    import importlib
    from lietensor.liealg import LieAlgebra

    bad = LieAlgebra(QQ, 3, ({0: {2: QQ.one}}, {}, {}), ("x1", "y1", "z"))
    monkeypatch.setattr(importlib.import_module("lietensor.catalog"),
                        "heisenberg", lambda m, field=QQ: bad)
    assert main(["info", "heisenberg(1)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verification failure: catalog algebra invalid" in captured.err


def test_verify_builds_the_presentation_exterior_once_per_algebra(monkeypatch):
    # The cross-oracle verdict reads the wedge map of the presentation, and
    # the cover verdict does not; verify --catalog builds and checks it once
    # for each nilpotent entry.  The caches are cleared so that every
    # presentation is built under the patch.
    from collections import Counter

    from lietensor import catalog, cli, presentation
    from lietensor.catalog import CATALOG_SUITE, SUITE_FIELDS, is_supported

    nilpotent = [L for L in (catalog(name, field) for name in CATALOG_SUITE
                             for field in SUITE_FIELDS if is_supported(name, field))
                 if L.is_nilpotent]
    built = []
    original = presentation.exterior_via_presentation

    def counted(P, tensor):
        built.append(P.L)
        return original(P, tensor)

    monkeypatch.setattr(cli, "exterior_via_presentation", counted)
    presentation.presentation_of.cache_clear()
    cli.catalog_document()
    assert len(nilpotent) == 44
    assert Counter(built) == Counter(nilpotent)


def test_verify_computes_the_lower_central_series_once(monkeypatch):
    # verify used to compute the series three times on a nilpotent input,
    # for is_nilpotent, presentation_of and build_cover.  Each computation
    # starts from the full space, the one Subspace that liealg builds.
    from lietensor import liealg, presentation
    from lietensor.cli import verify_document
    from lietensor.linalg import Subspace

    started = []
    full_space = Subspace.full_space

    class Counted(Subspace):
        @classmethod
        def full_space(cls, field, ambient_dim):
            started.append(ambient_dim)
            return full_space(field, ambient_dim)

    monkeypatch.setattr(liealg, "Subspace", Counted)
    presentation.presentation_of.cache_clear()
    L = heisenberg(2)
    doc = verify_document(L, "counted")
    assert doc["verdicts"]["cross_oracle"] == doc["verdicts"]["cover"] == "pass"
    assert started == [L.dim]
    assert L.lower_central_series() is L.lower_central_series()
    assert [s.dim for s in L.lower_central_series()] == [5, 1, 0]


def computations_during_verify(monkeypatch, name):
    # Wraps the function of the cached property LieAlgebra.<name>, so that
    # each computation is recorded with its algebra; a read that the cache
    # answers runs no code to record.  Returns the records, heisenberg(2)
    # and its verify document.
    from functools import cached_property

    from lietensor import presentation, tensor
    from lietensor.cli import verify_document
    from lietensor.liealg import LieAlgebra

    calls = []
    compute = LieAlgebra.__dict__[name].func

    def traced(self):
        calls.append((self, compute(self)))
        return calls[-1][1]

    counted = cached_property(traced)
    counted.__set_name__(LieAlgebra, name)
    monkeypatch.setattr(LieAlgebra, name, counted)
    tensor.build_tensor_square.cache_clear()
    presentation.presentation_of.cache_clear()
    L = heisenberg(2)
    doc = verify_document(L, "counted")
    return calls, L, doc


def assert_one_answer_per_algebra(calls, L, name):
    # One computation per algebra, one object per computation, and every
    # later read of L gives that object.
    algebras = {id(a) for a, _ in calls}
    assert len(calls) == len(algebras)
    assert len({id(space) for _, space in calls}) == len(algebras)
    (answer,) = [space for a, space in calls if a is L]
    assert getattr(L, name) is getattr(L, name) is answer


def test_verify_computes_the_derived_subalgebra_once_per_algebra(monkeypatch):
    # verify asks each algebra for L^2 many times (the abelianization, two
    # theorem checks, the report, the presentation, the cover and the
    # tensor build); every answer for one algebra must be the same object.
    calls, L, doc = computations_during_verify(monkeypatch, "derived_subalgebra")
    assert doc["verdicts"]["cross_oracle"] == doc["verdicts"]["cover"] == "pass"
    assert_one_answer_per_algebra(calls, L, "derived_subalgebra")


def test_verify_computes_the_center_once_per_algebra(monkeypatch):
    # verify asks each algebra for its center in the report and in the
    # center identity; every answer for one algebra must be the same object.
    calls, L, doc = computations_during_verify(monkeypatch, "center")
    assert doc["verdicts"]["center_identity"] == "pass"
    assert_one_answer_per_algebra(calls, L, "center")


def test_document_schemas_are_stable(capsys):
    code, doc = run(["verify", "heisenberg(1)"], capsys)
    assert sorted(doc) == ["command", "diagnostics", "dimensions", "input",
                           "timings", "verdicts"]
    assert sorted(doc["verdicts"]) == [
        "center_identity", "cover", "cross_oracle", "decomposition",
        "j2_decomposition", "kernel_identity", "square_restriction"]
    assert sorted(doc["dimensions"]) == [
        "abelianization_kernel", "algebra", "center", "derived",
        "exterior_center", "exterior_square", "j2", "schur_multiplier",
        "square_submodule", "tensor_center", "tensor_square"]
    assert sorted(doc["input"]) == ["document", "hash", "source"]
    code, doc = run(["verify", "--catalog"], capsys)
    assert sorted(doc) == ["command", "entries", "summary", "timings"]
    assert sorted(doc["summary"]) == ["fail", "pass", "skipped"]


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["tensor", "heisenberg(2)", "--out", str(a)]) == 0
    assert main(["tensor", "heisenberg(2)", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_timings_flag(capsys):
    code, doc = run(["info", "abelian(2)", "--timings"], capsys)
    assert code == 0
    assert isinstance(doc["timings"]["total_seconds"], float)
    code, doc = run(["info", "abelian(2)"], capsys)
    assert doc["timings"] is None


def run_document(doc, tmp_path, capsys, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    code = main(["info", str(path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.err


def test_large_and_pseudoprime_moduli_end_at_once(tmp_path, capsys):
    # 2^61 - 1 is prime and used to hang in trial division; 561 (Carmichael)
    # and 2047 (strong pseudoprime to base 2) are composite; 2^89 - 1 is a
    # prime beyond the modulus ceiling.
    started = time.perf_counter()
    doc = dict(H1_DOC, field={"Fp": 2 ** 61 - 1})
    code, _ = run_document(doc, tmp_path, capsys)
    assert code == 0
    assert time.perf_counter() - started < 10
    for p, fragment in ((0, "prime"), (561, "not prime"),
                        (2047, "not prime"),
                        (2 ** 89 - 1, "outside the supported envelope")):
        code, err = run_document(dict(H1_DOC, field={"Fp": p}), tmp_path, capsys)
        assert code == 2 and fragment in err, p
        assert main(["info", "sl2", "--field", str(p)]) == 2
        assert fragment in capsys.readouterr().err, p


def test_bool_dim_and_string_basis_names_are_rejected(tmp_path, capsys):
    cases = [
        ({"field": "Q", "dim": True, "brackets": []}, "dim must be"),
        ({"field": "Q", "dim": 3, "basis_names": "xyz",
          "brackets": [[0, 1, [[2, "1"]]]]}, "basis_names"),
        ({"field": "Q", "dim": 3, "brackets": [[False, True, [[2, "1"]]]]},
         "indices must be integers"),
        ({"field": "Q", "dim": 3, "brackets": [[0, 1, [[True, "1"]]]]},
         "out of range"),
        ({"field": {"Fp": True}, "dim": 1, "brackets": []}, "modulus"),
    ]
    for doc, fragment in cases:
        code, err = run_document(doc, tmp_path, capsys)
        assert code == 2 and fragment in err, doc


def test_document_path_is_not_routed_by_catalog_prefix(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "heisenberg_copy.json").write_text(json.dumps(H1_DOC))
    code, doc = run(["info", "heisenberg_copy.json"], capsys)
    assert code == 0 and doc["input"]["source"] == "heisenberg_copy.json"
    assert doc["dimensions"] == {"algebra": 3, "derived": 1, "center": 1}
    for missing in ("heisenberg_missing.json", "heisenberg(2"):
        assert main(["info", missing]) == 2
        err = capsys.readouterr().err
        assert "neither a catalog algebra nor a readable document" in err
        assert "Traceback" not in err
    (tmp_path / "binary.json").write_bytes(b"\xd0\xff{")
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
    for unreadable in ("binary.json", "deep.json"):
        assert main(["info", unreadable]) == 2
        assert "not valid JSON" in capsys.readouterr().err


def test_design_envelope_is_enforced_before_anything_is_built(tmp_path,
                                                               capsys):
    # Each of these used to build (or start building) an algebra far above
    # n = 16; now each ends with exit 2 and a message at once.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"field": "Q", "dim": 100000, "brackets": []}))
    for args in (["info", "abelian(400)"], ["info", "heisenberg(9)"],
                 ["tensor", "abelian(" + "9" * 5000 + ")"],
                 ["info", "+".join(["abelian(1)"] * 17)],
                 ["info", str(path)],
                 ["free-nilpotent", "-d", "50", "-c", "50"],
                 ["free-nilpotent", "-d", "1", "-c", "1000000000"]):
        started = time.perf_counter()
        assert main(args) == 2, args
        assert time.perf_counter() - started < 5, args
        err = capsys.readouterr().err
        assert "design envelope" in err and "Traceback" not in err, args
    # the largest algebras inside the envelope are still accepted
    for args in (["info", "heisenberg(7)+abelian(1)"], ["info", "abelian(16)"],
                 ["free-nilpotent", "-d", "16", "-c", "2"],
                 ["free-nilpotent", "-d", "1", "-c", "256"]):
        code, doc = run(args, capsys)
        assert code == 0, args
    assert doc["dim"] == 1


def filiform_document(n: int) -> dict:
    """[e0, ei] = e(i+1) for i = 1 .. n-2: nilpotent of class n - 1 on two
    generators, so its presentation needs the free algebra F(2, n)."""
    return {"field": "Q", "dim": n,
            "brackets": [[0, i, [[i + 1, "1"]]] for i in range(1, n - 1)]}


def test_presentation_engine_is_held_to_the_envelope(tmp_path, capsys):
    # F(2, 16) has 8800 dimensions, and verify used to run for minutes on
    # this valid 16-dimensional document.  Now the cross_oracle verdict is
    # skipped with the reason and present ends with exit 2, while the cover,
    # which needs no free algebra, passes and the cover command exits 0.
    path = tmp_path / "filiform16.json"
    path.write_text(json.dumps(filiform_document(16)))
    started = time.perf_counter()
    code, doc = run(["verify", str(path)], capsys)
    assert time.perf_counter() - started < 10
    assert code == 0
    reason = ("skipped: the presenting free nilpotent algebra (d=2, c=16) has "
              "more than 256 dimensions, outside the design envelope")
    verdicts = doc["verdicts"]
    assert verdicts.pop("cross_oracle") == reason
    assert set(verdicts.values()) == {"pass"}
    started = time.perf_counter()
    assert main(["present", str(path)]) == 2
    assert time.perf_counter() - started < 10
    err = capsys.readouterr().err
    assert "design envelope" in err and "Traceback" not in err
    started = time.perf_counter()
    code, doc = run(["cover", str(path)], capsys)
    assert time.perf_counter() - started < 10
    assert code == 0 and set(doc["verdicts"].values()) == {"pass"}
    # Valid inputs whose presenting free algebra lies above the bound end
    # at once, with a skip naming the free algebra they would need.
    path = tmp_path / "filiform12.json"
    path.write_text(json.dumps(filiform_document(12)))
    h1 = "heisenberg(1)"
    rows = [(["heisenberg(7)+abelian(1)"] + field, 15, 3)
            for field in ([], ["--field", "2"], ["--field", "5"])]
    rows += [(["+".join([h1] * 5 + ["abelian(1)"])], 11, 3),
             ([str(path)], 2, 12)]
    for args, d, c in rows:
        started = time.perf_counter()
        code, doc = run(["verify"] + args, capsys)
        assert time.perf_counter() - started < 10, args
        assert code == 0, args
        reason = (f"skipped: the presenting free nilpotent algebra (d={d}, "
                  f"c={c}) has more than 256 dimensions, outside the design "
                  f"envelope")
        verdicts = doc["verdicts"]
        assert verdicts.pop("cross_oracle") == reason
        assert set(verdicts.values()) == {"pass"}, args
    # F(2, 10) has 226 dimensions, inside the bound: both engines still run
    path = tmp_path / "filiform10.json"
    path.write_text(json.dumps(filiform_document(10)))
    code, doc = run(["verify", str(path)], capsys)
    assert code == 0
    assert doc["verdicts"]["cross_oracle"] == doc["verdicts"]["cover"] == "pass"


def test_free_nilpotent_envelope_reads_the_witt_layer_sums():
    from lietensor.freenilp import dimension_exceeds, witt_dimension
    for d in range(0, 7):
        for c in range(1, 9):
            dim = sum(witt_dimension(d, k) for k in range(1, c + 1))
            for limit in (dim - 1, dim, 256):
                assert dimension_exceeds(d, c, limit) == (dim > limit), (d, c)


def test_unknown_keys_and_repeated_coefficient_indices_are_rejected(
        tmp_path, capsys):
    cases = [
        (dict(H1_DOC, comment="x"), "unknown document key 'comment'"),
        (dict(H1_DOC, Brackets=[]), "unknown document key 'Brackets'"),
        ({"field": "Q", "dim": 3, "brackets": [[0, 1, [[2, "1"], [2, "1"]]]]},
         "duplicate coefficient index 2 in bracket (0,1)"),
        ({"field": "Q", "dim": 3, "brackets": [[0, 1, [[2, "1"], [2, "-1"]]]]},
         "duplicate coefficient index 2"),
        ({"field": "Q", "dim": 3, "brackets": 5}, "brackets must be a list"),
        ({"field": "Q", "dim": 3, "brackets": [[0, 1, 7]]}, "must be a list"),
    ]
    for doc, fragment in cases:
        code, err = run_document(doc, tmp_path, capsys)
        assert code == 2 and fragment in err, doc


def test_algebra_documents_still_round_trip():
    # Echo documents carry exactly the accepted keys, with no repeated
    # coefficient index, for catalog algebras, free nilpotent algebras and
    # the random quotients of the cross-oracle workload.
    import random

    from lietensor import GF, catalog, free_nilpotent
    from support import random_nilpotent_quotient

    algebras = [catalog("heisenberg(2)+sl2", GF(5)), catalog("abelian(16)")]
    algebras += [free_nilpotent(3, 3, field).algebra for field in (GF(0), GF(5))]
    rng = random.Random(20260810)
    algebras += [random_nilpotent_quotient(rng, d, c) for d, c in
                 ((2, 3), (2, 4), (3, 2), (3, 3))]
    for L in algebras:
        echo = algebra_document(L)
        again = parse_algebra_document(json.loads(json.dumps(echo)))
        assert again.cells == L.cells and again.basis_names == L.basis_names
        assert algebra_document(again) == echo


def test_catalog_takes_no_algebra_and_no_field(capsys):
    # verify --catalog used to drop an algebra argument and --field and run
    # the whole catalog anyway.
    for args in (["verify", "--catalog", "heisenberg(1)"],
                 ["verify", "--catalog", "--field", "5"],
                 ["verify", "heisenberg(1)", "--catalog", "--field", "Q"]):
        assert main(args) == 2, args
        captured = capsys.readouterr()
        assert captured.out == "", args
        assert "--catalog" in captured.err and "Traceback" not in captured.err
    # without --field an algebra is still read over Q
    code, doc = run(["verify", "heisenberg(1)"], capsys)
    assert code == 0 and doc["input"]["document"]["field"] == "Q"


def test_field_is_refused_with_a_document_path(tmp_path, capsys):
    # info doc.json --field 5 used to report over the document's own field
    # and drop --field without a word.
    path = tmp_path / "h1.json"
    path.write_text(json.dumps(H1_DOC))
    for command in ("info", "tensor", "present", "cover", "verify"):
        for field in ("5", "Q"):
            assert main([command, str(path), "--field", field]) == 2, command
            captured = capsys.readouterr()
            assert captured.out == "", command
            assert "--field" in captured.err and "Traceback" not in captured.err
    # without --field the document is read over its own field
    code, doc = run(["info", str(path)], capsys)
    assert code == 0 and doc["input"]["document"]["field"] == "Q"


# sha256 of canonical_json(present_document(L, "pinned")) and of the cover
# document, recorded before the presentation engine was moved onto the one
# quotient F/[R,F].
PINNED_PRESENTATION_REPORTS = {
    "heisenberg(1)": (
        "5a2b89ca7adcd4ff32a3a4654854d85e8e8eaddb7385976518ea8a0e81bfc742",
        "38635af5db79b9413d5e716f1f72834c54401bc03c0950e32a9ca5d4e4ef584e"),
    "heisenberg(3)": (
        "5b72c279029900ed3a9a3d9a4a34b0321ef35cc07ecd66244ab4ad6d762afbae",
        "b3fbfc69f94be15d713c6c2fb10cbe416c0e52eb5ef70831a2cea21fa777176c"),
    "heisenberg(2)+abelian(1) over GF(5)": (
        "98792842b05c938f8f9e4a586149b4123f5b518a0a55422c1c5417dd7a1456f4",
        "f444bf758be93316343e2d5ae71cf1eedf36b91ae8488b1aee9ac5ed835f7810"),
    "abelian(16)": (
        "2f53d24499e49aa3da4bf1e0502c084ec7e5dc4b156ac4b35b8d571679fbd21b",
        "5193b838f024554c43605ec86f59b5b5bf16684e15c57e8751b304ee8d36b7a5"),
    "filiform(10)": (
        "13f72e53d5ce61456c8326cf225205c45cc9ece321176c7a005025314f3206d0",
        "8e69e193ce34838c4d142c9ac891cd648a8380b8dd4fec6a63a4c5fe4d36611f"),
    "random_nilpotent_quotient(Random(6), 2, 4)": (
        "26ab1706ee97a2e05ef7f261410b792439dd1c7c101684d9c9fc2ffc6b4cbb48",
        "0e48f9333c41b5f17a96f49db347e6a3d1683cbc49278647e8d1dcf7a15fcb67"),
}


# sha256 of canonical_json(tensor_document(L, "pinned")) for the inputs
# above and sl2 over Q and GF(3), recorded before the five theorem checks
# that a retained check proves were removed from the verdicts in it.
PINNED_TENSOR_REPORTS = {
    "heisenberg(1)":
        "65d85b60e6447d1144d81add8f18c52bf06866b40ce1bf36b10b47eb37e1d123",
    "heisenberg(3)":
        "01b0b9f924b88c5c4a6080cef59fb80419d7eb6ea7fd3c1a41dfc4aa92c4bb6f",
    "heisenberg(2)+abelian(1) over GF(5)":
        "665b7c32ccc21e8ade2525f73c302770297e9d3b9f5ec6daf967cc9ad017c0e0",
    "abelian(16)":
        "e7d33c919d9d67954b09dd31c34bf706982cbfc03cd0854905526dd2fd5c9f07",
    "filiform(10)":
        "978c016ca5574a476f6fe755b347fd1888cf80673590def00b5bbbd467e35e94",
    "random_nilpotent_quotient(Random(6), 2, 4)":
        "34ee43756839820e481e7e93e26b7333f66034639c5033b2f0ff033fb38449db",
    "sl2": "d175c137d03bc5de1aa8c831c72272df30e8138106b47cfa9973ee52fc36a256",
    "sl2 over GF(3)":
        "13056457f58065bced3e7616ed29f1c208afd386c6073e60f01c32c62f2b7d32",
}


def pinned_algebras() -> dict:
    import random

    from support import random_nilpotent_quotient

    return {
        "heisenberg(1)": catalog("heisenberg(1)"),
        "heisenberg(3)": catalog("heisenberg(3)"),
        "heisenberg(2)+abelian(1) over GF(5)":
            catalog("heisenberg(2)+abelian(1)", GF(5)),
        "abelian(16)": catalog("abelian(16)"),
        "filiform(10)": parse_algebra_document(filiform_document(10)),
        "random_nilpotent_quotient(Random(6), 2, 4)":
            random_nilpotent_quotient(random.Random(6), 2, 4),
    }


def report_digest(build, L) -> str:
    import hashlib

    from lietensor.cli import canonical_json

    return hashlib.sha256(
        canonical_json(build(L, "pinned")).encode()).hexdigest()


def test_present_and_cover_reports_are_pinned():
    from lietensor.cli import cover_document, present_document

    for name, L in pinned_algebras().items():
        got = tuple(report_digest(build, L)
                    for build in (present_document, cover_document))
        assert got == PINNED_PRESENTATION_REPORTS[name], name


def test_tensor_reports_are_pinned():
    from lietensor.cli import tensor_document

    algebras = pinned_algebras()
    algebras["sl2"] = catalog("sl2")
    algebras["sl2 over GF(3)"] = catalog("sl2", GF(3))
    for name, L in algebras.items():
        assert report_digest(tensor_document, L) == \
            PINNED_TENSOR_REPORTS[name], name


# ----------------------------------------------------------------------
# the input boundary: arbitrary documents and argument lists
# ----------------------------------------------------------------------

def json_values():
    keys = st.sampled_from(["field", "dim", "brackets", "basis_names", "Fp",
                            "x"])
    leaves = (st.none() | st.booleans() | st.integers(-3, 20)
              | st.sampled_from(["Q", "1", "-2", "1/2", "F5", ""]))
    return st.recursive(
        leaves, lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(keys, inner, max_size=5), max_leaves=16)


@st.composite
def upper_triangular_documents(draw):
    """[x_i, x_j] = c x_k with k > j > i for a random set of pairs: a
    nilpotent table when it satisfies the Jacobi identity, and an invalid
    document otherwise."""
    n = draw(st.integers(1, 9))
    brackets = []
    for i in range(n):
        for j in range(i + 1, n - 1):
            if draw(st.booleans()):
                k = draw(st.integers(j + 1, n - 1))
                brackets.append([i, j, [[k, str(draw(st.integers(-2, 2)))]]])
    field = draw(st.sampled_from(["Q", {"Fp": 2}, {"Fp": 5}]))
    return {"field": field, "dim": n, "brackets": brackets}


documents = (json_values()
             | st.integers(2, 16).map(filiform_document)
             | upper_triangular_documents())

OPTIONS = st.sampled_from([
    ["--field", "Q"], ["--field", "5"], ["--field", "F2"], ["--field", "4"],
    ["--field", "x"], ["--catalog"], ["--timings"], ["-d", "2"], ["-d", "-1"],
    ["-c", "3"], ["-c", "0"], ["--out", "OUT"], ["--bogus"], ["extra"],
])


@st.composite
def argument_lists(draw):
    command = draw(st.sampled_from(["info", "tensor", "present", "cover",
                                    "verify", "free-nilpotent", "frobnicate"]))
    args = [command]
    which = draw(st.integers(0, 7))
    if which == 1:
        args.append(draw(st.text(max_size=6)))
    elif which == 2:
        args.append(draw(st.sampled_from(
            ["heisenberg(1)", "abelian(2)", "sl2", "heisenberg(1)+abelian(1)",
             "abelian(400)", "nosuch(1)", ""])))
    elif which > 2:
        args.append("DOC")
    for option in draw(st.lists(OPTIONS, max_size=3)):
        args.extend(option)
    return args


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents, argument_lists())
def test_every_document_and_argument_list_ends_with_an_exit_code(doc, args):
    # Any JSON document and argument list ends with exit 0, 1 or 2 within a
    # time bound, and never with a traceback.  The documents include valid
    # filiform algebras of every dimension up to the envelope and random
    # strictly upper-triangular structure constants.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == "DOC" else
                str(Path(tmp) / "out.json") if a == "OUT" else a for a in args]
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors and --help
                code = exc.code
        assert time.perf_counter() - started < 10, argv
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
