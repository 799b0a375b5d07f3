"""Command-line front end.

Algebras travel as JSON documents with exact coefficient strings::

    {"field": "Q" | {"Fp": p},
     "dim": n,
     "basis_names": ["x1", ...],                  # optional on input
     "brackets": [[i, j, [[k, "coeff"], ...]], ...]}   # i < j only

Reports are emitted as canonical JSON (sorted keys, exact scalars as
strings); identical inputs produce byte-identical report documents.  Wall
clock timings are therefore left out of the document unless explicitly
requested with --timings.

Exit codes: 0 all verdicts pass or are skipped, 1 some theorem verdict
failed, 2 invalid input or usage.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .catalog import (CATALOG_SUITE, MAX_AMBIENT, MAX_DIM, SUITE_FIELDS,
                      catalog, is_catalog_name, is_supported)
from .errors import (InternalCheckError, InvalidInputError, NotNilpotentError,
                     OutsideEnvelopeError, TheoremViolationError, Verdict)
from .fields import QQ, Field, field_from_descriptor
from .freenilp import dimension_exceeds, free_nilpotent
from .liealg import LieAlgebra, lie_algebra_from_brackets
from .linalg import dense
from .presentation import (build_cover, exterior_via_presentation,
                           multiplier_via_presentation, presentation_of,
                           verify_cover_theorem)
from .tensor import build_tensor_square, tensor_report

# ----------------------------------------------------------------------
# documents
# ----------------------------------------------------------------------

def _is_int(x) -> bool:
    """JSON integers only: true and false are not dimensions or indices."""
    return isinstance(x, int) and not isinstance(x, bool)


DOCUMENT_KEYS = ("field", "dim", "basis_names", "brackets")

# The largest document of the envelope: dim 16 has 120 pairs i < j of at
# most 16 terms, and a coefficient "-num/den" has at most 4,300 digits a
# part (Python's limit on int from a string), so a term takes about 8,610
# bytes: 120 * 16 * 8,610 = 16.5 MB.  The bound is about twice that.
MAX_DOCUMENT_BYTES = 32 << 20


def parse_algebra_document(doc: dict) -> LieAlgebra:
    """Validate and load an algebra document; antisymmetric completion is
    applied to the sparse i < j bracket list.

    Nothing is accepted silently: unknown keys, duplicate pairs and a
    coefficient index repeated within one bracket are all rejected, and so
    is a dimension above the design envelope, before any table is built."""
    if not isinstance(doc, dict):
        raise InvalidInputError("algebra document must be a JSON object")
    for key in doc:
        if key not in DOCUMENT_KEYS:
            raise InvalidInputError(f"unknown document key {key!r}")
    for key in ("field", "dim", "brackets"):
        if key not in doc:
            raise InvalidInputError(f"algebra document lacks field {key!r}")
    try:
        field = field_from_descriptor(doc["field"])
    except ValueError as exc:
        raise InvalidInputError(str(exc)) from exc
    dim = doc["dim"]
    if not _is_int(dim) or dim < 0:
        raise InvalidInputError(f"dim must be a nonnegative integer, got {dim!r}")
    if dim > MAX_DIM:
        raise InvalidInputError(
            f"dim {dim} is above {MAX_DIM}, outside the design envelope")
    names = doc.get("basis_names")
    if names is not None:
        if not isinstance(names, list) or len(names) != dim \
                or not all(isinstance(s, str) for s in names):
            raise InvalidInputError("basis_names must list one string per basis vector")
    if not isinstance(doc["brackets"], list):
        raise InvalidInputError("brackets must be a list")
    brackets = {}
    seen = set()
    for entry in doc["brackets"]:
        try:
            i, j, terms = entry
        except (TypeError, ValueError):
            raise InvalidInputError(f"malformed bracket entry {entry!r}")
        if not (_is_int(i) and _is_int(j)):
            raise InvalidInputError(f"bracket indices must be integers in {entry!r}")
        if not (0 <= i < dim and 0 <= j < dim):
            raise InvalidInputError(f"bracket indices ({i},{j}) out of range for dim {dim}")
        unordered = frozenset((i, j))
        if unordered in seen:
            raise InvalidInputError(f"duplicate unordered pair ({min(i, j)},{max(i, j)})")
        seen.add(unordered)
        if i >= j:
            raise InvalidInputError(
                f"bracket entry ({i},{j}) must be stored with i < j")
        if not isinstance(terms, list):
            raise InvalidInputError(f"terms of bracket ({i},{j}) must be a list")
        parsed = []
        for term in terms:
            try:
                k, coeff = term
            except (TypeError, ValueError):
                raise InvalidInputError(f"malformed coefficient term {term!r}")
            if not _is_int(k) or not 0 <= k < dim:
                raise InvalidInputError(f"coefficient index {k!r} out of range")
            if any(k == k2 for k2, _ in parsed):
                raise InvalidInputError(
                    f"duplicate coefficient index {k} in bracket ({i},{j})")
            if not isinstance(coeff, str):
                raise InvalidInputError(
                    f"coefficient for ({i},{j},{k}) must be an exact string")
            try:
                parsed.append((k, field.parse(coeff)))
            except ValueError as exc:
                raise InvalidInputError(str(exc)) from exc
        brackets[(i, j)] = parsed
    L = lie_algebra_from_brackets(field, dim, brackets, names=names)
    report = L.validate()
    if not report.ok:
        raise InvalidInputError(f"not a Lie algebra: {report.detail}")
    return L


def algebra_document(L: LieAlgebra) -> dict:
    """Canonical echo document for an algebra (inverse of parsing)."""
    brackets = []
    for i, row in enumerate(L.cells):
        for j in sorted(j for j in row if j > i):
            brackets.append([i, j, [[k, L.field.to_str(c)]
                                    for k, c in sorted(row[j].items())]])
    return {
        "field": L.field.descriptor(),
        "dim": L.dim,
        "basis_names": list(L.basis_names),
        "brackets": brackets,
    }


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def canonical_hash(doc: dict) -> str:
    """The sha256, in hex, of doc as compact JSON with sorted keys; reports
    carry it for their input section, so equal inputs hash equally.  The
    constructor is CPython's built-in SHA-256, which hashlib itself falls
    back to without OpenSSL; the digest is the same."""
    # import hashlib maps and initialises OpenSSL's libcrypto, about 3.5 MB
    # of peak RSS in every report command (verify --catalog 22.6 -> 19.1 MB
    # on Python 3.11); the built-in module maps nothing.
    try:
        from _sha256 import sha256      # CPython 3.10 and 3.11
    except ImportError:
        try:
            from _sha2 import sha256    # CPython 3.12 on
        except ImportError:
            from hashlib import sha256  # a build without them: maps OpenSSL
    packed = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                        ensure_ascii=True)
    return sha256(packed.encode("ascii")).hexdigest()


def emit_report(doc: dict, path: Optional[str] = None) -> None:
    text = canonical_json(doc)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def load_algebra(source: str,
                 field: Optional[Field] = None) -> tuple[LieAlgebra, str]:
    """Resolve a catalog name, over field (default Q), or a JSON document
    path, over the document's own field; a field given with a document is
    refused rather than dropped.

    Only a string that is a catalog name in full routes to the catalog, so a
    file such as heisenberg_copy.json is read as a document.
    """
    if is_catalog_name(source):
        return catalog(source, field or QQ), f"catalog:{source}"
    if field is not None:
        raise InvalidInputError(
            "--field applies to catalog names, not documents")
    try:
        with open(source, "rb") as fh:
            data = fh.read(MAX_DOCUMENT_BYTES + 1)
    except OSError as exc:
        raise InvalidInputError(
            f"{source!r} is neither a catalog algebra nor a readable "
            f"document: {exc}") from exc
    if len(data) > MAX_DOCUMENT_BYTES:
        raise InvalidInputError(f"{source} is longer than {MAX_DOCUMENT_BYTES} "
                                "bytes, the bound of the design envelope")
    try:
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except InvalidInputError:
        raise
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
        raise InvalidInputError(f"{source} is not valid JSON: {exc}") from exc
    return parse_algebra_document(doc), source


def _unique_keys(pairs: list) -> dict:
    """json.loads keeps the last value of a key repeated within one object;
    a document is read as written, so such a key is refused instead."""
    seen: set = set()
    for key, _ in pairs:
        if key in seen:
            raise InvalidInputError(
                f"key {key!r} is repeated within one JSON object")
        seen.add(key)
    return dict(pairs)


# ----------------------------------------------------------------------
# report assembly
# ----------------------------------------------------------------------

def _verdict_str(v: Verdict) -> str:
    return "pass" if v.ok else f"fail: {v.detail}"


def _failed(verdicts: dict) -> bool:
    """Whether any verdict is "fail: ..." (_verdict_str)."""
    return any(v.startswith("fail") for v in verdicts.values())


def _input_section(L: LieAlgebra, source: str) -> dict:
    doc = algebra_document(L)
    return {"document": doc, "hash": canonical_hash(doc), "source": source}


def _subspace_rows(space) -> list:
    field = space.field
    return [[field.to_str(x) for x in dense(row, space.ambient_dim, field.zero)]
            for row in space.sparse_rows]


def info_document(L: LieAlgebra, source: str) -> dict:
    report = L.validate()
    series = [s.dim for s in L.lower_central_series()]
    return {
        "command": "info",
        "input": _input_section(L, source),
        "validation": report.detail,
        "dimensions": {
            "algebra": L.dim,
            "derived": L.derived_subalgebra.dim,
            "center": L.center.dim,
        },
        "lower_central_series": series,
        "nilpotency_class": L.nilpotency_class(),
        "is_abelian": L.is_abelian,
        "timings": None,
    }


def tensor_document(L: LieAlgebra, source: str) -> dict:
    T = build_tensor_square(L)
    rep = tensor_report(T)
    return {
        "command": "tensor",
        "input": _input_section(L, source),
        "relation_dim": T.relation_space.dim,
        "dimensions": rep.dims,
        "verdicts": {k: _verdict_str(v) for k, v in rep.verdicts.items()},
        "diagnostics": rep.diagnostics,
        "subspaces": {k: _subspace_rows(s) for k, s in rep.subspaces.items()},
        "timings": None,
    }


def present_document(L: LieAlgebra, source: str) -> dict:
    P = presentation_of(L)
    mult = multiplier_via_presentation(P)
    F = P.free
    return {
        "command": "present",
        "input": _input_section(L, source),
        "free": {
            "generators": F.d,
            "class": F.c,
            "dim": F.algebra.dim,
            "layers": {str(k): v for k, v in F.layer_dims().items()},
            "hall_basis": list(F.algebra.basis_names),
        },
        "dimensions": {
            "relations": P.relations.dim,
            "relations_commutator": P.relations_commutator.dim,
            "relations_in_derived": P.relations.dim,  # R lies in F' (Hopf)
            "exterior_square": P.exterior.dim,  # presentation_of aligned F'
            "schur_multiplier": mult.dim,
        },
        "timings": None,
    }


def cover_document(L: LieAlgebra, source: str) -> dict:
    try:
        cover = build_cover(L)
    except TheoremViolationError as exc:
        dims = {}
        verdicts = {"defining_pair": f"fail: {exc}",
                    "cover_theorem": "skipped: cover construction failed"}
    else:
        dims = {"algebra": L.dim, "cover": cover.algebra.dim,
                "multiplier": cover.multiplier.dim,
                "cover_derived": cover.algebra.derived_subalgebra.dim}
        theorem = verify_cover_theorem(cover, build_tensor_square(L))
        verdicts = {"defining_pair": "pass",
                    "cover_theorem": _verdict_str(theorem)}
    return {"command": "cover", "input": _input_section(L, source),
            "dimensions": dims, "verdicts": verdicts, "timings": None}


def free_nilpotent_document(d: int, c: int, field: Field) -> dict:
    F = free_nilpotent(d, c, field)
    return {
        "command": "free-nilpotent",
        "generators": d,
        "class": c,
        "dim": F.algebra.dim,
        "layers": {str(k): v for k, v in F.layer_dims().items()},
        "document": algebra_document(F.algebra),
        "timings": None,
    }


def verify_document(L: LieAlgebra, source: str) -> dict:
    T = build_tensor_square(L)
    rep = tensor_report(T)
    verdicts = {k: _verdict_str(v) for k, v in rep.verdicts.items()}
    # build_cover takes every L; skipping the cover with the presentation
    # here is a report policy, pinned by the catalog report's digest.
    if not L.is_nilpotent:
        verdicts["cross_oracle"] = verdicts["cover"] = "skipped: not nilpotent"
    else:
        try:
            verdicts["cross_oracle"] = _verdict_str(_cross_oracle_verdict(L, T))
        except OutsideEnvelopeError as exc:
            verdicts["cross_oracle"] = f"skipped: {exc}"
        verdicts["cover"] = _verdict_str(_cover_verdict(L, T))
    return {
        "command": "verify",
        "input": _input_section(L, source),
        "dimensions": rep.dims,
        "verdicts": verdicts,
        "diagnostics": rep.diagnostics,
        "timings": None,
    }


def _cross_oracle_verdict(L: LieAlgebra, T) -> Verdict:
    try:
        P = presentation_of(L)
        exterior_via_presentation(P, T)
        mult = multiplier_via_presentation(P)
    except (TheoremViolationError, InternalCheckError) as exc:
        return Verdict(False, str(exc))
    # The exterior dims agree: exterior_via_presentation checked a bijection.
    mult_dim = T.schur_multiplier().dim
    if mult.dim != mult_dim:
        return Verdict(False,
                       f"multiplier dims disagree: {mult.dim} vs {mult_dim}")
    return Verdict(True)


def _cover_verdict(L: LieAlgebra, T) -> Verdict:
    try:
        return verify_cover_theorem(build_cover(L), T)
    except (TheoremViolationError, InternalCheckError) as exc:
        return Verdict(False, str(exc))


def catalog_document() -> dict:
    entries = []
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for name in CATALOG_SUITE:
        for field in SUITE_FIELDS:
            if not is_supported(name, field):
                entries.append({
                    "name": name,
                    "field": field.descriptor(),
                    "verdicts": {},
                    "status": f"skipped: {name} unsupported over {field.name}",
                })
                counts["skipped"] += 1
                continue
            L = catalog(name, field)
            doc = verify_document(L, f"catalog:{name}")
            status = "fail" if _failed(doc["verdicts"]) else "pass"
            counts[status] += 1
            entries.append({
                "name": name,
                "field": field.descriptor(),
                "input_hash": doc["input"]["hash"],
                "dimensions": doc["dimensions"],
                "verdicts": doc["verdicts"],
                "diagnostics": doc["diagnostics"],
                "status": status,
            })
    return {
        "command": "verify-catalog",
        "entries": entries,
        "summary": counts,
        "timings": None,
    }


# ----------------------------------------------------------------------
# argument handling
# ----------------------------------------------------------------------

# Arguments take ASCII digits only, as documents do: str.isdigit and int()
# also accept Arabic-Indic, fullwidth and other Unicode digits.

def _parse_field(text: Optional[str]) -> Field:
    if text is None or text in ("Q", "q"):
        return QQ
    raw = text[1:] if text[:1] in ("F", "f") else text
    if not (raw.isascii() and raw.isdigit()):
        raise InvalidInputError(f"unrecognized field {text!r} (use Q or a prime)")
    try:
        return field_from_descriptor({"Fp": int(raw)})
    except ValueError as exc:
        raise InvalidInputError(str(exc))


def _integer(text: str) -> int:
    """argparse type of -d and -c: an optional minus sign and ASCII digits."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lietensor",
        description="Exact tensor squares, Schur multipliers and covers of "
                    "finite-dimensional Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_algebra=True):
        if with_algebra:
            p.add_argument("algebra",
                           help="catalog name (e.g. heisenberg(2), sl2, "
                                "abelian(3), heisenberg(1)+abelian(1)) or a "
                                "path to a JSON algebra document")
            p.add_argument("--field",
                           help="coefficient field for catalog names: Q or a "
                                "prime p (default Q)")
        p.add_argument("--out", default=None, help="write the report here "
                                                   "instead of stdout")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the report "
                            "(reports are then no longer byte-reproducible)")

    add_common(sub.add_parser("info", help="validate and report basic invariants"))
    add_common(sub.add_parser("tensor", help="full tensor-square report"))
    add_common(sub.add_parser("present", help="free presentation objects"))
    add_common(sub.add_parser("cover", help="build and verify a cover"))

    fn = sub.add_parser("free-nilpotent",
                        help="free nilpotent algebra on a Hall basis")
    fn.add_argument("-d", type=_integer, required=True, help="generator count")
    fn.add_argument("-c", type=_integer, required=True, help="nilpotency class")
    fn.add_argument("--field")
    add_common(fn, with_algebra=False)

    ver = sub.add_parser("verify", help="run every theorem check")
    ver.add_argument("algebra", nargs="?",
                     help="catalog name or JSON document path")
    ver.add_argument("--field")
    ver.add_argument("--catalog", action="store_true",
                     help="verify the whole built-in catalog over Q and "
                          "GF(2), GF(3), GF(5)")
    add_common(ver, with_algebra=False)
    return parser


def _exit_code(doc: dict) -> int:
    if doc["command"] == "verify-catalog":
        return 1 if doc["summary"]["fail"] else 0
    return 1 if _failed(doc.get("verdicts", {})) else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "free-nilpotent":
            if args.d < 0 or args.c < 1:
                raise InvalidInputError("need -d >= 0 and -c >= 1")
            if args.c > MAX_AMBIENT:
                raise InvalidInputError(
                    f"class {args.c} is above {MAX_AMBIENT}, outside the "
                    f"design envelope")
            if dimension_exceeds(args.d, args.c, MAX_AMBIENT):
                raise InvalidInputError(
                    f"free nilpotent algebra (d={args.d}, c={args.c}) has more "
                    f"than {MAX_AMBIENT} dimensions, outside the design envelope")
            doc = free_nilpotent_document(args.d, args.c,
                                          _parse_field(args.field))
        elif args.command == "verify" and args.catalog:
            if args.algebra is not None or args.field is not None:
                raise InvalidInputError(
                    "--catalog runs its own algebras and fields; it takes "
                    "no algebra and no --field")
            doc = catalog_document()
        else:
            if args.command == "verify" and not args.algebra:
                raise InvalidInputError("verify needs an algebra or --catalog")
            L, source = load_algebra(args.algebra, None if args.field is None
                                     else _parse_field(args.field))
            builder = {
                "info": info_document,
                "tensor": tensor_document,
                "present": present_document,
                "cover": cover_document,
                "verify": verify_document,
            }[args.command]
            doc = builder(L, source)
    except (InvalidInputError, NotNilpotentError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except (TheoremViolationError, InternalCheckError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    if args.timings:
        doc["timings"] = {"total_seconds": round(time.perf_counter() - started, 6)}
    try:
        emit_report(doc, args.out)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2
    return _exit_code(doc)


if __name__ == "__main__":
    sys.exit(main())
