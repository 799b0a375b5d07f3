"""Every name that a package module imports is used in that module.  No
linter runs in CI, and a removal can leave an import behind; this stdlib
ast check catches it in tier-1.  Importing the package loads no stdlib
module that only code generation or introspection needs, and importing
the CLI loads hashlib only when a report is hashed.  And every batch
of vectors is spanned through linalg.span: no other function builds a
SpanBuilder or reads one's rows, and no other function writes a
Subspace's echelon rows by hand."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lietensor"


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of a module that it never reads; a
    name listed in __all__ is read, as a re-export."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom typing import Optional, Sequence\n"
              "from .linalg import kernel as k, rref\n"
              "__all__ = ['rref']\n"
              "def f(x: Sequence) -> int:\n    return os.sep\n")
    assert unused_imports(source) == ["Optional", "k"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def loaded_modules(code: str) -> set[str]:
    """The modules loaded after running code in a fresh interpreter that has
    this checkout's package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, and @dataclass
    # generates and execs its methods: together over a third of the time
    # "import lietensor" took.  The value types declare their fields and
    # take their methods from errors.Immutable, which writes them once.
    added = loaded_modules("import lietensor") - loaded_modules("")
    assert "lietensor.presentation" in added
    assert not {"dataclasses", "inspect"} & added, sorted(added)


def test_the_cli_loads_hashlib_only_to_hash_a_report():
    # import hashlib maps and initialises OpenSSL's libcrypto, about 3.6 MB
    # of resident memory; only canonical_hash needs it.
    added = loaded_modules("import lietensor.cli") - \
        loaded_modules("import lietensor")
    assert "lietensor.cli" in added
    assert not {"hashlib", "_hashlib"} & added, sorted(added)
    doc = {"field": {"Fp": 5}, "brackets": [[0, 1, [[2, "1/2"]]]], "dim": 3}
    packed = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert packed == ('{"brackets":[[0,1,[[2,"1/2"]]]],"dim":3,'
                      '"field":{"Fp":5}}')
    expected = hashlib.sha256(packed.encode("ascii")).hexdigest()
    hashed = loaded_modules(
        "from lietensor import cli\n"
        f"assert cli.canonical_hash({doc!r}) == {expected!r}")
    assert "hashlib" in hashed


# The one function that may build a SpanBuilder or read its rows:
# linalg.span, the batch elimination call, which hands the rows to the
# Subspace it returns.
BUILDERS = {("linalg", "span")}


def elimination_outside_span(source: str, module: str) -> list[str]:
    """Each place in a module, as "scope: what", that builds a SpanBuilder
    in a function other than BUILDERS, or reads ._rows outside them and
    the methods of SpanBuilder."""
    found = []

    def visit(node, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            where = ".".join(scope) or "<module>"
            if isinstance(child, ast.Call) and getattr(
                    child.func, "id", getattr(child.func, "attr", None)) \
                    == "SpanBuilder" and (module, where) not in BUILDERS:
                found.append(f"{where}: SpanBuilder(")
            if isinstance(child, ast.Attribute) and child.attr == "_rows" \
                    and scope[:1] != ("SpanBuilder",) \
                    and (module, where) not in BUILDERS:
                found.append(f"{where}: ._rows")
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
            else:
                visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_the_check_finds_a_builder_outside_span():
    source = ("class SpanBuilder:\n"
              "    def reduce(self, v):\n        return self._rows\n"
              "def span(field, n, vs):\n    return SpanBuilder(field, n)._rows\n"
              "def kernel(m):\n    b = linalg.SpanBuilder(m.field, m.cols)\n"
              "    return b._rows\n"
              "class Subspace:\n    def reduce(self, v):\n"
              "        return self._rows\n")
    assert elimination_outside_span(source, "linalg") == [
        "kernel: SpanBuilder(", "kernel: ._rows", "Subspace.reduce: ._rows"]
    assert elimination_outside_span(source, "tensor")[:2] == [
        "span: ._rows", "span: SpanBuilder("]


def test_every_batch_is_spanned_through_linalg_span():
    found = {path.stem: elimination_outside_span(
        path.read_text(encoding="utf-8"), path.stem)
        for path in sorted(PACKAGE.glob("*.py"))}
    assert {"linalg", "liealg", "tensor", "presentation"} <= set(found)
    assert {module: f for module, f in found.items() if f} == {}


# The functions that may construct a Subspace: span hands over its
# builder's echelon rows, second_part shifts echelon rows that a span
# returned, and the zero and full spaces need no elimination.
SUBSPACE_MAKERS = {("linalg", "span"),
                   ("linalg", "second_part"),
                   ("linalg", "Subspace.zero_space"),
                   ("linalg", "Subspace.full_space")}


def subspaces_built_by_hand(source: str, module: str) -> list[str]:
    """Each place in a module, as "scope: what", outside SUBSPACE_MAKERS
    that calls Subspace(...), or cls(...) in a method of Subspace."""
    found = []

    def visit(node, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            where = ".".join(scope) or "<module>"
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id",
                               getattr(child.func, "attr", None))
                if (name == "Subspace" or name == "cls"
                        and scope[:1] == ("Subspace",)) \
                        and (module, where) not in SUBSPACE_MAKERS:
                    found.append(f"{where}: {name}(")
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
            else:
                visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_the_check_finds_a_subspace_built_by_hand():
    source = ("class Subspace:\n"
              "    @classmethod\n"
              "    def zero_space(cls, field, n):\n"
              "        return cls(field, n, (), ())\n"
              "    @classmethod\n"
              "    def of_rows(cls, field, n, rows):\n"
              "        return cls(field, n, tuple(rows), rows)\n"
              "class Matrix:\n"
              "    @classmethod\n"
              "    def zero(cls, field, n):\n"
              "        return cls(field, n, n, ())\n"
              "def second_part(space, split):\n"
              "    return Subspace(space.field, 0, (), ())\n"
              "def _subspace(field, n, rows):\n"
              "    return linalg.Subspace(field, n, tuple(rows), rows)\n")
    assert subspaces_built_by_hand(source, "linalg") == [
        "Subspace.of_rows: cls(", "_subspace: Subspace("]
    assert subspaces_built_by_hand(source, "tensor")[-2:] == [
        "second_part: Subspace(", "_subspace: Subspace("]


def test_only_spans_and_their_second_parts_construct_a_subspace():
    found = {path.stem: subspaces_built_by_hand(
        path.read_text(encoding="utf-8"), path.stem)
        for path in sorted(PACKAGE.glob("*.py"))}
    assert {"linalg", "liealg", "tensor", "presentation"} <= set(found)
    assert {module: f for module, f in found.items() if f} == {}
