"""Every name that a package module imports is used in that module.  No
linter runs in CI, and a removal can leave an import behind; this stdlib
ast check catches it in tier-1.  Importing the package loads no stdlib
module that only code generation or introspection needs, and no command
loads hashlib: reports hash with CPython's built-in SHA-256, so OpenSSL
is never mapped, and the fallback chain to hashlib still gives the same
digest.  And every batch of vectors is spanned through linalg.span: no
other function builds a SpanBuilder or reads one's rows, and no other
function writes a Subspace's echelon rows by hand.  No method of a class
assigns an attribute of self, save in the span builder and one exception:
every other class is a value type on errors.Immutable.  The package computes
on sparse vectors: a function whose signature names a dense vector is a
benchmark tracer target or on a named allowlist.  A cached value has one
name: no method only returns a cached property of its class, save the few
that the benchmark calls.  And x^y is formed in one place,
TensorSquare.exterior_pairing: no module but tensor reads a .pairing
attribute or the projection onto the exterior square.  Elimination's row
layout stays in linalg: no other module names the second-block shift
_second_part, and the CI steps read spans through the tests' observer, not
SpanBuilder's internals."""

import ast
import hashlib
import importlib.util
import json
import os
import re
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


OPENSSL_MODULES = {"hashlib", "_hashlib", "_blake2"}
HASHED_DOC = {"field": {"Fp": 5}, "brackets": [[0, 1, [[2, "1/2"]]]], "dim": 3}


def test_no_command_loads_openssl():
    # import hashlib maps and initialises OpenSSL's libcrypto and loads
    # _blake2, about 3.5 MB of peak RSS; canonical_hash uses the built-in
    # SHA-256 instead, so neither importing the CLI nor a report loads it.
    added = loaded_modules("import lietensor.cli") - \
        loaded_modules("import lietensor")
    assert "lietensor.cli" in added
    assert not OPENSSL_MODULES & added, sorted(added)
    packed = json.dumps(HASHED_DOC, sort_keys=True, separators=(",", ":"))
    assert packed == ('{"brackets":[[0,1,[[2,"1/2"]]]],"dim":3,'
                      '"field":{"Fp":5}}')
    expected = hashlib.sha256(packed.encode("ascii")).hexdigest()
    hashed = loaded_modules(
        "from lietensor import cli\n"
        f"assert cli.canonical_hash({HASHED_DOC!r}) == {expected!r}")
    assert not OPENSSL_MODULES & hashed, sorted(OPENSSL_MODULES & hashed)
    verified = loaded_modules(
        "import contextlib, io\nfrom lietensor import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', 'heisenberg(1)']) == 0")
    assert "lietensor.presentation" in verified
    assert not OPENSSL_MODULES & verified, sorted(OPENSSL_MODULES & verified)


@pytest.mark.parametrize("blocked", [(), ("_sha256",), ("_sha256", "_sha2")],
                         ids=["none", "_sha256", "both"])
def test_the_hash_falls_back_to_the_same_digest(blocked):
    # A None entry in sys.modules makes an import of that name fail, as on a
    # build without the module.  _sha256 is CPython 3.10 and 3.11's, _sha2
    # is 3.12's on, and hashlib is the last resort.
    packed = json.dumps(HASHED_DOC, sort_keys=True, separators=(",", ":"))
    expected = hashlib.sha256(packed.encode("ascii")).hexdigest()
    hashed = loaded_modules(
        "import sys\n"
        f"for name in {blocked!r}:\n    sys.modules[name] = None\n"
        "from lietensor import cli\n"
        f"assert cli.canonical_hash({HASHED_DOC!r}) == {expected!r}")
    built_in = [name for name in ("_sha256", "_sha2")
                if name not in blocked and importlib.util.find_spec(name)]
    if not blocked:
        assert built_in, "this interpreter has no built-in SHA-256"
    assert ("hashlib" in hashed) == (not built_in)
    assert not built_in or built_in[0] in hashed


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
# builder's echelon rows, _second_part shifts echelon rows that a span
# returned, and the full space needs no elimination.
SUBSPACE_MAKERS = {("linalg", "span"),
                   ("linalg", "_second_part"),
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
              "    def full_space(cls, field, n):\n"
              "        return cls(field, n, tuple(range(n)), ())\n"
              "    @classmethod\n"
              "    def of_rows(cls, field, n, rows):\n"
              "        return cls(field, n, tuple(rows), rows)\n"
              "class Matrix:\n"
              "    @classmethod\n"
              "    def zero(cls, field, n):\n"
              "        return cls(field, n, n, ())\n"
              "def _second_part(space, split):\n"
              "    return Subspace(space.field, 0, (), ())\n"
              "def _subspace(field, n, rows):\n"
              "    return linalg.Subspace(field, n, tuple(rows), rows)\n")
    assert subspaces_built_by_hand(source, "linalg") == [
        "Subspace.of_rows: cls(", "_subspace: Subspace("]
    assert subspaces_built_by_hand(source, "tensor")[-2:] == [
        "_second_part: Subspace(", "_subspace: Subspace("]


def test_only_spans_and_their_second_parts_construct_a_subspace():
    found = {path.stem: subspaces_built_by_hand(
        path.read_text(encoding="utf-8"), path.stem)
        for path in sorted(PACKAGE.glob("*.py"))}
    assert {"linalg", "liealg", "tensor", "presentation"} <= set(found)
    assert {module: f for module, f in found.items() if f} == {}


# The classes whose methods may assign an attribute of self: the span
# builder, mutable by design, and an exception that carries its witness.
# Every other class is a value type whose fields errors.Immutable sets once.
MUTABLE_CLASSES = {("linalg", "SpanBuilder"), ("errors", "NotIdealError")}


def assigned_names(target):
    """The targets that an assignment binds, through tuple unpacking."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from assigned_names(element)
    elif isinstance(target, ast.Starred):
        yield from assigned_names(target.value)
    else:
        yield target


def assignments_to_self(source: str, module: str) -> list[str]:
    """Each place in a module, as "Class.method: self.name", where a method
    of a class outside MUTABLE_CLASSES assigns an attribute of self."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef) \
                or (module, cls.name) in MUTABLE_CLASSES:
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                found.extend(
                    f"{cls.name}.{method.name}: self.{t.attr}"
                    for target in targets for t in assigned_names(target)
                    if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name) and t.value.id == "self")
    return found


def test_the_check_finds_an_assignment_to_self():
    source = ("class SpanBuilder:\n"
              "    def __init__(self, field):\n"
              "        self.field = field\n"
              "class Square:\n"
              "    def __init__(self, base, pairing):\n"
              "        self.base = base\n"
              "        self.pairing, n = pairing, 0\n"
              "    def grow(self, other):\n"
              "        self.dim += 1\n"
              "        self.cache: dict = {}\n"
              "        self.rows[0] = other.rows[0]\n"
              "        other.base = self.base\n"
              "        return n\n")
    assert assignments_to_self(source, "linalg") == [
        "Square.__init__: self.base", "Square.__init__: self.pairing",
        "Square.grow: self.dim", "Square.grow: self.cache"]
    assert assignments_to_self(source, "tensor")[0] == \
        "SpanBuilder.__init__: self.field"


def test_only_the_span_builder_and_an_exception_assign_to_self():
    found = {path.stem: assignments_to_self(
        path.read_text(encoding="utf-8"), path.stem)
        for path in sorted(PACKAGE.glob("*.py"))}
    assert {"errors", "linalg", "liealg", "tensor", "presentation"} \
        <= set(found)
    assert {module: f for module, f in found.items() if f} == {}

# The functions outside the benchmark tracer's targets that may take or
# return a dense vector, each with its reason.
DENSE_ALLOWED = {
    ("linalg", "dense"): "the converter from a sparse vector",
    ("linalg", "sparse"): "the converter to a sparse vector",
    ("liealg", "ideal_closure"): "perfbench/gen_inputs.py imports it",
    ("tensor", "WhiteheadGamma.quadratic"): "the quadratic functor's public map",
}


def names_a_dense_vector(annotation) -> bool:
    """Whether an annotation mentions Vector or Sequence[Scalar]."""
    return any(isinstance(node, ast.Name) and node.id == "Vector"
               or isinstance(node, ast.Subscript)
               and getattr(node.value, "id", None) == "Sequence"
               and getattr(node.slice, "id", None) == "Scalar"
               for node in ast.walk(annotation))


def dense_signatures(source: str, module: str, allowed) -> list[str]:
    """Each def of a module, as its qualified name, whose annotations name
    a dense vector and which is not in allowed, a set of (module, name)."""
    found = []

    def visit(node, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = ".".join(scope + (child.name,))
                if isinstance(child, ast.FunctionDef):
                    args = child.args
                    annotations = [a.annotation for a in (
                        args.posonlyargs + args.args + args.kwonlyargs)
                        if a.annotation] + [child.returns]
                    if any(a is not None and names_a_dense_vector(a)
                           for a in annotations) \
                            and (module, name) not in allowed:
                        found.append(name)
                visit(child, scope + (child.name,))
            else:
                visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_the_check_finds_a_dense_signature():
    source = ("class LieAlgebra:\n"
              "    def table(self) -> tuple[tuple[Vector, ...], ...]:\n"
              "        def cell(j: int) -> Vector:\n            pass\n"
              "    def bracket(self, u: Sequence[Scalar], v) -> Vector:\n"
              "        pass\n"
              "    def bracket_sparse(self, u: SparseVector) -> SparseVector:\n"
              "        pass\n"
              "def closure(L, vs: Sequence[Sequence[Scalar]]) -> Subspace:\n"
              "    pass\n"
              "def dense(v: SparseVector, n: int) -> Vector:\n    pass\n")
    allowed = {("liealg", "LieAlgebra.bracket"), ("liealg", "dense")}
    assert dense_signatures(source, "liealg", allowed) == [
        "LieAlgebra.table", "LieAlgebra.table.cell", "closure"]
    assert dense_signatures(source, "linalg", allowed) == [
        "LieAlgebra.table", "LieAlgebra.table.cell", "LieAlgebra.bracket",
        "closure", "dense"]


def test_only_tracer_targets_and_the_allowlist_take_dense_vectors():
    # The benchmark tracer patches its targets, so they stay until the
    # benchmark stops naming them; every other function computes sparse.
    from test_demos import _benchmark_table
    allowed = {(module, attr) for module, attr, _ in
               _benchmark_table("TARGETS")} | set(DENSE_ALLOWED)
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    found = {module: dense_signatures(source, module, allowed)
             for module, source in sources.items()}
    assert {"linalg", "liealg", "tensor"} <= set(found)
    assert {module: f for module, f in found.items() if f} == {}
    # No allowlist entry outlives its function.
    every = {(module, name) for module, source in sources.items()
             for name in dense_signatures(source, module, set())}
    assert set(DENSE_ALLOWED) <= every


# The methods that may only return a cached property of their own class,
# each with the benchmark file that calls it with call syntax.
PASS_THROUGH_ALLOWED = {
    ("liealg", "LieAlgebra.lower_central_series"): "perfbench/gen_inputs.py calls it",
    ("tensor", "TensorSquare.exterior_square"): "perfbench/worker.py calls it",
    ("tensor", "TensorSquare.schur_multiplier"): "perfbench/worker.py calls it",
}


def is_cached_property(node) -> bool:
    return any(getattr(d, "id", getattr(d, "attr", None)) == "cached_property"
               for d in node.decorator_list)


def pass_through_methods(source: str, module: str, allowed) -> list[str]:
    """Each method of a module, as "Class.method", whose body, docstring
    aside, is only return self.<name> for a cached property <name> of its
    class, and which is not in allowed, a set of (module, name)."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = [m for m in cls.body if isinstance(m, ast.FunctionDef)]
        cached = {m.name for m in methods if is_cached_property(m)}
        for method in methods:
            body = method.body[ast.get_docstring(method) is not None:]
            value = body[0].value if len(body) == 1 \
                and isinstance(body[0], ast.Return) else None
            name = f"{cls.name}.{method.name}"
            if isinstance(value, ast.Attribute) \
                    and getattr(value.value, "id", None) == "self" \
                    and value.attr in cached and (module, name) not in allowed:
                found.append(name)
    return found


def test_the_check_finds_a_pass_through_method():
    source = ("class Square:\n"
              "    @cached_property\n"
              "    def _center(self):\n        return 0\n"
              "    @functools.cached_property\n"
              "    def _series(self):\n        return ()\n"
              "    @property\n"
              "    def dim(self):\n        return 0\n"
              "    def center(self):\n        return self._center\n"
              "    def series(self):\n        \"Cached.\"\n"
              "        return self._series\n"
              "    def size(self):\n        return self.dim\n"
              "    def rank(self):\n        return self._center.dim\n"
              "    def twice(self):\n        x = 1\n        return self._center\n"
              "    def stub(self):\n        \"Nothing.\"\n"
              "class Other:\n"
              "    def center(self, T):\n        return self._center\n")
    assert pass_through_methods(source, "tensor", set()) == [
        "Square.center", "Square.series"]
    assert pass_through_methods(source, "tensor", {("tensor", "Square.series")}) \
        == ["Square.center"]


def test_no_method_only_returns_a_cached_property():
    # A cached value is read under one name; the allowlisted methods stay
    # while the benchmark calls them.
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    found = {module: pass_through_methods(source, module, set(PASS_THROUGH_ALLOWED))
             for module, source in sources.items()}
    assert {"liealg", "tensor"} <= set(found)
    assert {module: f for module, f in found.items() if f} == {}
    # No allowlist entry outlives its method.
    every = {(module, name) for module, source in sources.items()
             for name in pass_through_methods(source, module, set())}
    assert set(PASS_THROUGH_ALLOWED) <= every


# The one module that may read a .pairing attribute or the projection
# exterior_square()[1]: tensor, where TensorSquare.exterior_pairing forms
# x^y.  Every other module reads exterior_pairing.
WEDGE_MODULES = {"tensor"}


def wedges_formed_outside_tensor(source: str, module: str) -> list[str]:
    """Each place in a module outside WEDGE_MODULES, as "line: what", that
    reads a .pairing attribute, or takes more of exterior_square() than its
    first element: an index other than 0, or an unpacking."""
    if module in WEDGE_MODULES:
        return []

    def exterior_call(node) -> bool:
        return isinstance(node, ast.Call) and getattr(
            node.func, "attr", getattr(node.func, "id", None)) \
            == "exterior_square"

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "pairing":
            found.append((node.lineno, ".pairing"))
        elif isinstance(node, ast.Subscript) and exterior_call(node.value) \
                and not (isinstance(node.slice, ast.Constant)
                         and node.slice.value == 0):
            found.append((node.lineno, "exterior_square()[...]"))
        elif isinstance(node, (ast.Assign, ast.For, ast.comprehension)) \
                and exterior_call(getattr(node, "value", None)
                                  or getattr(node, "iter", None)):
            found.append((node.lineno, "unpacks exterior_square()"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_the_check_finds_a_wedge_formed_outside_tensor():
    source = ("def f(T, P):\n"
              "    ext, proj = T.exterior_square()\n"
              "    cells = T.pairing.cells\n"
              "    alg = T.exterior_square()[0]\n"
              "    proj = T.exterior_square()[1]\n"
              "    wedge = T.exterior_pairing\n"
              "    for x in T.exterior_square():\n"
              "        pass\n"
              "    return P.free.pairing, exterior_square()[-1:]\n")
    assert wedges_formed_outside_tensor(source, "presentation") == [
        "2: unpacks exterior_square()", "3: .pairing",
        "5: exterior_square()[...]", "7: unpacks exterior_square()",
        "9: .pairing", "9: exterior_square()[...]"]
    assert wedges_formed_outside_tensor(source, "tensor") == []


def test_x_wedge_y_is_formed_only_in_tensor():
    found = {path.stem: wedges_formed_outside_tensor(
        path.read_text(encoding="utf-8"), path.stem)
        for path in sorted(PACKAGE.glob("*.py"))}
    assert {"tensor", "presentation", "cli"} <= set(found)
    assert {module: f for module, f in found.items() if f} == {}


# The one module that may name the second-block shift: linalg, where kernel
# and subspace_intersect read the rows of a span from a split on.  Every
# other module reads a subspace where it lies, as verify_cover_theorem
# reads ker pi on the cover's positions.
SHIFT_MODULES = {"linalg"}
SHIFT_NAMES = {"second_part", "_second_part"}


def shift_names(source: str, module: str) -> list[str]:
    """Each place in a module outside SHIFT_MODULES, as "scope: name", that
    names second_part or _second_part: a name, an attribute, an imported
    name or a def."""
    if module in SHIFT_MODULES:
        return []
    found = []

    def visit(node, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            where = ".".join(scope) or "<module>"
            name = getattr(child, "id", None) or getattr(child, "attr", None) \
                or getattr(child, "name", None)
            if name in SHIFT_NAMES:
                found.append(f"{where}: {name}")
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
            else:
                visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_the_check_finds_a_name_of_the_shift():
    source = ("from .linalg import kernel, second_part\n"
              "class P:\n"
              "    def exterior(self):\n"
              "        return linalg._second_part(self.rf, self.d)\n"
              "    def second_part(self):\n"
              "        return self.rf.second_part_count\n"
              "def verify_cover_theorem(cover):\n"
              "    rows = second_part(cover.m, cover.d).sparse_rows\n")
    assert shift_names(source, "presentation") == [
        "<module>: second_part", "P.exterior: _second_part",
        "P: second_part", "verify_cover_theorem: second_part"]
    assert shift_names(source, "linalg") == []


def test_only_linalg_names_the_second_block_shift():
    found = {path.stem: shift_names(path.read_text(encoding="utf-8"),
                                    path.stem)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {"linalg", "presentation", "tensor"} <= set(found)
    assert {module: f for module, f in found.items() if f} == {}
    # Inside linalg, only kernel and subspace_intersect call the shift.
    linalg = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    assert sorted(node.name for node in linalg.body
                  if isinstance(node, ast.FunctionDef)
                  and any(getattr(call.func, "id", None) == "_second_part"
                          for call in ast.walk(node)
                          if isinstance(call, ast.Call))) == \
        ["kernel", "subspace_intersect"]


WORKFLOW = PACKAGE.parent.parent / ".github" / "workflows" / "tier1.yml"
# SpanBuilder's internals as a CI step would name them: an attribute of the
# class, or the column set that decides the back-reduction scan.
BUILDER_INTERNALS = re.compile(r"SpanBuilder\.|\b_columns\b")


def steps_naming_builder_internals(workflow: str) -> list[str]:
    """The names of the workflow steps, in order, whose lines name a
    SpanBuilder internal; tests/support.py's elimination_log is where a
    step reads spans, inserts and scans."""
    found, step = [], None
    for line in workflow.splitlines():
        name = re.match(r"\s*- name: (.*)", line)
        if name:
            step = name.group(1)
        elif step and BUILDER_INTERNALS.search(line) and step not in found:
            found.append(step)
    return found


def test_the_check_finds_a_step_that_patches_the_builder():
    workflow = ("    steps:\n"
                "      - name: Counts\n"
                "        run: |\n"
                "          insert = linalg.SpanBuilder.insert\n"
                "          scan = min(out) in self._columns\n"
                "      - name: Sizes\n"
                "        run: echo m.sparse_columns SpanBuilder\n"
                "      - name: Scans\n"
                "        run: python -c 'print(b._columns)'\n")
    assert steps_naming_builder_internals(workflow) == ["Counts", "Scans"]


def test_no_ci_step_names_span_builder_internals():
    workflow = WORKFLOW.read_text(encoding="utf-8")
    assert "elimination_log" in workflow
    assert steps_naming_builder_internals(workflow) == []
