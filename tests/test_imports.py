"""Every name that a package module imports is used in that module.  No
linter runs in CI, and a removal can leave an import behind; this stdlib
ast check catches it in tier-1.  Importing the package loads no stdlib
module that only code generation or introspection needs, and no command
loads hashlib: reports hash with CPython's built-in SHA-256, so OpenSSL
is never mapped, and the fallback chain to hashlib still gives the same
digest.

The package's design decisions are rows of one table, RULES: each row
names a construct, the places where it may appear and why, so that the
decision is written once; one walker checks every row against the package
and against the row's own snippet."""

import ast
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from fnmatch import fnmatchcase
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import pytest

from test_demos import _benchmark_table

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


# A row of RULES.  A place is "module.scope", the scope being the innermost
# def or class around a construct (a def's own) or <module>, and a workflow
# line's is "tier1.<step>"; a finding reads "scope:line: construct".
class Rule(NamedTuple):
    kind: str  # a branch of constructs, or "workflow" for tier1.yml's lines
    target: str  # a regular expression for what the kind names
    allowed: tuple[str, ...]  # fnmatch patterns of places
    reason: str
    snippet: str
    flags: dict[str, list[str]]  # module: the findings on the snippet


def constructs(rule: Rule, scope: str, node, parent) -> list[str]:
    """The constructs of the rule's kind that a node is, as its findings
    name them; the comment at each kind says what the target must match."""
    kind = rule.kind
    name = getattr(node.func, "id", getattr(node.func, "attr", None)) \
        if isinstance(node, ast.Call) else None  # f( or obj.f(

    def hit(text) -> bool:
        return bool(text) and re.fullmatch(rule.target, text) is not None

    if kind == "call":  # the callee; for cls in a method, its outer class
        return [f"{name}("] if hit(scope.split(".")[0] if name == "cls"
                                   else name) else []
    if kind == "attribute":  # the attribute
        return [f".{node.attr}"] if isinstance(node, ast.Attribute) \
            and hit(node.attr) else []
    if kind == "name":  # a name, attribute, imported name or def
        name = getattr(node, "id", None) or getattr(node, "attr", None) \
            or getattr(node, "name", None)
        return [name] if hit(name) else []
    if kind == "self":  # an attribute of self that is assigned to
        return [f"self.{node.attr}"] if isinstance(node, ast.Attribute) \
            and isinstance(node.ctx, ast.Store) and hit(node.attr) \
            and getattr(node.value, "id", None) == "self" else []
    if kind == "dense":  # a part of a def's argument or return annotation
        if not isinstance(node, ast.FunctionDef):
            return []
        args = node.args
        annotations = [a.annotation for a in args.posonlyargs + args.args
                       + args.kwonlyargs] + [node.returns]
        return [text for a in annotations if a for text in map(
            ast.unparse, ast.walk(a)) if hit(text)][:1]
    if kind == "pass-through":  # a decorator of the method it returns
        # A method whose body, docstring aside, is only return self.<name>.
        if not (isinstance(node, ast.FunctionDef)
                and isinstance(parent, ast.ClassDef)):
            return []
        decorated = {m.name for m in parent.body
                     if isinstance(m, ast.FunctionDef) and any(hit(getattr(
                         d, "id", getattr(d, "attr", None)))
                         for d in m.decorator_list)}
        body = node.body[ast.get_docstring(node) is not None:]
        value = body[0].value if len(body) == 1 \
            and isinstance(body[0], ast.Return) else None
        return [f"return self.{value.attr}"] \
            if isinstance(value, ast.Attribute) and value.attr in decorated \
            and getattr(value.value, "id", None) == "self" else []
    if kind == "projection":  # the callee, indexed past 0 or unpacked
        if not hit(name):
            return []
        if isinstance(parent, ast.Subscript) and node is parent.value:
            first = isinstance(parent.slice, ast.Constant) \
                and parent.slice.value == 0
            return [] if first else [f"{name}()[...]"]
        return [f"unpacks {name}()"] if node is getattr(parent, "iter", None) \
            or isinstance(parent, ast.Assign) and node is parent.value else []
    raise ValueError(f"no kind {kind!r}")


def scoped(node, scope: tuple[str, ...] = ()):
    """Each node below node, depth first, as (scope, node, parent)."""
    for child in ast.iter_child_nodes(node):
        inner = scope + (child.name,) if isinstance(
            child, (ast.FunctionDef, ast.ClassDef)) else scope
        yield ".".join(inner) or "<module>", child, node
        yield from scoped(child, inner)


@lru_cache(maxsize=None)
def parsed(source: str) -> tuple:
    """scoped over a module's source, which every rule reads."""
    return tuple(scoped(ast.parse(source)))


def places(rule: Rule, source: str, module: str):
    """Each (scope, line, construct) that a rule matches in a module's
    source, or in the workflow's text for a workflow rule."""
    if rule.kind == "workflow":
        step = None
        for line, text in enumerate(source.splitlines(), 1):
            name = re.match(r"\s*- name: (.*)", text)
            if name:
                step = name.group(1)
            elif step and (found := re.search(rule.target, text)):
                yield step, line, found.group()
        return
    for scope, node, parent in parsed(source):
        for what in constructs(rule, scope, node, parent):
            yield scope, node.lineno, what


def findings(rule: Rule, source: str, module: str) -> list[str]:
    """The places a rule matches in a module outside its allowed ones."""
    return [f"{scope}:{line}: {what}"
            for scope, line, what in places(rule, source, module)
            if not any(fnmatchcase(f"{module}.{scope}", pattern)
                       for pattern in rule.allowed)]


BUILDER = ("class SpanBuilder:\n    def reduce(self, v): return self._rows\n"
           "def span(field, n, vs): return SpanBuilder(field, n)._rows\n"
           "def kernel(m):\n    b = linalg.SpanBuilder(m.field, m.cols)\n"
           "    return b._rows\n"
           "class Subspace:\n    def reduce(self, v): return self._rows\n")
SUBSPACE = ("class Subspace:\n    @classmethod\n"
            "    def full_space(cls, field, n):\n"
            "        return cls(field, n, tuple(range(n)), ())\n"
            "    @classmethod\n    def of_rows(cls, field, n, rows):\n"
            "        return cls(field, n, tuple(rows), rows)\n"
            "class Matrix:\n    @classmethod\n    def zero(cls, field, n):\n"
            "        return cls(field, n, n, ())\n"
            "def _second_part(space, split):\n"
            "    return Subspace(space.field, 0, (), ())\n"
            "def _subspace(field, n, rows):\n"
            "    return linalg.Subspace(field, n, tuple(rows), rows)\n")
WEDGE = ("def f(T, P):\n    ext, proj = T.exterior_square()\n"
         "    cells = T.pairing.cells\n    alg = T.exterior_square()[0]\n"
         "    proj = T.exterior_square()[1]\n    wedge = T.exterior_pairing\n"
         "    for x in T.exterior_square():\n        pass\n"
         "    return P.free.pairing, exterior_square()[-1:]\n")
SHIFT = ("from .linalg import kernel, second_part\n"
         "class P:\n    def exterior(self):\n"
         "        return linalg._second_part(self.rf, self.d)\n"
         "    def second_part(self): return self.rf.second_part_count\n"
         "def verify_cover_theorem(cover):\n"
         "    rows = second_part(cover.m, cover.d).sparse_rows\n"
         "def kernel(m): return _second_part(span(m), m.rows)\n")
# The benchmark tracer patches its targets, so they may keep a dense
# signature until the benchmark stops naming them.
TRACED = tuple(f"{module}.{attr}"
               for module, attr, _ in _benchmark_table("TARGETS"))

RULES = {
    "span-builder": Rule(
        "call", "SpanBuilder", ("linalg.span",),
        "linalg.span is the one batch elimination call", BUILDER,
        {"linalg": ["kernel:5: SpanBuilder("],
         "tensor": ["span:3: SpanBuilder(", "kernel:5: SpanBuilder("]}),
    "builder-rows": Rule(
        "attribute", "_rows", ("linalg.span", "*.SpanBuilder.*"),
        "span hands the builder's rows to the Subspace it returns", BUILDER,
        {"linalg": ["kernel:6: ._rows", "Subspace.reduce:8: ._rows"], "tensor":
         ["span:3: ._rows", "kernel:6: ._rows", "Subspace.reduce:8: ._rows"]}),
    "subspace": Rule(
        "call", "Subspace", ("linalg.span", "linalg._second_part",
                             "linalg.Subspace.full_space"),
        "echelon rows come from a span, its second part or the full space",
        SUBSPACE,
        {"linalg": ["Subspace.of_rows:7: cls(", "_subspace:15: Subspace("],
         "tensor": ["Subspace.full_space:4: cls(", "Subspace.of_rows:7: cls(",
                    "_second_part:13: Subspace(", "_subspace:15: Subspace("]}),
    "self-assignment": Rule(
        "self", r"\w+", ("linalg.SpanBuilder.*",  # mutable by design
                         "errors.NotIdealError.*"),  # carries its witness
        "every other class is a value type that errors.Immutable sets once",
        "class SpanBuilder:\n    def __init__(self, field): self.field = 0\n"
        "class P:\n    def __init__(self, base, pairing):\n"
        "        self.base = base\n        self.pairing, n = pairing, 0\n"
        "    def grow(self, other):\n        self.dim += 1\n"
        "        self.cache: dict = {}\n        self.rows[0] = other.rows[0]\n"
        "        other.base = self.base\n",
        {"linalg": ["P.__init__:5: self.base", "P.__init__:6: self.pairing",
                    "P.grow:8: self.dim", "P.grow:9: self.cache"],
         "tensor": ["SpanBuilder.__init__:2: self.field",
                    "P.__init__:5: self.base", "P.__init__:6: self.pairing",
                    "P.grow:8: self.dim", "P.grow:9: self.cache"]}),
    "dense-signature": Rule(
        "dense", r"Vector|Sequence\[Scalar\]",
        ("linalg.dense", "linalg.sparse",  # the converters
         "liealg.ideal_closure",  # perfbench/gen_inputs.py imports it
         "tensor.WhiteheadGamma.quadratic") + TRACED,  # its public map
        "the package computes on sparse vectors",
        "class LieAlgebra:\n"
        "    def table(self) -> tuple[tuple[Vector, ...], ...]:\n"
        "        def cell(j: int) -> Vector: pass\n"
        "    def bracket(self, u: Sequence[Scalar], v) -> Vector: pass\n"
        "    def sparse(self, u: SparseVector) -> SparseVector: pass\n"
        "def closure(L, vs: Sequence[Sequence[Scalar]]) -> Subspace: pass\n"
        "def dense(v: SparseVector, n: int) -> Vector: pass\n",
        {"liealg": ["LieAlgebra.table:2: Vector",
                    "LieAlgebra.table.cell:3: Vector",
                    "closure:6: Sequence[Scalar]", "dense:7: Vector"],
         "linalg": ["LieAlgebra.table:2: Vector",
                    "LieAlgebra.table.cell:3: Vector",
                    "LieAlgebra.bracket:4: Sequence[Scalar]",
                    "closure:6: Sequence[Scalar]"]}),
    "pass-through": Rule(
        "pass-through", "cached_property",
        ("liealg.LieAlgebra.lower_central_series",  # perfbench/gen_inputs.py
         "tensor.TensorSquare.exterior_square",  # perfbench/worker.py
         "tensor.TensorSquare.schur_multiplier"),  # perfbench/worker.py
        "a cached value has one name; the benchmark calls these methods",
        "class TensorSquare:\n"
        "    @cached_property\n    def _center(self): return 0\n"
        "    @functools.cached_property\n    def _series(self): return ()\n"
        "    @property\n    def dim(self): return 0\n"
        "    def center(self): return self._center\n"
        "    def schur_multiplier(self):\n        \"Cached.\"\n"
        "        return self._series\n"
        "    def size(self): return self.dim\n"
        "    def rank(self): return self._center.dim\n"
        "    def twice(self):\n        x = 1\n        return self._center\n"
        "    def stub(self):\n        \"Nothing.\"\n"
        "class Other:\n    def center(self, T): return self._center\n",
        {"tensor": ["TensorSquare.center:8: return self._center"],
         "liealg": ["TensorSquare.center:8: return self._center",
                    "TensorSquare.schur_multiplier:9: return self._series"]}),
    "pairing": Rule(
        "attribute", "pairing", ("tensor.*",),
        "x^y is formed only in TensorSquare.exterior_pairing", WEDGE,
        {"presentation": ["f:3: .pairing", "f:9: .pairing"], "tensor": []}),
    "exterior-projection": Rule(
        "projection", "exterior_square", ("tensor.*",),
        "the projection exterior_square()[1] forms x^y as well", WEDGE,
        {"presentation": ["f:2: unpacks exterior_square()",
                          "f:5: exterior_square()[...]",
                          "f:7: unpacks exterior_square()",
                          "f:9: exterior_square()[...]"], "tensor": []}),
    "shift-name": Rule(
        "name", "_?second_part", ("linalg.*",),
        "elimination's row layout stays in linalg", SHIFT,
        {"presentation": ["<module>:1: second_part",
                          "P.exterior:4: _second_part",
                          "P.second_part:5: second_part",
                          "verify_cover_theorem:7: second_part",
                          "kernel:8: _second_part"], "linalg": []}),
    "shift-call": Rule(
        "call", "_second_part", ("linalg.kernel", "linalg.subspace_intersect"),
        "these two read the rows of a span from a split on", SHIFT,
        {"presentation": ["P.exterior:4: _second_part(",
                          "kernel:8: _second_part("],
         "linalg": ["P.exterior:4: _second_part("]}),
    "ci-builder-internals": Rule(
        "workflow", r"SpanBuilder\.|\b_columns\b", (),
        "CI steps read spans through tests/support.py's elimination_log",
        "    steps:\n      - name: Counts\n        run: |\n"
        "          insert = linalg.SpanBuilder.insert\n"
        "          scan = min(out) in self._columns\n"
        "      - name: Sizes\n        run: echo m.sparse_columns SpanBuilder\n"
        "      - name: Scans\n        run: python -c 'print(b._columns)'\n",
        {"tier1": ["Counts:4: SpanBuilder.", "Counts:5: _columns",
                   "Scans:9: _columns"]}),
}
WORKFLOW = PACKAGE.parent.parent / ".github" / "workflows" / "tier1.yml"
MODULES = {path.stem: path.read_text(encoding="utf-8")
           for path in sorted(PACKAGE.glob("*.py"))}


@pytest.mark.parametrize("name", RULES)
def test_the_package_keeps_the_rule(name):
    rule = RULES[name]
    texts = {"tier1": WORKFLOW.read_text(encoding="utf-8")} \
        if rule.kind == "workflow" else MODULES
    found = {module: findings(rule, text, module)
             for module, text in texts.items()}
    assert {module: f for module, f in found.items() if f} == {}, rule.reason
    # No allowed place outlives what it allows; the tracer's targets are
    # allowed by the benchmark, not by this table.
    used = [f"{module}.{scope}" for module, text in texts.items()
            for scope, _, _ in places(rule, text, module)]
    assert [pattern for pattern in rule.allowed if pattern not in TRACED
            and not any(fnmatchcase(place, pattern) for place in used)] == []
    # The count steps read spans through the observer.
    assert rule.kind != "workflow" or "elimination_log" in texts["tier1"]


@pytest.mark.parametrize("name", RULES)
def test_the_rule_flags_its_snippet(name):
    rule = RULES[name]
    assert {module: findings(rule, rule.snippet, module)
            for module in rule.flags} == rule.flags
