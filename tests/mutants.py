"""The mutation matrix: can a Tier-1 test make each check fail?

Run it from anywhere, with pytest, hypothesis and sympy installed, as
python3 tests/mutants.py.  A mutant is one change to a copy of the
repository, made in a temporary directory (TMPDIR places it); the checkout
is never written.  There are two kinds:

- one per failure statement of the package, found from the ast: each
  raise InternalCheckError(...) or raise TheoremViolationError(...) and
  each return Verdict(False, ...) becomes pass, so that the check can no
  longer fail;
- the rows of RESULT_BREAKING, each an exact-string replacement that must
  match once, which break an answer rather than a check.

For each mutant the Tier-1 tests run with -x, leaving out
tests/test_imports.py, whose ast guards can fail for reasons that have
nothing to do with the mutant, and the script prints one line,
"site killed|SURVIVED first-failing-test".  A site is module.scope:line,
the scope being the innermost def or class, with a row's name after a
slash.  The test file of the mutated module runs first, as it is the
likeliest to fail early.  A survivor costs a full Tier-1 run, so the
matrix is too slow for Tier-1 and runs as a report of its own.  The exit
status is 1 when a mutant survives or a row does not match once.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
FAILURE_ERRORS = {"InternalCheckError", "TheoremViolationError"}
LEFT_OUT = "test_imports.py"


class Mutant(NamedTuple):
    site: str
    path: str  # relative to the repository root
    start: int  # the replaced characters of the file's text
    end: int
    new: str


class Row(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    reason: str


RESULT_BREAKING = [
    Row("drop-square", "src/lietensor/tensor.py",
        "instances.append({a * n + b: x * y for a, x in w.items()\n"
        "                          for b, y in w.items()})", "pass",
        "the u(x)u family on L^2 is left out of the relations"),
    Row("skip-back-reduction", "src/lietensor/linalg.py",
        "if pivot in self._columns:", "if False:",
        "a new echelon row is not subtracted from the stored rows"),
    Row("flip-boundary-sign", "src/lietensor/presentation.py",
        "(ik, j, one)", "(ik, j, -one)",
        "one term of d3(x^y^z) changes sign"),
    Row("flip-jacobi-sign", "src/lietensor/tensor.py",
        "v.update((j * n + b, -c)", "v.update((j * n + b, c)",
        "one term of J(i,j,k) changes sign"),
    Row("drop-commutator-row", "src/lietensor/presentation.py",
        "for ad_g in ad))",
        "for ad_g in ad\n"
        "                         if r is not relations.sparse_rows[0]"
        " or ad_g is not ad[0]))",
        "the first bracket [r, x] is left out of [R,X]"),
]


def is_failure(node: ast.AST) -> bool:
    """A raise of a check's error or a return of a failed Verdict."""
    if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
        return getattr(node.exc.func, "id", None) in FAILURE_ERRORS
    if isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
        call = node.value
        return getattr(call.func, "id", None) == "Verdict" and bool(
            call.args) and isinstance(call.args[0], ast.Constant) \
            and call.args[0].value is False
    return False


def scoped(node: ast.AST, scope: tuple[str, ...] = ()):
    """Each node below node, depth first, with its innermost def or class."""
    for child in ast.iter_child_nodes(node):
        inner = scope + (child.name,) if isinstance(
            child, (ast.FunctionDef, ast.ClassDef)) else scope
        yield ".".join(inner) or "<module>", child
        yield from scoped(child, inner)


def offsets(text: str) -> list[int]:
    """The offset of each line's first character, for line numbers from 1."""
    starts = [0, 0]
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def site(path: str, text: str, offset: int) -> str:
    """module.scope:line of the innermost def or class around an offset."""
    line = text.count("\n", 0, offset) + 1
    scope = "<module>"
    for name, node in scoped(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                node.lineno <= line <= node.end_lineno:
            scope = name
    return f"{Path(path).stem}.{scope}:{line}"


def mutants(root: Path) -> list[Mutant]:
    """The failure-statement mutants of every package module, then the
    rows; a row that does not match once raises ValueError."""
    found = []
    for file in sorted((root / "src" / "lietensor").glob("*.py")):
        path = str(file.relative_to(root))
        text = file.read_text(encoding="utf-8")
        starts = offsets(text)
        for scope, node in scoped(ast.parse(text)):
            if is_failure(node):
                found.append(Mutant(
                    f"{file.stem}.{scope}:{node.lineno}", path,
                    starts[node.lineno] + node.col_offset,
                    starts[node.end_lineno] + node.end_col_offset, "pass"))
    for row in RESULT_BREAKING:
        text = (root / row.path).read_text(encoding="utf-8")
        if text.count(row.old) != 1:
            raise ValueError(f"{row.name}: {row.old!r} matches "
                             f"{text.count(row.old)} times in {row.path}")
        start = text.index(row.old)
        found.append(Mutant(f"{site(row.path, text, start)}/{row.name}",
                            row.path, start, start + len(row.old), row.new))
    return found


def first_failure(output: str) -> str:
    """The first failing or erroring test that pytest's summary names."""
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return found.group(1) if found else "(no test named)"


def run(copy: Path, mutant: Mutant) -> tuple[bool, str]:
    """Whether Tier-1 fails on the mutant, with its first failing test."""
    file = copy / mutant.path
    text = file.read_text(encoding="utf-8")
    file.write_text(text[:mutant.start] + mutant.new + text[mutant.end:],
                    encoding="utf-8")
    own = f"test_{Path(mutant.path).stem}.py"
    tests = sorted((copy / "tests").glob("test_*.py"),
                   key=lambda p: (p.name != own, p.name))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(copy / "src"), env.get("PYTHONPATH")]))
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
             "-p", "no:cacheprovider",
             *(str(p.relative_to(copy)) for p in tests if p.name != LEFT_OUT)],
            cwd=copy, env=env, capture_output=True, text=True)
    finally:
        file.write_text(text, encoding="utf-8")
    if result.returncode == 0:
        return False, "-"
    return True, first_failure(result.stdout)


def main() -> int:
    try:
        chosen = mutants(ROOT)
    except ValueError as exc:
        print(exc)
        return 1
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        for mutant in chosen:
            killed, test = run(copy, mutant)
            survivors += not killed
            print(mutant.site, "killed" if killed else "SURVIVED", test,
                  flush=True)
    print(f"{len(chosen)} mutants, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
