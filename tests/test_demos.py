import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    result = subprocess.run([sys.executable, str(script)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "FAIL" not in result.stdout


def test_readme_quick_start_runs_and_shows_its_values():
    # The README's python quick start, line by line: a line whose comment
    # is a literal is evaluated and must equal it, every other line runs.
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1] \
        .split("```python\n", 1)[1].split("```", 1)[0]
    namespace, shown = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            value = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            exec(code, namespace)
            continue
        assert eval(code, namespace) == value, line
        shown.append(value)
    assert shown == [6, 3, 2, True, True]


def _benchmark_table(name):
    """A tuple constant of perfbench/tracer.py, read from its source."""
    path = ROOT / "perfbench" / "tracer.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path}")


def test_every_benchmark_tracer_target_resolves():
    # The benchmark tracer rebinds these names at run time; a name deleted
    # from the package must fail here rather than only in the benchmark.
    # A "Class.method" target is patched in the class's own __dict__.
    targets = _benchmark_table("TARGETS")
    assert len(targets) > 30
    for module, attr, _ in targets:
        owner = importlib.import_module(f"lietensor.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), (module, attr)
        else:
            assert callable(getattr(owner, attr)), (module, attr)
    for module, attr, _ in _benchmark_table("CACHED"):
        owner = importlib.import_module(f"lietensor.{module}")
        assert hasattr(getattr(owner, attr), "cache_info"), (module, attr)
