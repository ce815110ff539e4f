"""Repository checks: the benchmark harness's self-test still runs against
the package, every definition in the package has a user, NumPy is the
package's only dependency, and every third-party module the tests import is
declared."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    """The harness looks up every name it traces (``perfbench/spans.py``), so
    deleting or renaming a wrapped function breaks traced benchmark runs."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_no_uncalled_definitions():
    """Every function, method and class in ``src/cmhl``, and every name a
    module assigns at its top level (dunders aside), is named, as a whole
    word, somewhere in ``src/`` or ``perfbench/`` besides its own
    definition; code only tests use does not count."""
    sources = [p.read_text() for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    names = []
    for path in sorted((ROOT / "src" / "cmhl").glob("*.py")):
        tree = ast.parse(path.read_text())
        names += [n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    definitions = Counter(n for n in names if not (n.startswith("__") and n.endswith("__")))
    unused = sorted(
        name for name, count in definitions.items()
        if sum(len(re.findall(rf"\b{re.escape(name)}\b", text)) for text in sources) <= count
    )
    assert unused == [], f"defined in src/cmhl but used nowhere in src/ or perfbench/: {unused}"


def test_backward_closures_recorded_in_one_place():
    """Only ``_node`` gives a node its backward closure and only ``backward``
    clears it (``Tensor.__init__`` starts it at None), so no primitive keeps
    a closure that could refer back to its own node."""
    assigned = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                assigned.extend(function for t in targets if isinstance(t, ast.Attribute) and t.attr == "_backward")
            visit(child, function)

    for path in sorted((ROOT / "src" / "cmhl").glob("*.py")):
        visit(ast.parse(path.read_text()), None)
    assert sorted(assigned) == ["__init__", "_node", "backward"]


def test_import_loads_no_scipy():
    """``import cmhl.cli`` (every module of the package) loads no SciPy module."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    code = "import sys, cmhl.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.split(r"[<>=!~ ;\[]", dep, maxsplit=1)[0] for dep in project["dependencies"]] == ["numpy"]


def test_test_imports_are_declared():
    """Every third-party module imported by ``tests/*.py`` (not stdlib, not
    ``cmhl``, not ``conftest``) is a runtime dependency or in the ``test``
    extra, so ``pip install -e .[test]`` can collect every test module. Each
    such module's import name is its distribution name."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[<>=!~ ;\[]", dep, maxsplit=1)[0].lower()
                for dep in project["dependencies"] + project["optional-dependencies"]["test"]}
    imported = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"cmhl", "conftest"}
    assert sorted(third_party - declared) == []
