"""Repository checks: the benchmark harness's self-test still runs against
the package, every definition in the package has a user, NumPy is the
package's only dependency, and every third-party module the tests import is
declared."""

import ast
import importlib
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
    """Only ``_node`` gives a vertex its backward closure and only ``backward``
    clears it (``_Vertex.__init__`` starts it at None; a leaf ``Tensor`` reads
    the class default), so no primitive keeps a closure that could refer back
    to its own vertex."""
    assigned = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if function is None else f"{function}.{child.name}")
                continue
            if isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                targets = [e for t in targets for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
                assigned.extend(function for t in targets if isinstance(t, ast.Attribute) and t.attr == "_backward")
            visit(child, function)

    for path in sorted((ROOT / "src" / "cmhl").glob("*.py")):
        visit(ast.parse(path.read_text()), None)
    assert sorted(assigned) == ["_Vertex.__init__", "_node", "backward"]


def test_trainable_tensors_made_in_one_place():
    """``requires_grad=True`` is written only in the two makers of a model's tensors: ``T.drawn``'s, which
    draws them to train, and ``model_from_checkpoint``'s, which copies them out of a checkpoint."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (*where, child.name))
                continue
            if (isinstance(child, ast.keyword) and child.arg == "requires_grad"
                    and isinstance(child.value, ast.Constant) and child.value.value is True):
                found.append(where)
            visit(child, where)

    for path in sorted((ROOT / "src" / "cmhl").glob("*.py")):
        visit(ast.parse(path.read_text()), (path.name,))
    assert sorted(found) == [("tensor.py", "drawn", "make"), ("training.py", "model_from_checkpoint", "make")]


def test_tokenize_called_in_one_place():
    """Only ``LabeledExample.__post_init__`` turns text into tokens; every
    other reader of an example's tokens reads ``ex.tokens``."""
    callers = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (where[0], child.name))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "tokenize":
                    callers.append(where)
            visit(child, where)

    for path in sorted((ROOT / "src" / "cmhl").glob("*.py")):
        visit(ast.parse(path.read_text()), (path.name, None))
    assert callers == [("data.py", "__post_init__")]


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


def test_perfbench_workloads_set_up(tmp_path, monkeypatch):
    """Every benchmark workload builds its inputs and its first model (set-up
    only, no timed run), so a change to a call they make, such as
    ``MHModel.build``, ``TrainConfig.mental_health_preset`` or ``Checkpoint``'s
    keywords, fails here and not only in the benchmark."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    from cmhl.encoder import Model

    built = {}
    for name, workload in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        built[name] = workload(1, tmp_path / name)
    assert all(isinstance(built[name].model, Model) for name in ("desk_train", "mid_train", "desk_eval"))
    assert (built["desk_eval"].checkpoint / "manifest.json").is_file()


@pytest.mark.parametrize("task, span", [("emotion", "data.load_corpus"), ("mental_health", "data.load_mh_corpus")])
def test_traced_eval_sees_the_corpus_loader(tmp_path, monkeypatch, capsys, task, span):
    """A task record's ``load`` looks its loader up at each call, so one in-process
    ``cmhl eval`` under the benchmark's tracer records the loader's span."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    from cmhl import cli

    label = {"emotion": "joy", "mental_health": "anxiety"}[task]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(f'{{"text": "so glad today", "label": "{label}"}}\n')
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        code = cli.main(["eval", str(ROOT / "tests" / "fixtures" / "checkpoints" / task), str(corpus)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0 and tracer.names.count(span) == 1, sorted(set(tracer.names))
