"""Every import of the package is used where it is made, every error class
has a user, the theory commands start without the graph libraries, and a
module loads only the modules it imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "degwin"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def imported_names(statements) -> list[str]:
    names = []
    for node in statements:
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def unused(scope, statements) -> list[str]:
    used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
    return [name for name in imported_names(statements) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused(tree, tree.body) == []
    # An import inside a function body must be used in that function.
    for fn in (node for node in ast.walk(tree) if isinstance(node, FUNCTIONS)):
        assert unused(fn, ast.walk(fn)) == [], fn.name


def test_every_module_is_checked():
    assert len(MODULES) >= 10


def error_classes() -> list[str]:
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef)]


def names_used(path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("name", error_classes())
def test_every_error_class_is_used(name):
    # An error class whose last raiser is deleted cannot linger: some module
    # besides errors.py must name it.
    assert any(name in names_used(p) for p in MODULES if p.name != "errors.py"), name


def modules_loaded_by(code: str) -> set[str]:
    """The ``sys.modules`` names after running ``code`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC.parent), env.get("PYTHONPATH"))))
    probe = f"{code}\nimport sys\nprint(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "code",
    [
        "import degwin.cli",
        "from degwin.cli import main; main(['threshold', '--degrees', '1,3,5,7'])",
        "from degwin.cli import main; main(['threshold', '--degrees', 'all:60'])",
        "from degwin.cli import main; main(['predict', '--degrees', '1,3', '--mu=-2,0,2'])",
    ],
    ids=["import", "threshold", "threshold-rule", "predict"],
)
def test_theory_commands_load_no_graph_library(code):
    loaded = {m.split(".")[0] for m in modules_loaded_by(code)}
    assert loaded & {"scipy", "networkx"} == set()


@pytest.mark.parametrize(
    "module, absent",
    [
        ("degwin.critical", {"mpmath", "degwin.asymptotics", "degwin.graph", "degwin.harness",
                             "degwin.sampler", "degwin.stats", "degwin.verify"}),
        ("degwin.cli", {"degwin.verify"}),
    ],
    ids=["critical", "cli"],
)
def test_a_module_loads_only_what_it_imports(module, absent):
    # The package file imports nothing, so importing one stage does not
    # load the others.
    assert modules_loaded_by(f"import {module}") & absent == set()
