"""Every import of the package is used where it is made, every error class
has a user, every name the package defines (private or public, module-level,
method or property) and every dataclass field is read by the package itself,
the theory commands start without the graph libraries, and a module loads
only the modules it imports.

A public name or field that only the tests read belongs in the tests; the
few kept without a reader in the package are listed in ``UNREAD_PUBLIC`` and
``UNREAD_FIELDS``, each with its reason."""

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


def definitions(tree) -> list[tuple[str, str]]:
    """(qualified name, name) of every module-level function, class and
    assignment, and of every method and property defined in a class body.
    Dunder names are left out: Python itself calls them."""
    found = []
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            found.append((node.name, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, t.id) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{fn.name}", fn.name)
                for fn in node.body
                if isinstance(fn, FUNCTIONS)
            ]
    return [(qual, name) for qual, name in found if not name.startswith("__")]


def names_read(tree) -> set[str]:
    """Every name read as a variable or an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def package_trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}


def unread(private: bool) -> list[str]:
    """Package names, private or public, that no module of the package reads."""
    trees = package_trees()
    read = set().union(*map(names_read, trees.values()))
    return [
        f"{module}.{qual}"
        for module, tree in sorted(trees.items())
        for qual, name in definitions(tree)
        if name.startswith("_") == private and name not in read
    ]


def test_every_private_name_is_read():
    # A private helper whose last caller is deleted cannot linger: the
    # package must read it somewhere, in its own module or another.
    assert unread(private=True) == []


# Public names that nothing in the package reads, each kept for a reason.
UNREAD_PUBLIC = {
    "sampler.sample_simple_graph": "the benchmark samples one graph at a time with it",
    "harness.parse_csv": "reads the CSV that `degwin experiment` writes back in",
    "graph.from_jsonl_line": "reads the JSONL that `degwin sample` writes back in",
    "graph.compensation_factor": "waits for the exact kernel-shape law, its planned reader",
}


def test_every_public_name_is_read():
    # A public function, class, constant, method or property is there for the
    # pipeline, the CLI or the benchmark: one that only the tests read belongs
    # in the tests, and one that nothing reads goes.
    assert sorted(unread(private=False)) == sorted(UNREAD_PUBLIC)


def dataclass_fields(tree) -> list[tuple[str, str]]:
    """(class name, field name) of every annotated field of a
    ``@dataclass`` class body."""
    found = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            found += [
                (node.name, field.target.id)
                for field in node.body
                if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
            ]
    return found


# Fields that nothing in the package reads as an attribute, each kept for a
# reason.  PointAggregate's fields are left out as a class: ``asdict`` writes
# them whole into the JSON output.
UNREAD_FIELDS = {
    "asymptotics.TheoryPrediction.q_max":
        "the benchmark's truncation checks read it; it goes with the whole excess law",
    "asymptotics.TwoPathConstants.b2_squared": "the benchmark's 2-path identity check reads it",
    "asymptotics.TwoPathConstants.second_moment": "the benchmark's 2-path identity check reads it",
}


def test_every_field_is_read():
    # A dataclass field that only the tests read is state the package carries
    # for nobody.  Fields match by attribute name, as the name lint does, so a
    # field that shares its name with an attribute read elsewhere passes.
    trees = package_trees()
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread_fields = [
        f"{module}.{cls}.{name}"
        for module, tree in sorted(trees.items())
        for cls, name in dataclass_fields(tree)
        if cls != "PointAggregate" and name not in read
    ]
    assert sorted(unread_fields) == sorted(UNREAD_FIELDS)


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
