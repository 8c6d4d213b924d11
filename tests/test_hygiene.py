"""Static checks on the package source, using only the standard library.

Theorem-guaranteed facts must raise TheoremViolationError: ``python -O``
strips bare ``assert`` statements.  Imports must be used; the package
``__init__`` is exempt because its imports are the public re-exports.  A
module-level private (``_``-prefixed) function, class or constant must be
referenced somewhere in the package outside its own definition.

No module imports a private name from another package module: a name that
another module needs is public in the module that owns it.

A public top-level function, class or method must be referenced too, by
package code other than its own definition and the ``__init__`` re-exports;
otherwise only tests reach it, and it belongs in ``tests/oracles.py`` or
nowhere.  Entry points that are kept anyway are listed in ``ENTRY_POINTS``
with the reason.  An entry kept because the benchmark needs it must still
be named in some ``perfbench/*.py``; once the benchmark drops it, the
entry is stale and the code can go.

Importing the package loads neither ``multiprocessing`` nor
``concurrent.futures``: every command runs in one process, and those imports
would cost each run tens of milliseconds.

Every package and test file parses with Python 3.10's grammar, the floor
that ``pyproject.toml`` declares.  That checks syntax only: a call into
standard library that 3.10 lacks still passes.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "weaktri"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree):
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _private_definitions(tree):
    """{name: node} of the module-level ``_name`` functions, classes and
    constants (dunders excluded)."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node
    return found


def _references(node):
    """Counter of the names a subtree loads, reads as attributes or imports."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def _unreferenced_privates(trees):
    everywhere = sum((_references(tree) for tree in trees), Counter())
    return sorted(
        name
        for tree in trees
        for name, node in _private_definitions(tree).items()
        if everywhere[name] == _references(node)[name]
    )


# "module.qualname" of public definitions the package itself never calls
ENTRY_POINTS = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "flags.extract_structure_maps": "the recover-mix benchmark calls it and its tracer wraps it",
    "flags.RecoveryTrace.all_checks_pass": "the recover-mix benchmark checks traces with it",
    "linalg.rref_solve": "the benchmark tracer wraps it by name",
    "pencils.char2_odd_counterexample": "the lemma31 benchmark runs the GF(2) counterexamples",
}


def _public_definitions(module, tree):
    """{"module.qualname": (name, node)} of the public top-level functions
    and classes and the public methods of top-level classes."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            members = [(node.name, node)]
        elif isinstance(node, ast.ClassDef):
            members = [(node.name, node)] + [
                (f"{node.name}.{sub.name}", sub)
                for sub in node.body
                if isinstance(sub, ast.FunctionDef)
            ]
        else:
            members = []
        for qualname, sub in members:
            if not sub.name.startswith("_"):
                found[f"{module}.{qualname}"] = (sub.name, sub)
    return found


def _unreferenced_publics(trees):
    """Sorted "module.qualname" of the public definitions that no module but
    ``__init__`` names outside the definition itself; ``trees`` maps module
    names to parsed sources."""
    everywhere = sum(
        (_references(tree) for module, tree in trees.items() if module != "__init__"),
        Counter(),
    )
    return sorted(
        key
        for module, tree in trees.items()
        for key, (name, node) in _public_definitions(module, tree).items()
        if everywhere[name] == _references(node)[name]
    )


def test_import_loads_no_process_pool():
    code = (
        "import sys, weaktri\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_modules_found():
    assert {"gf.py", "linalg.py", "survey.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize(
    "path",
    MODULES + sorted(Path(__file__).parent.glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_parses_as_python_3_10(path):
    # grammar only: a standard-library call that 3.10 lacks still parses
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_detects_grammar_newer_than_3_10():
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_asserts(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: bare assert on lines {lines}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name: line for name, line in _imported_names(tree).items() if name not in used
    }
    assert not unused, f"{path.name}: unused imports {unused}"


def test_no_unreferenced_private_definitions():
    unused = _unreferenced_privates([_tree(path) for path in MODULES])
    assert not unused, f"module-level privates referenced nowhere: {unused}"


def test_detects_unreferenced_private():
    one = ast.parse("_LIMIT = 3\n_KEPT = 4\ndef _rec(k):\n    return _rec(k - 1)\n")
    other = ast.parse("from .one import _KEPT\n")
    assert _unreferenced_privates([one, other]) == ["_LIMIT", "_rec"]


def _private_imports(trees):
    """Sorted "module: name" of the private (``_``-prefixed, not dunder)
    names that a module imports from a package module; ``trees`` maps module
    names to parsed sources."""
    return sorted(
        f"{module}: {alias.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "weaktri")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )


def test_no_private_imports_across_modules():
    imported = _private_imports({path.stem: _tree(path) for path in MODULES})
    assert not imported, f"private names imported from another module: {imported}"


def test_detects_private_import():
    trees = {
        "one": ast.parse(
            "from __future__ import annotations\nfrom os import _exit\n"
            "from .two import _helper, public, __doc__\nfrom weaktri.two import _LIMIT\n"
        ),
        "two": ast.parse("from . import _three\nimport weaktri._four\n"),
    }
    assert _private_imports(trees) == ["one: _LIMIT", "one: _helper", "two: _three"]


def test_detects_assert_and_unused_import():
    tree = ast.parse("import os\nfrom .x import y, z\nassert y\n")
    assert any(isinstance(node, ast.Assert) for node in ast.walk(tree))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported_names(tree)) - used) == ["os", "z"]


def test_no_test_only_public_definitions():
    trees = {path.stem: _tree(path) for path in MODULES}
    unused = _unreferenced_publics(trees)
    unlisted = [key for key in unused if key not in ENTRY_POINTS]
    assert not unlisted, f"public definitions only tests can reach: {unlisted}"
    stale = sorted(set(ENTRY_POINTS) - set(unused))
    assert not stale, f"ENTRY_POINTS entries that are gone or now referenced: {stale}"


def _benchmark_entries_gone(entry_points, texts):
    """Sorted keys of the ``entry_points`` whose reason names the benchmark
    but which none of ``texts`` uses: neither as an attribute call
    ``.name(`` nor as a quoted name, the form ``getattr`` wrappers take.  A
    local function or variable of the same name does not count."""

    def used(name, text):
        return re.search(rf"""\.{name}\(|(["']){name}\1""", text)

    return sorted(
        key
        for key, reason in entry_points.items()
        if "benchmark" in reason
        and not any(used(key.rpartition(".")[2], text) for text in texts)
    )


def test_benchmark_entry_points_are_still_in_the_benchmark():
    texts = [
        path.read_text()
        for path in sorted(PERFBENCH.glob("*.py"))
        if not path.name.startswith("test_")
    ]
    assert texts, f"no benchmark sources under {PERFBENCH}"
    gone = _benchmark_entries_gone(ENTRY_POINTS, texts)
    assert not gone, f"ENTRY_POINTS kept for the benchmark, which no longer names them: {gone}"


def test_detects_benchmark_entry_gone():
    entries = {
        "one.kept": "the benchmark calls it",
        "one.C.dropped": "the benchmark wraps it",
        "one.other": "argparse calls it",
    }
    texts = ["weaktri.kept(x)\n", "dropped_total = 0\n"]
    assert _benchmark_entries_gone(entries, texts) == ["one.C.dropped"]
    # a local function or variable of the same name is no use of the entry
    texts = ["def kept(seed):\n    kept = seed\n    return kept\n"]
    assert _benchmark_entries_gone(entries, texts) == ["one.C.dropped", "one.kept"]
    # a quoted name, as a tracer passes it to getattr, is a use
    texts = ['("one", "kept")\n', "obj.dropped()\n"]
    assert _benchmark_entries_gone(entries, texts) == []


def test_detects_unreferenced_public():
    trees = {
        "one": ast.parse(
            "def used():\n    pass\ndef lonely(k):\n    return lonely(k - 1)\n"
            "class C:\n    def m(self):\n        return self.other()\n"
            "    def other(self):\n        pass\n"
            # a class that only its own body and the re-exports name
            "class Solo:\n    def __eq__(self, other):\n        return isinstance(other, Solo)\n"
            "class Kept:\n    pass\nclass _Hidden:\n    pass\n"
        ),
        "two": ast.parse("from .one import used, Kept\n"),
        "__init__": ast.parse("from .one import lonely, Solo\n"),
    }
    assert _unreferenced_publics(trees) == ["one.C", "one.C.m", "one.Solo", "one.lonely"]
