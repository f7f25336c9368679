"""Source hygiene: every imported name is used in the module that imports it,
and every definition and dataclass field of the package is used somewhere.

Parses each module of the package and of the test suite with `ast`, and
for the definition check the benchmark's modules too. The package's
`__init__.py` files are skipped by the import check because their imports
are re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stspgl"
MODULES = sorted(p for d in (PACKAGE, ROOT / "tests")
                 for p in d.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_every_binding_form():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as js\nfrom math import inf, pi\n"
              "print(os.sep, pi)\n")
    assert unused_imports(source) == [(3, "js"), (4, "inf")]


def _definitions(tree: ast.Module) -> list:
    """Top-level functions and classes, and the methods of those classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            found.append(node)
            if isinstance(node, ast.ClassDef):
                found.extend(n for n in node.body if isinstance(n, functions))
    return [d for d in found if not (d.name.startswith("__") and d.name.endswith("__"))]


def _references(tree: ast.Module) -> list:
    """(name, line) of every name, attribute and `from` import in a module."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            refs.extend((alias.name, node.lineno) for alias in node.names)
    return refs


def dead_definitions(package: dict, others: dict) -> list:
    """(module, line, name) of each definition in `package` that no module
    refers to by name outside the definition itself; dunders are exempt.

    Both arguments map a module name to its source; only `package` is
    searched for definitions.
    """
    trees = {mod: ast.parse(src) for mod, src in {**others, **package}.items()}
    refs = {mod: _references(tree) for mod, tree in trees.items()}
    dead = []
    for mod in sorted(package):
        for d in _definitions(trees[mod]):
            if not any(name == d.name and not (where == mod and d.lineno <= line <= d.end_lineno)
                       for where, found in refs.items() for name, line in found):
                dead.append((mod, d.lineno, d.name))
    return dead


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def dead_fields(package: dict, others: dict) -> list:
    """(module, line, "Class.field") of each dataclass field in `package`
    that no module reads as an attribute; arguments as in `dead_definitions`.
    """
    trees = {mod: ast.parse(src) for mod, src in {**others, **package}.items()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    dead = []
    for mod in sorted(package):
        for cls in trees[mod].body:
            if not (isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list))):
                continue
            dead.extend((mod, stmt.lineno, f"{cls.name}.{stmt.target.id}") for stmt in cls.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and stmt.target.id not in read)
    return dead


def _sources(*dirs: Path) -> dict:
    return {str(p.relative_to(ROOT)): p.read_text() for d in dirs for p in d.rglob("*.py")}


def test_no_dead_definitions():
    package, others = _sources(PACKAGE), _sources(ROOT / "tests", ROOT / "perfbench")
    assert dead_definitions(package, others) == []
    assert dead_fields(package, others) == []


def test_only_tests_use_exactly_the_members_kept_on_purpose():
    # with the test tree left out, these are the only members nothing uses:
    # the LP-duality property test checks the duals through
    # `dual_objective`, and `reduced_cost` prices a column for the tests;
    # anything else that only tests read is deleted
    package, bench = _sources(PACKAGE), _sources(ROOT / "perfbench")
    dead = {f"{Path(mod).stem}.{name}" for mod, _line, name in dead_definitions(package, bench)}
    dead |= {name for _mod, _line, name in dead_fields(package, bench)}
    assert dead == {"colgen.reduced_cost", "SolveOutcome.dual_objective"}


def test_dead_definition_check_sees_methods_properties_and_recursion():
    package = {"pkg": ("class Box:\n"
                       "    def __init__(self):\n"
                       "        self.size = self._measure()\n"
                       "    def _measure(self):\n"
                       "        return 1\n"
                       "    @property\n"
                       "    def volume(self):\n"
                       "        return self.size ** 3\n"
                       "def spin(n):\n"
                       "    return spin(n - 1)\n"
                       "def caller():\n"
                       "    return Box()\n")}
    others = {"user": "from pkg import caller\ncaller()\n"}
    assert dead_definitions(package, others) == [("pkg", 7, "volume"), ("pkg", 9, "spin")]


def test_dead_field_check_counts_only_attribute_reads():
    package = {"pkg": ("from dataclasses import dataclass, field\n"
                       "import dataclasses\n"
                       "@dataclass\n"
                       "class Point:\n"
                       "    x: float\n"
                       "    y: float = 0.0\n"
                       "    tag: str = field(default='')\n"
                       "@dataclasses.dataclass(frozen=True)\n"
                       "class Box:\n"
                       "    size: int\n"
                       "class Plain:\n"
                       "    depth: int = 0\n"
                       "def make():\n"
                       "    p = Point(x=1.0, y=2.0, tag='a')\n"
                       "    p.y = 3.0\n"
                       "    return p.x\n")}
    others = {"user": "from pkg import make\nprint(make().size)\n"}
    assert dead_fields(package, others) == [("pkg", 6, "Point.y"), ("pkg", 7, "Point.tag")]
