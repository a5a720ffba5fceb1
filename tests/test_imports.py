"""Every name a module of the package imports is used in that module, and
every function or method it defines is named somewhere else.

No linter ships with the package's test dependencies, so this reads each
module with `ast`.  A name counts as used when the module loads it or
lists it in `__all__`.  An import line marked `# noqa: F401` is exempt:
those names are looked up from outside, by perfbench/tracing.py, which
wraps them where the module finds them."""

import ast
import re
from functools import lru_cache
from pathlib import Path

import pytest

import cubalg

MODULES = sorted(Path(cubalg.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_checker_sees_an_unused_import():
    source = "from os import path, sep  # noqa: F401\nimport sys\nimport json\njson.dumps\n"
    assert unused_imports(source) == ["sys (line 2)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_module_has_no_unused_import(module):
    assert unused_imports(module.read_text()) == []


def names_in(source: str) -> set[str]:
    """The identifiers a module names other than in a `def` or a docstring:
    its names, attributes and imported names, and the words of its other
    string constants, since monkeypatch and tracing targets are strings."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                names.update(re.findall(r"\w+", node.value))
    return names


def unnamed_definitions(source: str, names: set[str]) -> list[str]:
    """The functions and methods `source` defines that are not in `names`;
    dunders are called by the language, so they are exempt."""
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in names
    ]


@lru_cache(maxsize=1)
def names_in_the_repository() -> frozenset[str]:
    root = Path(__file__).resolve().parents[1]
    folders = [root / folder for folder in ("src", "tests", "perfbench")]
    return frozenset().union(*(names_in(p.read_text()) for f in folders for p in f.rglob("*.py")))


def test_the_checker_sees_an_unnamed_definition():
    source = (
        'def used():\n    """used() and lost() in a docstring name nothing."""\n'
        "def lost():\n    def inner():\n        pass\n    return used()\n"
        "class K:\n    def __len__(self):\n        return 0\n"
        "    def traced(self):\n        pass\n"
        'setattr(K, "traced", None)\n'
    )
    assert unnamed_definitions(source, names_in(source)) == ["lost (line 3)", "inner (line 4)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_every_definition_is_named_somewhere(module):
    assert unnamed_definitions(module.read_text(), names_in_the_repository()) == []
