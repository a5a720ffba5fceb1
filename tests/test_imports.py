"""Every name a module of the package imports is used in that module.

No linter ships with the package's test dependencies, so this reads each
module with `ast`.  A name counts as used when the module loads it or
lists it in `__all__`.  An import line marked `# noqa: F401` is exempt:
those names are looked up from outside, by perfbench/tracing.py, which
wraps them where the module finds them."""

import ast
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
