"""Every name a module of the package imports is used in that module,
every function or method it defines is named somewhere else, and every
defaulted parameter of one is passed by some call.

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


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, position among the arguments a call passes,
    or None for a keyword-only one) of each defaulted parameter of a
    module-level function or method.  A method's position leaves out self
    or cls, and `__init__` is called by its class's name.  Nested functions
    are left out: their defaults bind values, as `cells.axis_gather`'s do."""
    out = []
    tree = ast.parse(source)
    defs = [(node, None) for node in tree.body]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            defs += [(node, cls.name) for node in cls.body]
    for node, cls in defs:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = cls if node.name == "__init__" else node.name
        decorators = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
        skip = cls is not None and "staticmethod" not in decorators
        positional = node.args.posonlyargs + node.args.args
        first_default = len(positional) - len(node.args.defaults)
        for pos, arg in enumerate(positional[first_default:], first_default):
            out.append((name, arg.arg, pos - skip))
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                out.append((name, arg.arg, None))
    return out


def calls_in(source: str) -> dict[str, list[tuple[int, set[str]] | None]]:
    """Per callee name, each call as (number of positional arguments, keyword
    names), or None for a call with *args or **kwargs, which may pass any.
    A call is matched by name alone: `x.m(...)` counts for every `m`."""
    calls: dict[str, list] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            call = None if spread else (len(node.args), {k.arg for k in node.keywords})
            calls.setdefault(name, []).append(call)
    return calls


def unset_parameters(source: str, calls: dict) -> list[str]:
    """The defaulted parameters of `source` that no call in `calls` passes."""
    return [
        f"{name}({param})"
        for name, param, pos in defaulted_parameters(source)
        if not any(
            call is None or param in call[1] or pos is not None and pos < call[0]
            for call in calls.get(name, [])
        )
    ]


# set from outside the checked calls: the console script calls cli.main bare
# (perfbench/child.py passes argv through a reference to it), and
# perfbench/tracing.py's kernel_for wrapper passes backend on positionally
UNSET_BY_DESIGN = {"main(argv)", "kernel_for(backend)"}


@lru_cache(maxsize=1)
def calls_in_the_program() -> dict[str, list]:
    """Every call in src and perfbench; the tests' calls do not count."""
    root = Path(__file__).resolve().parents[1]
    calls: dict[str, list] = {}
    for path in [*(root / "src").rglob("*.py"), *(root / "perfbench").rglob("*.py")]:
        for name, found in calls_in(path.read_text()).items():
            calls.setdefault(name, []).extend(found)
    return calls


def test_the_checker_sees_an_unset_parameter():
    source = (
        "def f(a, b=1, *, c=2, d=3):\n    def inner(x=a):\n        pass\n"
        "class K:\n    def __init__(self, e=0):\n        pass\n"
        "    def m(self, g=0, h=0):\n        pass\n"
        "    @staticmethod\n    def s(i=0):\n        pass\n"
        "def spread(j=0):\n    pass\n"
        "f(1, c=3)\nK(1).m(2)\nK.s()\nspread(*())\n"
    )
    found = unset_parameters(source, calls_in(source))
    assert found == ["f(b)", "f(d)", "m(h)", "s(i)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_every_defaulted_parameter_is_passed_somewhere(module):
    unset = unset_parameters(module.read_text(), calls_in_the_program())
    assert [p for p in unset if p not in UNSET_BY_DESIGN] == []
