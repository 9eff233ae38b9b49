"""Every name a snmpkit module imports at module level is used in it.

Read with the standard library's ast alone, so the check needs nothing
installed.  A name counts as used when the module's code reads it
anywhere, or when the module lists it in __all__ to re-export it.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "snmpkit"


def _module_level_imports(statements):
    """The import statements among statements and the blocks they hold,
    such as try and if, but not function or class bodies."""
    for node in statements:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
            for block in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_level_imports(getattr(node, block, ()))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    """The names source binds by a module-level import and never uses."""
    tree = ast.parse(source)
    bound = set()
    for node in _module_level_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            # "import a.b" binds a
            bound.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used - _exported(tree) - {"*"})


def test_the_check_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import json as js\n"
        "from . import a, b as bee\n"
        "try:\n"
        "    from x import y\n"
        "except ImportError:\n"
        "    from z import y\n"
        "__all__ = ['a']\n"
        "def f():\n"
        "    import sys\n"
        "    return y, js.dumps\n"
    )
    assert unused_imports(source) == ["bee", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_uses_what_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
