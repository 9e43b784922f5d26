"""Source checks that need no linter: every module imports only what it uses."""

import ast
from pathlib import Path

import pytest

import acdkit

PACKAGE = Path(acdkit.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def dead_imports(source: str) -> list:
    """Names a module imports but neither uses nor lists in __all__.

    __future__ imports are left out.
    """
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
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_dead_import_check_finds_an_unused_name():
    source = ("from __future__ import annotations\nimport os, numpy as np\n"
              "from .a import b, c\n__all__ = ['c']\nnp.zeros(1)\n")
    assert dead_imports(source) == [(2, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert dead_imports(path.read_text()) == []
