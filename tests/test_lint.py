"""Source checks that need no linter: every module imports only what it uses,
every model error names itself as one, pixel matrices enter the library
through the one pair check, and every function the benchmark traces by
name exists."""

import ast
import importlib
import inspect
import json
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


def unprefixed_model_errors(source: str) -> list:
    """Lines that build a CorruptModelError whose message does not start with
    'corrupt model:', the prefix a user sees on every corrupt-model line."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and "CorruptModelError" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))):
            continue
        message = node.args[0] if node.args else None
        if isinstance(message, ast.JoinedStr):  # an f-string: its first part
            message = message.values[0] if message.values else None
        if not (isinstance(message, ast.Constant) and isinstance(message.value, str)
                and message.value.startswith("corrupt model:")):
            lines.append(node.lineno)
    return lines


def test_model_error_check_finds_an_unprefixed_message():
    source = ('raise CorruptModelError(f"corrupt model: bad {x}")\n'
              'raise CorruptModelError(f"missing blob {name}")\n'
              'raise io_formats.CorruptModelError("unknown term type")\n'
              'raise CorruptModelError(message)\n')
    assert unprefixed_model_errors(source) == [2, 3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_model_errors_start_with_corrupt_model(path):
    assert unprefixed_model_errors(path.read_text()) == []


def pixel_matrix_uses(source: str) -> list:
    """(line, enclosing function) of each use of as_pixel_matrix, by name or as an
    attribute; None for a use outside any function. Imports are not uses."""
    uses = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if "as_pixel_matrix" in (getattr(child, "id", None), getattr(child, "attr", None)):
                uses.append((child.lineno, function))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(ast.parse(source), None)
    return sorted(uses)


def test_pixel_matrix_check_finds_every_use():
    source = ("from .raster import as_pixel_matrix\n"
              "def as_pixel_matrix(m):\n    return m\n"
              "def entry(x):\n    return as_pixel_matrix(x)\n"
              "def helper(xs):\n    f = lambda m: raster.as_pixel_matrix(m)\n"
              "    return list(map(as_pixel_matrix, xs))\n"
              "top = as_pixel_matrix\n")
    assert pixel_matrix_uses(source) == [(5, "entry"), (7, "helper"), (8, "helper"), (9, None)]


def test_pixel_matrices_enter_only_through_the_pair_check():
    # A new entry point takes its x and y through raster._pixel_pair, which checks
    # them as pixel matrices and as one aligned pair; simulate takes one matrix.
    uses = {(path.stem, function) for path in PACKAGE.glob("*.py")
            for _, function in pixel_matrix_uses(path.read_text())}
    assert uses == {("raster", "_pixel_pair"), ("simulate", "pervasive_noise")}


BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def untraceable(names) -> list:
    """The `<layer>.<function>.<metric>` names whose function the tracer cannot wrap.

    bench/tracer.py wraps each public function that `acdkit.<layer>` itself
    defines; a name it did not wrap makes a traced run raise KeyError. Names
    of another form (`tune.points`, `trace.wall_s`) are left out.
    """
    missing = []
    for name in names:
        parts = name.split(".")
        if len(parts) != 3:
            continue
        layer, function, _ = parts
        module = importlib.import_module(f"acdkit.{layer}")
        obj = getattr(module, function, None)
        if (function.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__):
            missing.append(name)
    return missing


def test_untraceable_finds_names_the_tracer_does_not_wrap():
    names = ["simulate.pervasive_noise.s", "simulate.no_such.s", "raster._real.s",
             "raster.ImageCube.s", "cli.flatten.s", "tune.points", "trace.wall_s"]
    assert untraceable(names) == names[1:5]


def test_benchmark_traces_only_functions_that_exist():
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    assert untraceable(names) == []
