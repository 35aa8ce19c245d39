"""Rules about the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "assocsort"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips asserts, so a runtime guard must raise instead.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_package_exports_each_module_list_once():
    import assocsort
    from assocsort import bench, data_io, engine, generators, oracles

    modules = (bench, data_io, engine, generators, oracles)
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
    expected = [name for module in modules for name in module.__all__] + ["__version__"]
    assert assocsort.__all__ == expected
    assert len(set(expected)) == len(expected)
    namespace: dict = {}
    exec("from assocsort import *", namespace)
    assert set(assocsort.__all__) <= namespace.keys()


def _parameters(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = func.args
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return [arg.arg for arg in every if arg is not None]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_parameters(path):
    # A parameter no body reads is a dead knob that callers still have to set.
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {
            node.id
            for stmt in func.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [f"{func.name}({name})" for name in _parameters(func) if name not in read]
    assert not unused, f"{path.name} has unused parameters: {unused}"
