"""Rules about the package source itself."""

from __future__ import annotations

import ast
import subprocess
import sys
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


def test_code_line_tool_skips_blank_comment_and_docstring_lines(tmp_path):
    # Seven code lines: the docstrings, the comments and the blank lines
    # are not code, and a string that is not a docstring counts every line.
    fixture = tmp_path / "fixture.py"
    fixture.write_text(
        '"""Module docstring,\n'
        'on two lines."""\n'
        "\n"
        "# a comment\n"
        "import os\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        '    s = """a\n'
        'b"""\n'
        "    return x  # a trailing comment\n"
        "\n"
        "\n"
        "class C:\n"
        "    '''Class docstring.'''\n"
        "    y = 1\n"
    )
    tool = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    out = subprocess.run(
        [sys.executable, str(tool), str(fixture)], capture_output=True, text=True, check=True
    ).stdout
    assert [line.split() for line in out.splitlines()] == [["7", str(fixture)], ["7", "total"]]
