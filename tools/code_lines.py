"""Count the code lines of Python files: no blank, comment or docstring lines.

Usage: ``python tools/code_lines.py PATH...``.  A directory stands for every
``*.py`` file under it.  A line counts when it holds any token other than a
comment, a newline, an indent or a dedent; a string token spanning several
lines holds each of them.  The lines of every module, class and function
docstring are then taken out.  Prints one line per file and a total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_code_lines(source: str) -> int:
    """Return the number of code lines in ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for arg in argv:
        path = Path(arg)
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            count = count_code_lines(file.read_text())
            total += count
            print(f"{count:6d} {file}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
