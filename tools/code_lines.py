"""Count the code lines of the package: the lines of each src/glbounds/*.py
that hold code, that is, neither blank, nor comment only, nor part of a
module, class or function docstring.

Run from anywhere as ``python tools/code_lines.py``; it prints one line per
module, ``<count> <file name>``, then ``<total> total``. Pass other files
to count them instead. Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "glbounds"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree: ast.Module) -> set[tuple[int, int]]:
    """The (line, column) where each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of source that hold a token of code: a docstring,
    a comment and a line break are not code; a line of any other string is."""
    docstrings = _docstrings(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or sorted(PACKAGE.glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path.name}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
