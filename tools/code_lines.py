"""Count the code lines of each module of src/qortho.

A code line is a line that carries a token of code: blank lines, comment
lines and the lines of docstrings (the string that opens a module, class
or function body) are not counted.  Run from anywhere:

    python tools/code_lines.py

It prints one "module lines" row per module and then the total.
"""
from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qortho"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings of tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines of the Python source text."""
    docstrings = _docstring_lines(ast.parse(text))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    total = 0
    for path in sorted(SOURCE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print("%s %d" % (path.stem, count))
    print("total %d" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
