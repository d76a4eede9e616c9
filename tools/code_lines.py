#!/usr/bin/env python3
"""Physical and code lines per Python module, with a total per tree.

A code line holds a token of the program: blank lines, comment lines and the
lines of module, class and function docstrings are not code lines.  A line
that only continues a multi-line string or bracket is a code line.

    python3 tools/code_lines.py              # src/ and tests/ of this repository
    python3 tools/code_lines.py DIR_OR_FILE ...
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(physical lines, code lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main(paths: list[str]) -> None:
    for top in map(Path, paths or [ROOT / "src", ROOT / "tests"]):
        files = sorted(top.rglob("*.py")) if top.is_dir() else [top]
        totals = [0, 0]
        for path in files:
            physical, code = count(path)
            totals[0] += physical
            totals[1] += code
            print(f"{physical:7} {code:7}  {path.relative_to(top) if top.is_dir() else path}")
        print(f"{totals[0]:7} {totals[1]:7}  total {top}  (physical, code)\n")


if __name__ == "__main__":
    main(sys.argv[1:])
