#!/usr/bin/env python3
"""Count the lines of the package source: all lines, and code lines.

Code lines leave out blank lines, comment-only lines and the lines of
module, class and function docstrings (found with ast); every other line
that holds a token counts once. Run from the repository root:

    python3 scripts/src_lines.py [DIR]    # DIR defaults to src
"""
import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def count(text: str) -> tuple[int, int]:
    """(all lines, code lines) of one Python source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            value = first.value if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dir", nargs="?", default="src")
    root = Path(ap.parse_args().dir)
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        lines, code_lines = count(path.read_text())
        total += lines
        code += code_lines
    print(f"{root}: {total} lines, {code} code lines")


if __name__ == "__main__":
    main()
