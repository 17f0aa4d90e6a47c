"""Count the lines of the Python files under ``src/``.

    python3 tools/src_lines.py [DIR]

For each ``.py`` file under DIR (default: ``src/`` at the repository
root), and then in total, prints two numbers: all lines, and code lines.
A code line holds at least one token other than a comment, a newline or
an indent, and lies outside every module, class and function docstring.
Blank lines, comment-only lines and docstrings are therefore not code.
Uses only the standard library.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef,
                  ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _HAS_DOCSTRING) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one Python source file."""
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(source, filename=str(path)))
    code: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docs)


def main(argv: list[str]) -> int:
    base = Path(argv[0]) if argv else ROOT / "src"
    total_all = total_code = 0
    for path in sorted(base.rglob("*.py")):
        n_all, n_code = count(path)
        total_all += n_all
        total_code += n_code
        print(f"{n_all:6d} {n_code:6d}  {path.relative_to(base)}")
    print(f"{total_all:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
