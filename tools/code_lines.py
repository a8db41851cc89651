"""Count the code lines of Python modules: lines that hold a token, less
blank, comment and docstring lines.

Usage: python tools/code_lines.py [PATH...]

Each PATH is a ``.py`` file or a directory searched for them (default:
``src/wnet``).  One line per module gives its count, then the total.  A
string token over several lines counts each of them; a docstring (the first
statement of a module, class or function, when it is a string) counts none.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def modules(paths: list[str]) -> list[Path]:
    found: list[Path] = []
    for path in map(Path, paths):
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str]) -> int:
    total = 0
    for path in modules(argv or ["src/wnet"]):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:7,d}  {path}")
    print(f"{total:7,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
