"""Count the code lines of a source tree, per module and in all.

    python tools/code_lines.py [SRC]

SRC defaults to this checkout's ``src``. A code line is one that is not
blank, not a comment alone, and not part of a module, class or function
docstring (the string that opens the body). Any other string, a later
string expression included, counts. It prints one ``count path`` line per
module, in path order, then ``total``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCSTRING_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    skip = docstring_lines(ast.parse(source))
    return sum(
        1 for number, line in enumerate(source.splitlines(), 1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: python tools/code_lines.py [SRC]", file=sys.stderr)
        return 2
    src = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src"
    total = 0
    for path in sorted(src.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6,} {path.relative_to(src)}")
    print(f"{total:6,} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
