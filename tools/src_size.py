"""Print the size of the package source, per module and in total.

For each ``*.py`` module of a directory (the package ``src/arevlex`` by
default), prints its non-blank, non-comment lines and how many of them lie
outside docstrings, then the totals.  A comment line is one whose first
non-blank character is ``#``.  Docstrings are those of the module, its
classes and its functions, as ``ast`` finds them; every line from a
docstring's first to its last counts as a docstring line.

    python3 tools/src_size.py [DIR]

Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arevlex"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(non-blank non-comment lines, those of them outside docstrings)."""
    docs = docstring_lines(ast.parse(source))
    code = [i for i, line in enumerate(source.splitlines(), 1)
            if line.strip() and not line.lstrip().startswith("#")]
    return len(code), sum(i not in docs for i in code)


def table(rows: list[tuple[str, int, int]]) -> list[str]:
    rows = rows + [("total", sum(r[1] for r in rows), sum(r[2] for r in rows))]
    width = max(len(name) for name, _, _ in rows)
    lines = [f"{'module':<{width}}  {'lines':>6}  {'outside docstrings':>18}"]
    lines += [f"{name:<{width}}  {total:>6}  {code:>18}" for name, total, code in rows]
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    directory = Path(argv[0]) if argv else PACKAGE
    paths = sorted(directory.glob("*.py"))
    if not paths:
        print(f"no *.py in {directory}", file=sys.stderr)
        return 1
    print("\n".join(table([(p.name, *count(p.read_text())) for p in paths])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
