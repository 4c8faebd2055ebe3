"""Count the code lines of each module of the `boolrep` package.

A code line is a non-blank line that is neither a `#` comment nor part of
a module, class or function docstring.  Standard library only; it reads
the sources and imports nothing from the package.

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to `src/boolrep` next to this script's parent.
Prints one line per module, then the total.
"""

import ast
import sys
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in skip
    )


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "boolrep"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem:<12} {count:>6,}")
    print(f"{'total':<12} {total:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
