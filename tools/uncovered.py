"""List the statements of the `boolrep` package that a pytest run never
executes.

No coverage package is needed: `pytest.main(PYTEST_ARGS)` runs in this
process under the standard library's `sys.settrace` and
`threading.settrace`, and only frames whose code lies in `src/boolrep`
are traced line by line.  A statement is every `ast` statement but
docstrings, `def` and `class` headers, imports and `global`/`nonlocal`
declarations; it ran when a line event fell on its own lines (for a
compound statement, the lines before its body).

    python3 tools/uncovered.py [PYTEST_ARGS...]

Run it from the root of the repository.  PYTEST_ARGS default to `-q` and
the suite's two test directories.  Prints pytest's report, then one line
per module (its count of statements that never ran, then their line
numbers), then the total; exits with pytest's status.  Tests that run the
CLI as a subprocess are not traced, so lines only they reach are listed.
Tracing every call makes a full run take about three times as long as the
untraced suite.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "boolrep"
DEFAULT_ARGS = ["-q", str(ROOT / "tests"), str(ROOT / "perfbench" / "tests")]
SKIPPED = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
    ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal,
)


def _is_docstring(node: ast.AST, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statement_lines(source: str) -> dict[int, range]:
    """Each statement's first line, mapped to the lines whose events count
    as running it: all of a simple statement's lines, and a compound
    statement's lines before its body."""
    out = {}
    for parent in ast.walk(ast.parse(source)):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
                continue
            if _is_docstring(node, parent):
                continue
            body = getattr(node, "body", None)
            last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
            out[node.lineno] = range(node.lineno, last + 1)
    return out


def unexecuted(source: str, executed: set[int]) -> list[int]:
    """First lines of the statements none of whose lines ran."""
    return sorted(
        line
        for line, own in statement_lines(source).items()
        if executed.isdisjoint(own)
    )


def run_traced(root: Path, call):
    """(call's result, {source path: executed line numbers}) for the code
    in files directly under root; any tracer already set is restored."""
    root = root.resolve()
    executed: dict[str, set[int]] = {}
    wanted: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in wanted:
            wanted[name] = Path(name).resolve().parent == root
            if wanted[name]:
                executed.setdefault(name, set())
        return local if wanted[name] else None

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(start)
    threading.settrace(start)
    try:
        result = call()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    by_path: dict[str, set[int]] = {}
    for name, lines in executed.items():
        by_path.setdefault(str(Path(name).resolve()), set()).update(lines)
    return result, by_path


def main(argv: list[str]) -> int:
    status, executed = run_traced(PACKAGE, lambda: pytest.main(argv or DEFAULT_ARGS))
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = unexecuted(path.read_text(encoding="utf-8"), executed.get(str(path.resolve()), set()))
        total += len(lines)
        print(f"{path.stem:<12} {len(lines):>4}  {', '.join(map(str, lines))}".rstrip())
    print(f"{'total':<12} {total:>4}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
