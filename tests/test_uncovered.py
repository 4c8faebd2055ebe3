"""`tools/uncovered.py`, the statements a pytest run never executes: run
in process on a sample whose unexecuted lines are known, and as a script
on one test module."""

import ast
import runpy
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "uncovered.py"
TOOL = runpy.run_path(str(SCRIPT))

SAMPLE = textwrap.dedent('''\
    """Module docstring."""
    import os

    LIMIT = 2


    class Box:
        """Class docstring."""

        size = 1

        def grow(self, by):
            """Method docstring."""
            try:
                self.size += by
            except TypeError:
                self.size = 0
            return self


    def split(value):
        if value > LIMIT:
            return (
                value
                - LIMIT
            )
        for _ in range(value):
            pass
        return os.sep
''')


def test_statement_lines_skip_docstrings_headers_and_imports():
    lines = TOOL["statement_lines"](SAMPLE)
    assert sorted(lines) == [4, 10, 14, 15, 17, 18, 22, 23, 27, 28, 29]
    assert lines[23] == range(23, 27)  # a simple statement: all its lines
    assert lines[22] == range(22, 23)  # a compound one: its header only
    assert TOOL["statement_lines"]("") == {}


def test_a_traced_call_leaves_the_known_lines_unexecuted(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")

    def call():
        space = runpy.run_path(str(path))
        space["Box"]().grow(1)
        return space["split"](3)

    previous = sys.gettrace()
    result, executed = TOOL["run_traced"](tmp_path, call)
    assert sys.gettrace() is previous
    assert result == 1
    assert list(executed) == [str(path.resolve())]
    # the except branch, the loop and the last return never ran
    assert TOOL["unexecuted"](SAMPLE, executed[str(path.resolve())]) == [17, 27, 28, 29]


def _body_lines(source, name):
    """First lines of the statements inside the function `name`."""
    node = next(
        n for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.FunctionDef) and n.name == name
    )
    return {line for line in TOOL["statement_lines"](source) if node.lineno < line <= node.end_lineno}


def test_the_script_lists_what_one_test_module_leaves_unexecuted():
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_bitops.py")],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    report = run.stdout.splitlines()
    start = next(i for i, line in enumerate(report) if line.startswith("__init__ "))
    *modules, total = [line.split(None, 2) for line in report[start:]]
    counts = {row[0]: int(row[1]) for row in modules}
    assert list(counts) == [p.stem for p in sorted((ROOT / "src" / "boolrep").glob("*.py"))]
    assert total[0] == "total" and int(total[1]) == sum(counts.values())
    # test_bitops checks the transpose only: the other two helpers never run
    source = (ROOT / "src" / "boolrep" / "bitops.py").read_text(encoding="utf-8")
    bitops = next(row for row in modules if row[0] == "bitops")
    assert {int(x) for x in bitops[2].split(", ")} == (
        _body_lines(source, "bits") | _body_lines(source, "mask_of")
    )
