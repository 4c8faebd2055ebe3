"""`tools/code_lines.py`, the per-module code line count, run as a script
and on a sample whose count is known."""

import runpy
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "code_lines.py"


def test_the_script_counts_every_module_and_their_sum():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    *modules, total = [line.split() for line in run.stdout.splitlines()]
    counts = {name: int(count.replace(",", "")) for name, count in modules}
    assert list(counts) == [p.stem for p in sorted((ROOT / "src" / "boolrep").glob("*.py"))]
    assert all(count > 0 for count in counts.values())
    assert total[0] == "total" and int(total[1].replace(",", "")) == sum(counts.values())


SAMPLE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    import os  # code with a comment: counted

    # a comment line
    "a bare string after the docstring: counted"


    class Thing:
        """Class docstring."""

        def method(self):
            """Method docstring,
            over two lines."""
            "a bare string in a body: counted"
            return os.sep


    async def waiting():
        """Async function docstring."""
        return 1
''')


def test_code_lines_skips_blanks_comments_and_docstrings_only():
    code_lines = runpy.run_path(str(SCRIPT))["code_lines"]
    # import, module string, class, def, method string, return, async def, return
    assert code_lines(SAMPLE) == 8
    assert code_lines("") == 0
