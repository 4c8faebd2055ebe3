"""The runtime is pure standard library: every import in the package is a
standard-library module or a module of the package itself.  The reference
code (the test oracles and the benchmark's input generator) imports the
standard library only, never the package it checks."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "boolrep"
SOURCES = sorted(PACKAGE.glob("*.py"))
INDEPENDENT = [ROOT / "tests" / "oracles.py", ROOT / "perfbench" / "inputs.py"]


def _imports(path):
    """(line, module, relative level) of every import in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name, 0
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, node.module, node.level


def test_package_sources_are_found():
    assert PACKAGE / "__init__.py" in SOURCES
    assert PACKAGE / "sbool.py" in SOURCES
    assert all(path.is_file() for path in INDEPENDENT)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_package_relative(path):
    for lineno, name, level in _imports(path):
        if level:
            # one dot stays inside the flat package; more would leave it
            assert level == 1, f"{path.name}:{lineno} leaves the package"
            continue
        top = name.split(".")[0]
        assert top in sys.stdlib_module_names, (
            f"{path.name}:{lineno} imports {name!r}, not standard library"
        )


@pytest.mark.parametrize("path", INDEPENDENT, ids=lambda p: p.name)
def test_reference_code_imports_only_the_standard_library(path):
    for lineno, name, level in _imports(path):
        assert level == 0, f"{path.name}:{lineno} has a relative import"
        top = name.split(".")[0]
        assert top != "boolrep", f"{path.name}:{lineno} imports the package"
        assert top in sys.stdlib_module_names, (
            f"{path.name}:{lineno} imports {name!r}, not standard library"
        )
