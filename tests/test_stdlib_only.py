"""The runtime is pure standard library: every import in the package is a
standard-library module or a module of the package itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boolrep"
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_package_sources_are_found():
    assert PACKAGE / "__init__.py" in SOURCES
    assert PACKAGE / "sbool.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_package_relative(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom):
            # one dot stays inside the flat package; more would leave it
            assert node.level == 1, f"{path.name}:{node.lineno} leaves the package"
            continue
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names, (
                f"{path.name}:{node.lineno} imports {name!r}, not standard library"
            )
