"""The matroid's extension table is private to its module: no other module
of the package reads `_extensions`, so the table's format can change in one
place."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boolrep"
OWNER = PACKAGE / "matroid.py"
OTHERS = sorted(p for p in PACKAGE.glob("*.py") if p != OWNER)


def reads_of_the_table(path):
    """Line numbers where the module names `_extensions`, as an attribute or
    as a string (as `getattr` would take it)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "_extensions")
        or (isinstance(node, ast.Constant) and node.value == "_extensions")
    ]


def test_the_owner_reads_the_table():
    assert OTHERS and reads_of_the_table(OWNER)


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.name)
def test_no_other_module_reads_the_table(path):
    assert reads_of_the_table(path) == [], f"{path.name} reads Matroid._extensions"
