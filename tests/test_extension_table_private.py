"""The matroid's extension table and the helpers that read it are private to
its module: no other module of the package names `_extensions`, `_span` or
`_greedy_basis`, so the table's format can change in one place.  Other
modules ask the public oracle (`closure_mask`, `rank_of_mask`) instead."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boolrep"
OWNER = PACKAGE / "matroid.py"
OTHERS = sorted(p for p in PACKAGE.glob("*.py") if p != OWNER)
PRIVATE = {"_extensions", "_span", "_greedy_basis"}


def reads_of_the_table(path):
    """(line, name) pairs where the module names one of the private names,
    as an attribute or as a string (as `getattr` would take it)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.lineno, node.attr if isinstance(node, ast.Attribute) else node.value)
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in PRIVATE)
        or (isinstance(node, ast.Constant) and node.value in PRIVATE)
    ]


def test_the_owner_reads_the_table():
    assert OTHERS
    assert {name for _, name in reads_of_the_table(OWNER)} == PRIVATE


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.name)
def test_no_other_module_reads_the_table(path):
    assert reads_of_the_table(path) == [], f"{path.name} names a private matroid helper"
