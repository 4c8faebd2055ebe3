"""The peel's data format is private to the modules that run it: only
`sbool.py`, which defines `_peel` and the column masks it reads, and
`extraction.py`, whose reducers peel certificates on those masks, name
`_peel` or `_col_masks`.  Every other module asks a matrix method or the
grower (`hereditary_from_matrix` wraps it), so the format can change in
those two places."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boolrep"
OWNERS = {PACKAGE / "sbool.py", PACKAGE / "extraction.py"}
OTHERS = sorted(p for p in PACKAGE.glob("*.py") if p not in OWNERS)
PRIVATE = {"_peel", "_col_masks"}


def names_of_the_peel(path):
    """(line, name) pairs where the module names `_peel` or `_col_masks`:
    as a name, an attribute, an imported name or a string."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant):
            name = node.value
        elif isinstance(node, ast.FunctionDef):
            name = node.name
        else:
            continue
        if name in PRIVATE:
            found.append((getattr(node, "lineno", 0), name))
    return found


@pytest.mark.parametrize("path", sorted(OWNERS), ids=lambda p: p.name)
def test_the_owners_name_the_peel(path):
    assert {name for _, name in names_of_the_peel(path)} == PRIVATE


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.name)
def test_no_other_module_names_the_peel(path):
    assert names_of_the_peel(path) == [], f"{path.name} names the peel or its masks"
