"""Superboolean cells are private to their module: no other module of the
package names `SBool` or its scalars `ZERO`, `ONE` and `GHOST`, so how a
cell is stored is decided in one place.  Other modules read a matrix
through its (nonzero, plain-1) masks or its 0/1 rows, and build one from
0/1 ints or masks.  The package's `__init__` re-exports the names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boolrep"
OWNER = PACKAGE / "sbool.py"
EXPORTER = PACKAGE / "__init__.py"
OTHERS = sorted(p for p in PACKAGE.glob("*.py") if p not in (OWNER, EXPORTER))
CELLS = {"SBool", "ZERO", "ONE", "GHOST"}


def names_of_cells(path):
    """(line, name) pairs where the module names a cell name: as a name, an
    attribute, an import or a string."""
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
        else:
            continue
        if isinstance(name, str) and name in CELLS:
            found.append((node.lineno, name))
    return found


def test_the_owner_and_the_exporter_name_the_cells():
    assert OTHERS
    assert {name for _, name in names_of_cells(OWNER)} == CELLS
    assert {name for _, name in names_of_cells(EXPORTER)} == CELLS


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.name)
def test_no_other_module_names_a_cell(path):
    assert names_of_cells(path) == [], f"{path.name} names a superboolean cell"
