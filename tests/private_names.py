"""Private formats and the modules that own them, read by one AST scan.

Each rule gives the modules that own a format, the private names that
reach into it, and why it stays there.  Each rule's tests check both
ways: every owner names every one of the names, and no other module of
the package names any.  A module names a name as a variable, an
attribute, an imported name, a string (as `getattr` would take it) or a
function it defines.  `rule_checks` makes the two tests of a rule; each
`test_*_private` module binds those of one rule under its own names.
"""

import ast
from pathlib import Path
from typing import NamedTuple

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boolrep"


class Rule(NamedTuple):
    owners: tuple[str, ...]
    names: frozenset[str]
    reason: str

    @property
    def owner_paths(self) -> list[Path]:
        return [PACKAGE / owner for owner in self.owners]

    @property
    def others(self) -> list[Path]:
        return sorted(p for p in PACKAGE.glob("*.py") if p.name not in self.owners)


RULES = {
    "peel": Rule(
        ("extraction.py", "sbool.py"),
        frozenset({"_peel", "_col_masks"}),
        "The peel's data format is private to the modules that run it: `sbool`, "
        "which defines `_peel` and the column masks it reads, and `extraction`, "
        "whose reducers peel certificates on those masks.  Every other module "
        "asks a matrix method or the grower (`hereditary_from_matrix` wraps it), "
        "so the format can change in those two places.",
    ),
    "extension table": Rule(
        ("matroid.py",),
        frozenset({"_extensions", "_completions", "_span", "_greedy_basis"}),
        "The matroid's extension table and the helpers that read it are private "
        "to its module, so the table's format can change in one place.  Other "
        "modules ask the public oracle (`closure_mask`, `rank_of_mask`) instead.",
    ),
    "cells": Rule(
        ("__init__.py", "sbool.py"),
        frozenset({"SBool", "ZERO", "ONE", "GHOST"}),
        "Superboolean cells are private to their module, so how a cell is stored "
        "is decided in one place.  Other modules read a matrix through its "
        "(nonzero, plain-1) masks or its 0/1 rows, and build one from 0/1 ints "
        "or masks.  The package's `__init__` re-exports the names.",
    ),
}


def names_in(path: Path, names) -> list[tuple[int, str]]:
    """(line, name) pairs where the module names one of `names`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        elif isinstance(node, ast.FunctionDef):
            name = node.name
        else:
            continue
        if name in names:
            found.append((getattr(node, "lineno", 0), name))
    return found


def named(path: Path, rule: Rule) -> set[str]:
    """The rule's names that the module names."""
    return {name for _, name in names_in(path, rule.names)}


def rule_checks(key: str, each_owner: bool):
    """The two tests of `RULES[key]`: every owner names every name (one
    test per owner when `each_owner`, else one for them all), and no other
    module names any (one test per module)."""
    rule = RULES[key]
    if each_owner:
        @pytest.mark.parametrize("path", rule.owner_paths, ids=lambda p: p.name)
        def owners(path):
            assert named(path, rule) == rule.names
    else:
        def owners():
            assert rule.others
            assert all(named(path, rule) == rule.names for path in rule.owner_paths)

    @pytest.mark.parametrize("path", rule.others, ids=lambda p: p.name)
    def others(path):
        assert names_in(path, rule.names) == [], f"{path.name}: {rule.reason}"

    return owners, others
