"""Each module's `__all__` is the one list of what the package exports
from it: every listed name is defined in its module, every exception
`errors` defines is listed, and the package binds each listed name to its
module's own object."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import boolrep
from boolrep import catalog, errors, extraction, lattice, matroid, partitions, sbool

PACKAGE = Path(boolrep.__file__).resolve().parent
LISTING = [
    module
    for path in sorted(PACKAGE.glob("*.py"))
    if path.stem != "__init__"
    and hasattr(module := importlib.import_module(f"boolrep.{path.stem}"), "__all__")
]


def top_level_names(path: Path) -> set[str]:
    """Names a module defines at its top level, by `def`, `class` or an
    assignment target."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("module", LISTING, ids=lambda module: module.__name__)
def test_every_listed_name_is_defined_at_its_module_top_level(module):
    defined = top_level_names(Path(module.__file__))
    assert [name for name in module.__all__ if name not in defined] == []


def test_errors_lists_every_exception_it_defines():
    defined = {
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, errors.BoolrepError)
        and obj.__module__ == errors.__name__
    }
    assert sorted(defined - set(errors.__all__)) == []


def test_the_package_exports_its_modules_lists_and_their_objects():
    modules = (sbool, matroid, lattice, partitions, extraction, catalog, errors)
    assert boolrep.__all__ == [name for module in modules for name in module.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(boolrep, name) is getattr(module, name)
