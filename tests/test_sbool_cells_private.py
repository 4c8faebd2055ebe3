"""Superboolean cells stay in `sbool`, re-exported by the package; the rule
and its reason are `RULES["cells"]` in `private_names`."""

import pytest

from private_names import RULES, named, names_in

RULE = RULES["cells"]


def test_the_owner_and_the_exporter_name_the_cells():
    assert RULE.others
    assert all(named(path, RULE) == RULE.names for path in RULE.owner_paths)


@pytest.mark.parametrize("path", RULE.others, ids=lambda p: p.name)
def test_no_other_module_names_a_cell(path):
    assert names_in(path, RULE.names) == [], f"{path.name}: {RULE.reason}"
