"""The peel's format stays in `sbool` and `extraction`; the rule and its
reason are `RULES["peel"]` in `private_names`."""

import pytest

from private_names import RULES, named, names_in

RULE = RULES["peel"]


@pytest.mark.parametrize("path", RULE.owner_paths, ids=lambda p: p.name)
def test_the_owners_name_the_peel(path):
    assert named(path, RULE) == RULE.names


@pytest.mark.parametrize("path", RULE.others, ids=lambda p: p.name)
def test_no_other_module_names_the_peel(path):
    assert names_in(path, RULE.names) == [], f"{path.name}: {RULE.reason}"
