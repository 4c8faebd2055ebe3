"""The extension table stays in `matroid`; the rule and its reason are
`RULES["extension table"]` in `private_names`."""

import pytest

from private_names import RULES, named, names_in

RULE = RULES["extension table"]


def test_the_owner_reads_the_table():
    assert RULE.others
    assert all(named(path, RULE) == RULE.names for path in RULE.owner_paths)


@pytest.mark.parametrize("path", RULE.others, ids=lambda p: p.name)
def test_no_other_module_reads_the_table(path):
    assert names_in(path, RULE.names) == [], f"{path.name}: {RULE.reason}"
