"""Superboolean cells stay in `sbool`, re-exported by the package; the rule
and its reason are `RULES["cells"]` in `private_names`."""

from private_names import rule_checks

test_the_owner_and_the_exporter_name_the_cells, test_no_other_module_names_a_cell = rule_checks(
    "cells", each_owner=False
)
