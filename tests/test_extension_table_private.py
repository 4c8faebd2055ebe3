"""The extension table stays in `matroid`; the rule and its reason are
`RULES["extension table"]` in `private_names`."""

from private_names import rule_checks

test_the_owner_reads_the_table, test_no_other_module_reads_the_table = rule_checks(
    "extension table", each_owner=False
)
