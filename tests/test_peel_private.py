"""The peel's format stays in `sbool` and `extraction`; the rule and its
reason are `RULES["peel"]` in `private_names`."""

from private_names import rule_checks

test_the_owners_name_the_peel, test_no_other_module_names_the_peel = rule_checks(
    "peel", each_owner=True
)
