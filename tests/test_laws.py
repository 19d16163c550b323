"""Verdict-consistency laws that any right-or-`unknown` certifier keeps.

Law (e), modes: no condition reads `certified` in one mode and `refuted` in
another.  And no `refuted` stands without grounds a referee can check: a
witness (conditions 2 and 3), a witness subgroup (condition 1), or one of
two named rules, the genus <= 1 rule (A5 acts on the line) and the
literature d(G) (a proper subgroup of that index exists).  Law (a), caps,
runs on the CLI corpus in CI (``scripts/compare_corpora.py``).
"""

from collections import defaultdict

import pytest

from edcert.catalogue import build, parse_group_spec
from edcert.certifier import CERTIFIED, MODES, REFUTED, certify

GROUPS = [f"PSL2:{p}" for p in (7, 11, 13, 17, 19, 23, 29, 31)] + [f"A:{k}" for k in (5, 6, 7, 8)]
NS = range(2, 41)
NAMED_RULES = {"genus_le1_rule", "literature_override"}


@pytest.fixture(scope="module")
def sweep():
    """(group, n, condition) -> {mode: report} over every mode, each group built once."""
    reports = defaultdict(dict)
    for text in GROUPS:
        group = build(parse_group_spec(text))
        for mode in MODES:
            for n in NS:
                for report in certify(group, n, mode).conditions:
                    reports[text, n, report.condition][mode] = report
    assert sum(map(len, reports.values())) == len(GROUPS) * len(NS) * 3 * len(MODES)  # 4,212 conditions
    return reports


def test_no_condition_is_certified_in_one_mode_and_refuted_in_another(sweep):
    conflicts = [key for key, by_mode in sweep.items()
                 if {CERTIFIED, REFUTED} <= {report.verdict for report in by_mode.values()}]
    assert not conflicts


def test_every_refutation_carries_a_witness_or_a_named_rule(sweep):
    bare = [(key, mode, report.method)
            for key, by_mode in sweep.items() for mode, report in by_mode.items()
            if report.verdict == REFUTED and report.method not in NAMED_RULES
            and not {"witness", "witness_subgroup"} & report.detail.keys()]
    assert not bare
