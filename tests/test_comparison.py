from edcert.comparison import (
    RULE_CYCLIC,
    RULE_DIHEDRAL,
    RULE_KLEIN_FOUR,
    RULE_NONE,
    RULE_RANK2,
    compare_rhs,
)


def report_for(group_of, text, n):
    return compare_rhs(group_of(text), n)


def test_a7_baseline(group_of):
    rep = report_for(group_of, "A:7", 6)
    rules = {e.prime: e.rule for e in rep.entries}
    assert rules == {
        2: RULE_DIHEDRAL,
        3: RULE_RANK2,
        5: RULE_CYCLIC,
        7: RULE_CYCLIC,
    }
    assert {e.prime: e.sylow.order for e in rep.entries} == {2: 8, 3: 9, 5: 5, 7: 7}
    assert rep.rhs_upper_bound == 1
    assert rep.strict
    assert any("dihedral" in note for note in rep.notes)


def test_psl2_7_baseline(group_of):
    rep = report_for(group_of, "PSL2:7", 2)
    assert rep.rhs_upper_bound == 1
    assert rep.strict
    assert {e.prime: e.rule for e in rep.entries} == {
        2: RULE_DIHEDRAL,
        3: RULE_CYCLIC,
        7: RULE_CYCLIC,
    }


def test_psl2_11_uses_klein_four_rule(group_of):
    rep = report_for(group_of, "PSL2:11", 3)
    rules = {e.prime: e.rule for e in rep.entries}
    assert rules[2] == RULE_KLEIN_FOUR  # rank-2 rule needs p | n, which 2 | 3 fails
    assert rep.rhs_upper_bound == 1
    assert rep.strict


def test_psl2_13_baseline(group_of):
    rep = report_for(group_of, "PSL2:13", 4)
    assert rep.rhs_upper_bound == 1
    assert rep.strict


def test_c6_bounds_without_strictness(group_of):
    rep = report_for(group_of, "C:6", 2)
    assert rep.rhs_upper_bound == 1
    assert not rep.strict  # no certificate: not a nonabelian simple group
    assert rep.certificate_overall != "certified"
    assert all(e.rule == RULE_CYCLIC for e in rep.entries)


def test_rank2_rule_requires_divisibility(group_of):
    # 3-Sylow of A7 is rank-2 elementary abelian; at n = 4 the rule 3 | 4 fails
    rep = report_for(group_of, "A:7", 4)
    rules = {e.prime: e.rule for e in rep.entries}
    assert rules[3] == RULE_NONE
    assert rep.rhs_upper_bound is None
    assert not rep.strict


def test_regimes_recorded(group_of):
    rep = report_for(group_of, "A:7", 6)
    regimes = {e.prime: e.regime for e in rep.entries}
    assert regimes == {2: "p<=n", 3: "p<=n", 5: "p<=n", 7: "p>n"}


def test_report_is_deterministic(group_of):
    one = report_for(group_of, "PSL2:11", 3).to_json()
    two = report_for(group_of, "PSL2:11", 3).to_json()
    assert one == two
