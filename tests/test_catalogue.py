import pytest

from edcert.catalogue import (
    GroupSpec,
    build,
    family_overrides,
    parse_group_spec,
)
from edcert.errors import ParseError, ValidationError
from edcert.permgroup import EdcertInternalError, PermGroup, StabilizerChain, _is_prime, min_proper_subgroup_index


def test_parse_families():
    assert parse_group_spec("A:7") == GroupSpec(kind="alternating", n=7)
    assert parse_group_spec("PSL2:13").kind == "psl2"
    assert parse_group_spec(" S : 5 ").n == 5
    assert parse_group_spec("D:9").canonical() == "D:9"


def test_specs_differing_only_in_whitespace_are_equal():
    assert parse_group_spec(" A:7") == parse_group_spec("A : 7 ") == parse_group_spec("A:7")
    assert parse_group_spec("perm:4: (0 1 2 3), (0 1)") == parse_group_spec("perm:4:(0 1 2 3),(0 1)")


def test_parse_explicit():
    spec = parse_group_spec("perm:4:(0 1 2 3),(0 1)")
    assert spec.kind == "explicit"
    assert spec.degree == 4
    assert spec.cycles == ("(0 1 2 3)", "(0 1)")
    assert build(spec).order == 24  # generates S4


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_group_spec("Q:5")
    assert err.value.position == 0
    with pytest.raises(ParseError):
        parse_group_spec("A:x")
    with pytest.raises(ParseError):
        parse_group_spec("A7")
    with pytest.raises(ParseError):
        parse_group_spec("perm:4:(0 1")
    with pytest.raises(ParseError):
        parse_group_spec("")


def test_validation_errors():
    with pytest.raises(ValidationError):
        parse_group_spec("PSL2:6")  # composite
    with pytest.raises(ValidationError):
        parse_group_spec("PSL2:3")  # below 5
    with pytest.raises(ValidationError):
        parse_group_spec("D:1")
    with pytest.raises(ValidationError):
        parse_group_spec("A:0")
    with pytest.raises(ValidationError):
        parse_group_spec("perm:3:(0 3)")  # point outside degree
    with pytest.raises(ValidationError):
        parse_group_spec("perm:4:(0 1)(1 2)")  # not disjoint


def test_round_trip_is_canonical():
    for text in ("A:7", "PSL2:13", " C: 9", "perm:4:(0 1 2 3),(0 1)", "perm:5:(0 1)(2 3 4)"):
        first = parse_group_spec(text).canonical()
        assert parse_group_spec(first).canonical() == first


@pytest.mark.parametrize(
    "text,order,degree",
    [
        ("A:5", 60, 5),
        ("A:2", 1, 2),
        ("A:3", 3, 3),
        ("S:1", 1, 1),
        ("S:6", 720, 6),
        ("C:1", 1, 1),
        ("C:11", 11, 11),
        ("D:2", 4, 4),
        ("D:3", 6, 3),
        ("D:7", 14, 7),
        ("PSL2:5", 60, 6),
        ("PSL2:7", 168, 8),
    ],
)
def test_builders(text, order, degree):
    g = build(parse_group_spec(text))
    assert g.order == order
    assert g.degree == degree


def test_psl2_orders_match_formula(group_of):
    for p in range(5, 200):
        if not _is_prime(p):
            continue
        g = group_of(f"PSL2:{p}")
        # the family order, against a chain built without it as a bound
        assert StabilizerChain(g.generators, g.degree).order() == g.order == p * (p * p - 1) // 2
        assert g.degree == p + 1


@pytest.mark.parametrize(
    "text", [f"{family}:{n}" for family in "ASC" for n in range(1, 13)] + [f"D:{n}" for n in range(2, 13)] + ["PSL2:7"]
)
def test_family_order_is_the_chains(text):
    # a fresh group answers its order from the formula, with no chain; a
    # chain built without the formula as a bound must reach it exactly
    # (PSL2(p) for p < 200 in test_psl2_orders_match_formula)
    g = build(parse_group_spec(text))
    assert g._built is None
    assert StabilizerChain(g.generators, g.degree).order() == g.order
    assert g._chain.order() == g.order
    assert g._built is not None


def test_a_wrong_family_order_fails_on_first_chain_use():
    # |A5| = 60, not 120: every question that builds the chain raises, and
    # none of them answers from the wrong order
    gens = build(parse_group_spec("A:5")).generators
    for use in (
        lambda g: g.is_simple_nonabelian(),
        lambda g: g._simplicity_from_chain(),
        lambda g: g.elements(),
        lambda g: g.element_orders(),
        lambda g: g.conjugacy_classes(),
        lambda g: g.orbit_sizes(),
        lambda g: g.generators[0] in g,
    ):
        g = PermGroup(gens, degree=5, order=120)
        assert g.order == 120  # read from the formula, which the chain has not checked yet
        with pytest.raises(EdcertInternalError, match="differs from the given order 120"):
            use(g)
        with pytest.raises(EdcertInternalError):
            use(g)  # no second use answers either


def test_family_overrides():
    assert family_overrides(parse_group_spec("PSL2:13")).min_proper_index == 14
    assert family_overrides(parse_group_spec("PSL2:7")).min_proper_index == 7
    # Dickson: A5 in PSL2(5) = A5 itself, D_106 in PSL2(53), S4 in PSL2(7)
    assert [family_overrides(parse_group_spec(f"PSL2:{p}")).max_mobius_order for p in (5, 53, 7)] == [60, 106, 24]
    assert family_overrides(parse_group_spec("PSL2:11")).min_proper_index == 11
    assert family_overrides(parse_group_spec("PSL2:13")).max_element_order == 13
    assert family_overrides(parse_group_spec("A:7")).min_proper_index == 7
    assert family_overrides(parse_group_spec("A:4")) is None
    assert family_overrides(parse_group_spec("C:6")) is None
    assert family_overrides(parse_group_spec("D:5")) is None


def test_overrides_agree_with_brute_force_oracle(group_of):
    for text in ("A:5", "A:6", "PSL2:7"):
        spec = parse_group_spec(text)
        expected = family_overrides(spec).min_proper_index
        assert min_proper_subgroup_index(group_of(text)) == expected


def test_override_max_element_order_agrees_with_enumeration(group_of):
    for p in (5, 7, 11, 13):
        spec = parse_group_spec(f"PSL2:{p}")
        assert group_of(spec.canonical()).max_element_order() == family_overrides(spec).max_element_order


def test_parse_explicit_error_variants():
    with pytest.raises(ParseError):
        parse_group_spec("perm:4:abc")
    with pytest.raises(ParseError):
        parse_group_spec("perm:4:(0 x)")
    with pytest.raises(ParseError):
        parse_group_spec("perm:4:(0 1),,(2 3)")
    with pytest.raises(ParseError):
        parse_group_spec("perm:x:(0 1)")
    with pytest.raises(ParseError):
        parse_group_spec("perm:4")
    with pytest.raises(ValidationError):
        parse_group_spec("perm:0:()")
