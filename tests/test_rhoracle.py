import hashlib
import re
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edcert.catalogue import build, parse_group_spec
from edcert.errors import CapExceeded
from edcert import rhoracle
from edcert.permgroup import StabilizerChain
from edcert.permutation import Permutation, cycle_string, invert
from edcert.rhoracle import (
    CAPPED,
    NO,
    UNKNOWN,
    YES,
    GeneratingVector,
    Signature,
    acts_on_genus_le,
    enumerate_signatures,
    find_generating_vector,
    rh_genus,
    validate_vector,
)


def test_signature_periods_are_canonical():
    assert Signature(0, (5, 2, 3)).periods == (2, 3, 5)
    assert Signature(0, (5, 2, 3)) == Signature(0, (3, 5, 2))
    assert Signature(1, ()).label() == "(1; -)"


def test_rh_identity_holds_for_every_enumerated_signature(group_of):
    for text, gmax in (("A:5", 2), ("PSL2:7", 3), ("C:2", 1), ("A:6", 3)):
        g = group_of(text)
        for genus, sig in enumerate_signatures(g, gmax):
            value = rh_genus(g.order, sig)
            assert value.denominator == 1 and int(value) == genus
            assert 0 <= genus <= gmax
            assert all(m >= 2 for m in sig.periods)


def test_enumerate_examples(group_of):
    a5 = enumerate_signatures(group_of("A:5"), 0)
    assert (0, Signature(0, (2, 3, 5))) in a5

    psl7 = enumerate_signatures(group_of("PSL2:7"), 3)
    assert (3, Signature(0, (2, 3, 7))) in psl7

    c2 = enumerate_signatures(group_of("C:2"), 0)
    assert c2 == [(0, Signature(0, (2, 2)))]


def test_enumeration_is_duplicate_free_and_sorted(group_of):
    sigs = enumerate_signatures(group_of("PSL2:7"), 3)
    assert len(set(sigs)) == len(sigs)
    assert sigs == sorted(sigs, key=lambda pair: (pair[0], pair[1].orbit_genus, pair[1].periods))


def brute_force_listing(group, genus_max):
    """Every datum of genus in [0, genus_max], from rh_genus alone, sorted."""
    periods = sorted({d for o in group.element_orders() for d in range(2, o + 1) if o % d == 0})
    # each period adds at least 1/2 to 2h - 2 + sum(1 - 1/m_i), which is at most (2g - 2) / |G|
    top = Fraction(2 * genus_max - 2, group.order)
    listing = []
    for h in range(int(top) // 2 + 2):
        for r in range(int(2 * (top + 2 - 2 * h)) + 1):
            for chosen in combinations_with_replacement(periods, r):
                genus = rh_genus(group.order, Signature(h, chosen))
                if genus.denominator == 1 and 0 <= genus <= genus_max:
                    listing.append((int(genus), Signature(h, chosen)))
    return sorted(listing, key=lambda pair: (pair[0], pair[1].orbit_genus, pair[1].periods))


@pytest.mark.parametrize("text", ["C:1", "C:6", "C:7", "D:6", "S:4", "A:5", "PSL2:7"])
def test_enumeration_is_complete_in_genus_order(group_of, text):
    group = group_of(text)
    full = brute_force_listing(group, 30)
    for genus_max in range(31):
        assert enumerate_signatures(group, genus_max) == [pair for pair in full if pair[0] <= genus_max]


def test_periods_divide_element_orders(group_of):
    g = group_of("A:5")  # element orders 1, 2, 3, 5
    for _, sig in enumerate_signatures(g, 5):
        assert set(sig.periods) <= {2, 3, 5}


def test_find_vector_present_and_validates(group_of):
    a5 = group_of("A:5")
    sig = Signature(0, (2, 3, 5))
    vec = find_generating_vector(a5, sig)
    assert vec is not None
    assert validate_vector(a5, sig, vec)

    psl7 = group_of("PSL2:7")
    klein = Signature(0, (2, 3, 7))
    vec7 = find_generating_vector(psl7, klein)
    assert vec7 is not None
    assert validate_vector(psl7, klein, vec7)
    # manual recheck, independent of validate_vector
    c1, c2, c3 = vec7.elliptic
    assert (c1 * c2 * c3).is_identity()
    assert sorted(c.order() for c in (c1, c2, c3)) == [2, 3, 7]
    assert psl7.subgroup([c1, c2, c3]).order == 168


def test_find_vector_absent_for_three_involutions(group_of):
    # three involutions multiplying to one generate a dihedral subgroup at most
    assert find_generating_vector(group_of("A:5"), Signature(0, (2, 2, 2))) is None


def test_vector_validation_rejects_tampering(group_of):
    a5 = group_of("A:5")
    sig = Signature(0, (2, 3, 5))
    vec = find_generating_vector(a5, sig)
    broken = GeneratingVector(hyperbolic=(), elliptic=vec.elliptic[:2] + (Permutation.identity(5),))
    assert not validate_vector(a5, sig, broken)
    wrong_sig = Signature(0, (2, 3, 3))
    assert not validate_vector(a5, wrong_sig, vec)


def test_acts_on_genus_examples(group_of):
    yes = acts_on_genus_le(group_of("A:5"), 0)
    assert yes.verdict == YES
    assert yes.genus == 0 and yes.signature == Signature(0, (2, 3, 5))

    assert acts_on_genus_le(group_of("PSL2:7"), 2).verdict == NO
    found = acts_on_genus_le(group_of("PSL2:7"), 3)
    assert found.verdict == YES and found.genus == 3
    assert found.signature == Signature(0, (2, 3, 7))


def test_oracle_agrees_with_hurwitz_shortcut(group_of):
    # groups whose Hurwitz floor exceeds g must never answer `yes` there
    from edcert.curvebounds import hurwitz_min_genus

    for text in ("PSL2:7", "PSL2:11", "A:6"):
        g = group_of(text)
        floor = hurwitz_min_genus(g.order)
        verdict = acts_on_genus_le(g, floor - 1)
        assert verdict.verdict == NO


@pytest.mark.parametrize("text", ["PSL2:7", "perm:7:(0 1 2 3 4 5 6),(0 1)(2 4)", "A:6", "PSL2:11"])
def test_no_genus_le1_datum_has_a_vector_for_a_group_the_rule_excludes(group_of, text):
    # the exhaustive search the oracle skips, kept as the check on the genus <= 1 rule
    group = group_of(text)
    assert rhoracle.genus_le1_excluded(group.order)
    data = enumerate_signatures(group, 1)
    assert data and all(find_generating_vector(group, sig) is None for _, sig in data)


def test_the_icosahedral_group_is_the_rule_exception(group_of):
    a5 = group_of("A:5")
    assert not rhoracle.genus_le1_excluded(a5.order)
    sig = Signature(0, (2, 3, 5))
    assert (0, sig) in enumerate_signatures(a5, 1)
    assert find_generating_vector(a5, sig) is not None


def test_the_rule_answers_no_below_genus_2_past_the_search_cap(group_of):
    verdict = acts_on_genus_le(group_of("PSL2:13"), 1)  # order 1092, past the search cap
    assert verdict.verdict == NO


def test_psl2_11_has_no_action_up_to_25(group_of):
    assert acts_on_genus_le(group_of("PSL2:11"), 25).verdict == NO


def test_a6_minimal_genus_is_ten(group_of):
    # classical value: the smallest genus carrying a faithful A6 action is 10
    a6 = group_of("A:6")
    assert acts_on_genus_le(a6, 9).verdict == NO
    hit = acts_on_genus_le(a6, 10)
    assert hit.verdict == YES and hit.genus == 10
    assert hit.signature == Signature(0, (2, 4, 5))
    assert validate_vector(a6, hit.signature, hit.vector)


def test_caps_degrade_to_unknown(group_of, monkeypatch):
    a5 = group_of("A:5")
    with pytest.raises(CapExceeded, match="slots"):  # 13 slots, one past rhoracle.VECTOR_WIDTH
        find_generating_vector(a5, Signature(0, (2,) * 13))
    monkeypatch.setattr(rhoracle, "ORACLE_ENUMERATION", 50)
    monkeypatch.setattr(rhoracle, "ORACLE_SEARCH", 50)
    assert acts_on_genus_le(a5, 0).verdict == UNKNOWN
    with pytest.raises(CapExceeded):
        enumerate_signatures(a5, 0)
    with pytest.raises(CapExceeded):
        find_generating_vector(a5, Signature(0, (2, 3, 5)))


def test_a_width_overrun_answers_unknown(group_of, monkeypatch):
    def too_wide(group, signature):
        raise CapExceeded("too many slots", budget="vector_width", needed=13, cap=rhoracle.VECTOR_WIDTH)

    monkeypatch.setattr(rhoracle, "find_generating_vector", too_wide)
    verdict = acts_on_genus_le(group_of("PSL2:7"), 10)
    assert (verdict.verdict, verdict.reason) == (UNKNOWN, CAPPED)


def test_oracle_requires_simple_groups(group_of):
    assert acts_on_genus_le(group_of("C:6"), 1).verdict == UNKNOWN
    assert acts_on_genus_le(group_of("S:4"), 1).verdict == UNKNOWN


def test_oracle_checks_the_enumeration_cap_before_simplicity(group_of, monkeypatch):
    monkeypatch.setattr(rhoracle, "ORACLE_ENUMERATION", 10)
    verdict = acts_on_genus_le(group_of("S:4"), 1)
    assert (verdict.verdict, verdict.reason) == (UNKNOWN, "group exceeds the signature enumeration cap")


def test_unbounded_oracle_stops_at_the_search_cap_before_listing():
    group = build(parse_group_spec("PSL2:13"))  # order 1092, past the 1,000 vector-search cap
    verdict = acts_on_genus_le(group, None)
    assert (verdict.verdict, verdict.reason) == (UNKNOWN, CAPPED)
    assert group._elements is None  # no datum was listed, so no element order was needed


def test_enumeration_cap_bounds_the_number_of_data(group_of, monkeypatch):
    c6 = group_of("C:6")
    monkeypatch.setattr(rhoracle, "ORACLE_ENUMERATION", 444)
    assert len(enumerate_signatures(c6, 20)) == 444
    monkeypatch.setattr(rhoracle, "ORACLE_ENUMERATION", 443)
    with pytest.raises(CapExceeded) as raised:
        enumerate_signatures(c6, 20)
    assert (raised.value.needed, raised.value.cap) == (444, 443)


@pytest.mark.parametrize("genus", [None, 10**6])
def test_oracle_stops_after_searching_cap_many_data(group_of, monkeypatch, genus):
    # a search that never finds a vector leaves only the count cap to end the walk
    # (with no genus bound it never ends)
    searched = []

    def record(group, signature):
        searched.append(signature)
        return None

    monkeypatch.setattr(rhoracle, "find_generating_vector", record)
    monkeypatch.setattr(rhoracle, "ORACLE_ENUMERATION", 60)
    verdict = acts_on_genus_le(group_of("A:5"), genus)
    assert (verdict.verdict, verdict.reason) == (UNKNOWN, "branch data exceed the signature enumeration cap")
    assert len(searched) == 60


def test_unrealizable_fraction_genus_returns_none(group_of):
    # 2g - 2 = 2 * (-2 + 3/2) = -1 has no integer solution
    sig = Signature(0, (2, 2, 2))
    assert rh_genus(2, sig) == Fraction(1, 2)
    assert find_generating_vector(group_of("C:2"), sig) is None


def test_mixed_hyperbolic_and_elliptic_slots(group_of):
    c2 = group_of("C:2")
    # unramified double cover of a torus: genus 1, no branch points
    torus = Signature(1, ())
    vec = find_generating_vector(c2, torus)
    assert vec is not None and validate_vector(c2, torus, vec)
    assert rh_genus(2, torus) == 1
    # genus-2 cover with one handle and two branch points
    mixed = Signature(1, (2, 2))
    assert rh_genus(2, mixed) == 2
    vec = find_generating_vector(c2, mixed)
    assert vec is not None and validate_vector(c2, mixed, vec)
    assert len(vec.hyperbolic) == 1 and len(vec.elliptic) == 2


def test_vector_search_direct_edge_cases(group_of):
    a5 = group_of("A:5")
    # a period that is no element order: nothing to search
    assert find_generating_vector(a5, Signature(0, (2, 3, 7))) is None
    # the empty signature has no slots at all
    assert find_generating_vector(a5, Signature(0, ())) is None


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["A:5", "PSL2:7", "A:6", "perm:7:(0 1 2 3 4),(0 1 2),(5 6)"]),
    st.lists(st.integers(min_value=0), min_size=1, max_size=4),
)
def test_a_tuple_the_orbit_check_rejects_does_not_generate(group_of, text, picks):
    g = group_of(text)
    els = g.elements()
    parts = [els[i % len(els)] for i in picks]
    order = StabilizerChain(parts, g.degree).order()
    for point in range(g.degree):
        if rhoracle._orbit_size(parts, point) < rhoracle._orbit_size(g.generators, point):
            assert order < g.order


PINNED_SEARCH = [("C:2", 3), ("C:6", 6), ("S:4", 5), ("D:6", 4), ("A:5", 6), ("PSL2:7", 3), ("A:6", 10)]


def test_vector_search_order_is_pinned(group_of, monkeypatch):
    # Every datum of these groups: hyperbolic-only, elliptic-only and mixed,
    # with and without a vector.  A width of 7 makes the one 8-slot datum,
    # (0; 2,2,2,2,2,2,2,2) of C:2, too wide.  The search returns the first
    # witness in its order, so the digest moves if the order does; the
    # products it forms per datum also pin how far it walks to get there.
    # It forms them with its group's chain product, counted once the group's
    # orders and classes, which use that product too, are cached.
    monkeypatch.setattr(rhoracle, "VECTOR_WIDTH", 7)
    products = []

    def counting(mul):
        def counting_mul(p, t):
            products.append(None)
            return mul(p, t)
        return counting_mul

    outcomes = []
    for text, genus_max in PINNED_SEARCH:
        g = group_of(text)
        g.conjugacy_classes()
        monkeypatch.setattr(g._chain, "_mul", counting(g._chain._mul))
        for genus, sig in enumerate_signatures(g, genus_max):
            products.clear()
            try:
                vec = find_generating_vector(g, sig)
                outcome = vec.to_json() if vec else None
            except CapExceeded:
                outcome = "too wide"
            outcomes.append(repr((text, genus, sig.label(), outcome, len(products))))
    assert len(outcomes) == 89
    assert sum("'too wide'" in o for o in outcomes) == 1
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "698c068d192634b80a8b979427ba6b7b3253ee294d5138e8ce4b886d4585f563"


def _relabel(text, shift):
    """The text with every number in it moved up by `shift`."""
    return re.sub(r"\d+", lambda point: str(int(point.group()) + shift), text)


def _searched(group, genus_max, shift=0):
    out = []
    for genus, sig in enumerate_signatures(group, genus_max):
        vec = find_generating_vector(group, sig)
        if vec is not None:
            assert validate_vector(group, sig, vec)
            vec = _relabel(repr(vec.to_json()), shift)  # only the cycles hold digits
        out.append((genus, sig.label(), vec))
    return out


@pytest.mark.parametrize(
    "small, big, shift, genus_max",
    [
        ("perm:5:(0 1 2 3 4),(0 1 2)", "perm:300:(0 1 2 3 4),(0 1 2)", 0, 6),
        ("perm:5:(0 1 2 3 4),(0 1 2)", "perm:300:(295 296 297 298 299),(295 296 297)", 295, 6),
        ("PSL2:7", None, 0, 3),
    ],
    ids=["a5-degree-300", "a5-points-295-299", "psl2-7-degree-257"],
)
def test_both_kernels_search_the_same_vectors(group_of, small, big, shift, genus_max):
    # The search runs in the chain's kernel: bytes up to degree 256, image
    # tuples above.  A copy of the group on more points, or on points shifted
    # up, enumerates its elements in the same order, so it must find the same
    # vectors, relabelled.
    small_group = group_of(small)
    if big is None:
        big = "perm:257:" + ",".join(map(cycle_string, small_group.generators))
    big_group = group_of(big)
    assert type(small_group._chain._identity) is bytes and type(big_group._chain._identity) is tuple
    expected = _searched(small_group, genus_max)
    assert any(vec is None for *_, vec in expected) and any(vec is not None for *_, vec in expected)
    assert _searched(big_group, genus_max, -shift) == expected


def test_pools_and_tables_are_built_once_per_group(monkeypatch):
    # The search's pools and their tables belong to the group: a second search
    # whose slots need only pools an earlier search built makes no table, and
    # reads an inverse table only for each forced last entry, each of which
    # the orbit check then sees.
    a6 = build(parse_group_spec("A:6"))
    chain = a6._chain
    calls = []

    def counting(name, make):
        def wrapper(*args):
            calls.append(name)
            return make(*args)

        return wrapper

    for name in ("_table", "_inverse_table"):
        monkeypatch.setattr(chain, name, counting(name, getattr(chain, name)))
    monkeypatch.setattr(rhoracle, "_orbit_size", counting("forced", rhoracle._orbit_size))
    assert rh_genus(360, Signature(0, (2, 4, 5))) == 10
    find_generating_vector(a6, Signature(0, (2, 4, 5)))
    assert calls.count("_table") > 0
    assert rh_genus(360, Signature(0, (4, 4, 5))) == 55
    for sig in (Signature(0, (4, 4, 5)), Signature(0, (2, 4, 5))):
        calls.clear()
        find_generating_vector(a6, sig)
        assert calls.count("_table") == 0
        assert 0 < calls.count("_inverse_table") == calls.count("forced")


def test_pool_entries_are_an_element_with_its_table_and_its_inverse_table(group_of):
    # every (x, table of x, table of x^-1) entry the searches build, in both
    # kernels: A:6 on bytes, and on 257 points on image tuples, where the
    # pools are the same up to the fixed points 6..256
    a6 = group_of("A:6")
    padded = group_of("perm:257:" + ",".join(map(cycle_string, a6.generators)))
    assert type(a6._chain._identity) is bytes and type(padded._chain._identity) is tuple
    pools = []
    for group in (a6, padded):
        for _, sig in enumerate_signatures(group, 10):
            find_generating_vector(group, sig)
        d = group.degree
        for pool in group._pools.values():
            for x, xt, xit in pool:
                assert tuple(xt[:d]) == tuple(x) and tuple(xit[:d]) == invert(x)
        pools.append({key: [tuple(tuple(e[:6]) for e in entry) for entry in pool]
                      for key, pool in group._pools.items()})
    assert all(x[6:] == tuple(range(6, 257)) for pool in padded._pools.values() for x, _, _ in pool)
    assert pools[0] == pools[1] and len(pools[0]) > 2


@pytest.mark.parametrize(
    "text", ["A:5", "perm:7:(0 1 2 3 4),(0 1 2),(5 6)", "perm:9:(0 1),(2 3),(4 5),(6 7 8),(6 7)", "C:1"]
)
def test_largest_orbit_is_the_first_point_of_largest_orbit(group_of, text):
    g = group_of(text)
    sizes = [rhoracle._orbit_size(g.generators, x) for x in range(g.degree)]
    assert g.largest_orbit() == (sizes.index(max(sizes)), max(sizes))
