import hashlib
import json
import os
import resource
import subprocess
import sys
from collections import Counter
from itertools import product
from math import factorial, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edcert import certifier, permgroup, permutation
from edcert.catalogue import _parse_cycles, build, parse_group_spec
from edcert.certifier import (
    CERTIFIED,
    COMPUTED,
    HYBRID,
    PAPER_FORMULA,
    REFUTED,
    UNKNOWN,
    certify,
    cond1_no_small_index,
    cond2_mobius_subgroup,
    cond3_no_small_genus_action,
    max_certified_n,
    _exceptional_pairs,
    _search_cyclic,
    _search_dihedral,
    _search_exceptional,
    _search_words,
)
from edcert import rhoracle
from edcert.errors import BUDGETS, CapExceeded, ValidationError
from edcert.permgroup import DEFAULT_CAP, PermGroup, closed_subgroup, kernel, max_proper_subgroup
from edcert.rhoracle import Signature, acts_on_genus_le
from edcert.permutation import Permutation, cycle_string


def crt(group_of, text, n, mode=COMPUTED, cap=DEFAULT_CAP):
    return certify(group_of(text, cap), n, mode)


def bound(group_of, text, mode=COMPUTED, cap=DEFAULT_CAP):
    return max_certified_n(group_of(text, cap), mode)


# -- condition 1 -----------------------------------------------------------------


def test_cond1_divisibility_certifies_a7(group_of):
    report = cond1_no_small_index(group_of("A:7"), 6, COMPUTED)
    assert (report.verdict, report.method) == (CERTIFIED, "divisibility")
    checks = {c["k"]: c["half_factorial"] for c in report.detail["divisibility_checks"]}
    assert checks == {k: factorial(k) // 2 for k in range(2, 7)}
    assert all(factorial(k) // 2 % 2520 != 0 for k in range(2, 7))


def test_cond1_divisibility_certifies_psl2_13(group_of):
    report = cond1_no_small_index(group_of("PSL2:13"), 12, COMPUTED)
    assert (report.verdict, report.method) == (CERTIFIED, "divisibility")


def test_cond1_brute_force_refutes_a5_at_5(group_of):
    report = cond1_no_small_index(group_of("A:5"), 5, COMPUTED)
    assert (report.verdict, report.method) == (REFUTED, "brute_force")
    assert report.detail["min_proper_index"] == 5
    assert report.detail["witness_subgroup"]["index"] == 5


def test_cond1_search_index_needs_the_embedding_bound(group_of, monkeypatch):
    # PSL(2,8), order 504: the search finds index 9, but 504 already divides
    # 7!/2, so the k!/2 bound proves only d >= 7 and cannot confirm 9
    monkeypatch.setitem(BUDGETS, "subgroup_search", 600)
    text = "perm:9:(0 1)(2 3)(4 5)(6 7),(1 2 4 3 6 7 5),(0 8)(2 5)(3 6)(4 7)"
    report = cond1_no_small_index(group_of(text), 8, COMPUTED)
    assert report.verdict == UNKNOWN
    assert [c["k"] for c in report.detail["divisibility_checks"] if c["divides"]] == [7]
    assert report.detail["note"] == "divisibility inconclusive and the k!/2 bound does not prove the searched index"


def test_cond1_literature_override_in_hybrid(group_of):
    g = group_of("PSL2:199")
    # k < 199 lacks the prime 199, so divisibility alone certifies n = 198
    report = cond1_no_small_index(g, 198, HYBRID)
    assert (report.verdict, report.method) == (CERTIFIED, "divisibility")
    # at n = 199 divisibility is inconclusive; Galois's constant d = 200 decides
    report = cond1_no_small_index(g, 199, HYBRID)
    assert (report.verdict, report.method) == (CERTIFIED, "literature_override")
    report = cond1_no_small_index(g, 200, HYBRID)
    assert (report.verdict, report.method) == (REFUTED, "literature_override")
    # computed mode has no fallback once divisibility fails on a big group
    report = cond1_no_small_index(g, 199, COMPUTED)
    assert report.verdict == UNKNOWN


@pytest.mark.parametrize("mode", [COMPUTED, HYBRID])
def test_cond1_refuses_non_simple_groups(group_of, mode):
    # 24 divides no k!/2 for k <= 3, yet A4 has index 2 in S4: the k!/2
    # certificate holds for simple groups only
    report = cond1_no_small_index(group_of("S:4"), 3, mode)
    assert (report.verdict, report.method) == (UNKNOWN, None)
    note = "the implemented index decider requires a nonabelian simple group"
    assert report.detail == {"n": 3, "note": note}
    assert f"condition 1 skipped: {note}" in crt(group_of, "S:4", 3, mode).notes


F20 = "perm:5:(0 1 2 3 4),(1 2 4 3)"


@pytest.mark.parametrize("text, mode", [
    *((text, mode) for text in ("S:4", "D:6", "C:7", F20) for mode in (COMPUTED, HYBRID)),
    ("A:9", COMPUTED),  # over the enumeration cap: simplicity undecided
])
def test_deciders_guard_their_own_simplicity(group_of, text, mode):
    # a direct call answers as `certify` does for a group not decided simple
    group = group_of(text)
    for n in (3, 6):
        cert = certify(group, n, mode)
        assert cert.constants["simplicity"]["value"] is not True
        for decide, name in ((cond1_no_small_index, "no_small_index"),
                             (cond3_no_small_genus_action, "no_small_genus_action")):
            report = decide(group, n, mode)
            assert report.to_json() == cert.condition(name).to_json()
            assert report.verdict != CERTIFIED


# -- condition 2 -----------------------------------------------------------------


def test_cond2_cyclic_witnesses(group_of):
    order, witness = _search_cyclic(group_of("PSL2:13"))
    assert order == witness["order"] == 13

    order, witness = _search_cyclic(group_of("A:7"))
    assert (order, witness["type"], witness["order"]) == (7, "cyclic", 7)  # a 7-cycle

    # with an n, a word witness certifies before the cyclic stage runs
    for text, n, order in (("PSL2:13", 4, 13), ("A:7", 6, 7)):
        report = cond2_mobius_subgroup(group_of(text), n, COMPUTED)
        assert (report.verdict, report.method) == (CERTIFIED, "word_search")
        assert (report.detail["witness"]["type"], report.detail["witness"]["order"]) == ("cyclic", order)
        assert "cyclic_max" not in report.detail


def test_cond2_dihedral_and_exceptional_stages(group_of):
    # max element order 7 bars the cyclic stage at n = 7; S4 of order 24 carries it
    report = cond2_mobius_subgroup(group_of("PSL2:7"), 7, COMPUTED)
    assert report.verdict == CERTIFIED
    assert report.detail["best_order"] in (8, 24)

    exhaustive = cond2_mobius_subgroup(group_of("PSL2:7"), None, COMPUTED)
    assert exhaustive.certified_up_to == 23
    assert exhaustive.detail["best_order"] == 24
    assert exhaustive.detail["witness"]["type"] == "S4"


MOBIUS_GROUPS = [
    "A:5", "A:6", "A:7", "S:5", "PSL2:7", "PSL2:11", "PSL2:13",
    "perm:8:(0 1 2 3 4 5 6),(1 3 2 6 4 5),(0 7)(1 6)(2 3)(4 5)",  # PGL(2,7)
]
FINGERPRINTS = {
    12: ("A4", Counter({1: 1, 2: 3, 3: 8})),
    24: ("S4", Counter({1: 1, 2: 9, 3: 8, 4: 6})),
    60: ("A5", Counter({1: 1, 2: 15, 3: 20, 5: 24})),
}


def exceptional_by_closing_every_pair(group):
    """Reference: close every (involution representative, order-3 element)
    pair, with no filter on ord(ab)."""
    best, kind, witness = 0, None, {}
    invols = [r for r in map(Permutation, group.class_representatives()) if r.order() == 2]
    for a in invols:
        for b in map(Permutation, group.elements_of_order(3)):
            sub = closed_subgroup(group.degree, (a.images, b.images), 61)
            if sub is None or len(sub) not in FINGERPRINTS:
                continue
            name, fingerprint = FINGERPRINTS[len(sub)]
            if Counter(Permutation(x).order() for x in sub) == fingerprint and len(sub) > best:
                best, kind = len(sub), name
                witness = {"type": name, "order": best, "generators": [a.cycle_string(), b.cycle_string()]}
                if best == 60:
                    return best, kind, witness
    return best, kind, witness


def dihedral_by_scanning_every_class(group):
    """Reference: every class representative, largest order first, against
    every involution, with Permutation arithmetic."""
    involutions = [Permutation(t) for t in group.elements_of_order(2)]
    reps = sorted((r for r in map(Permutation, group.class_representatives()) if r.order() >= 2),
                  key=lambda r: (-r.order(), r.images))
    for x in reps if involutions else ():
        powers = {(x ** k).images for k in range(x.order())}
        for t in involutions:
            if t.images not in powers and t * x * t == x.inverse():
                return 2 * x.order(), [x.cycle_string(), t.cycle_string()]
    return 0, None


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 7).flatmap(lambda d: st.lists(st.permutations(list(range(d))), min_size=1, max_size=3)))
def test_exceptional_pairs_agree_with_closing_each_pair(gens):
    degree = len(gens[0])
    group = build(parse_group_spec(f"perm:{degree}:" + ",".join(cycle_string(tuple(g)) for g in gens)))
    # Both sides are invariant under conjugating a and b together, so the
    # involutions' class representatives against every order-3 element
    # cover every pair up to conjugacy (all pairs of S7 take seconds).
    involutions = [cls[0] for cls in group.classes_of_order(2)]
    threes = group.elements_of_order(3)
    expected = []
    for a in involutions:
        for b in threes:
            sub = closed_subgroup(degree, (a, b), 61)
            if sub is not None and len(sub) in FINGERPRINTS:
                name, fingerprint = FINGERPRINTS[len(sub)]
                if Counter(Permutation(x).order() for x in sub) == fingerprint:
                    expected.append((len(sub), name, a, b))
    k = kernel(degree)
    pairs = _exceptional_pairs(k, map(k.encode, involutions), map(k.encode, threes))
    assert [(order, kind, tuple(a), tuple(b)) for order, kind, a, b in pairs] == expected


@pytest.mark.parametrize("text", MOBIUS_GROUPS)
def test_exceptional_search_equals_closing_every_pair(group_of, text):
    order, witness = _search_exceptional(group_of(text))
    assert (order, witness.get("type"), witness) == exceptional_by_closing_every_pair(group_of(text))


@pytest.mark.parametrize("text", MOBIUS_GROUPS + ["C:7", "D:10", "S:4"])
def test_dihedral_search_equals_scanning_every_class(group_of, text):
    dihedral, witness = _search_dihedral(group_of(text))
    order, generators = dihedral_by_scanning_every_class(group_of(text))
    assert dihedral == order
    assert witness.get("generators") == generators


@pytest.mark.parametrize(
    "text, n, mode, cyclic_max",
    # beyond the enumeration cap, at an n that no word witness reaches
    [("PSL2:59", 60, HYBRID, 59),  # its largest Moebius subgroups, A5 and D60, have order 60
     ("PSL2:61", 122, HYBRID, 61),  # its largest is D122, as 61 = 1 mod 4
     ("PSL2:7", 7, PAPER_FORMULA, 7)],  # contains S4
)
def test_cyclic_only_search_does_not_refute(group_of, text, n, mode, cyclic_max):
    report = crt(group_of, text, n, mode).condition("mobius_subgroup")
    assert report.verdict == UNKNOWN
    assert report.detail["note"] == "only cyclic subgroups were considered"
    assert report.detail["best_order"] == cyclic_max


def test_maxn_keeps_the_cyclic_bound_beyond_the_cap(group_of):
    assert bound(group_of, "PSL2:59", HYBRID).cond2_max == 58


# Largest finite Moebius subgroup of PSL2(p), from Dickson's list written out
# by hand: max(p + 1, 2p if p = 1 mod 4, 60 if p = +-1 mod 10, 24 if
# p = +-1 mod 8, 12); PSL2(5) is A5 itself.
DICKSON_MAX_MOBIUS = {
    5: 60, 7: 24, 11: 60, 13: 26, 17: 34, 19: 60, 23: 24, 29: 60, 31: 60, 37: 74, 41: 82, 43: 44, 47: 48, 53: 106,
}


@pytest.mark.parametrize("p", sorted(DICKSON_MAX_MOBIUS))
def test_hybrid_mobius_range_stops_at_dicksons_bound_without_enumerating(p):
    group = build(parse_group_spec(f"PSL2:{p}"))  # a fresh group: nothing enumerated yet
    report = cond2_mobius_subgroup(group, None, HYBRID)
    assert (report.method, report.certified_up_to + 1) == ("witness_search", DICKSON_MAX_MOBIUS[p])
    assert report.detail["best_order"] == report.detail["witness"]["order"] == DICKSON_MAX_MOBIUS[p]
    assert group._elements is None
    assert max_certified_n(group, HYBRID).cond2_max + 1 == DICKSON_MAX_MOBIUS[p]
    # the genus oracle's vector search lists the elements of PSL2(7) and PSL2(11), within its cap
    assert (group._elements is None) == (p not in (7, 11))


@pytest.mark.parametrize("p", [7, 11, 13, 17, 23])
def test_mobius_range_falls_back_to_the_stages_when_the_search_misses(monkeypatch, p):
    monkeypatch.setattr(certifier, "_search_words", lambda group, bound: (1, {}))
    report = cond2_mobius_subgroup(build(parse_group_spec(f"PSL2:{p}")), None, HYBRID)
    assert report.method in ("dihedral_search", "exceptional_search")
    assert report.certified_up_to + 1 == DICKSON_MAX_MOBIUS[p]


def subgroup_by_permutations(generators):
    """Every element of <generators>, by Permutation products alone."""
    elements = {Permutation.identity(generators[0].degree)}
    queue = list(elements)
    while queue:
        x = queue.pop()
        for g in generators:
            if x * g not in elements:
                elements.add(x * g)
                queue.append(x * g)
    return elements


def assert_witness_rechecks(group, witness):
    """A cond2 witness names a Moebius subgroup of its order, by Permutation arithmetic."""
    gens = [_parse_cycles(text, 0, group.degree) for text in witness["generators"]]
    assert all(g.images in group for g in gens)
    one = Permutation.identity(group.degree)
    if witness["type"] == "cyclic":
        (g,) = gens
        assert g.order() == witness["order"]
    elif witness["type"] == "dihedral":
        x, t = gens
        s = x * t  # x = st
        assert s * s == t * t == one and s != t
        assert t * x * t == x.inverse()
        assert t not in {x ** k for k in range(x.order())}
        assert witness["order"] == 2 * x.order()
    else:
        name, fingerprint = FINGERPRINTS[witness["order"]]
        closure = subgroup_by_permutations(gens)
        assert (witness["type"], len(closure)) == (name, witness["order"])
        assert Counter(g.order() for g in closure) == fingerprint


@pytest.mark.parametrize("p", sorted(DICKSON_MAX_MOBIUS))
def test_witness_search_witnesses_recheck_with_permutations(p):
    group = build(parse_group_spec(f"PSL2:{p}"))
    assert_witness_rechecks(group, cond2_mobius_subgroup(group, None, HYBRID).detail["witness"])


WORD_SEARCH_GROUPS = ["A:5", "A:6", "A:7", "A:8", "A:9"] + [
    f"PSL2:{p}" for p in (7, 11, 13, 17, 23, 29, 41, 53, 59, 61, 101, 113, 157, 199)]


@pytest.mark.parametrize("text", WORD_SEARCH_GROUPS)
def test_word_search_witnesses_recheck_with_permutations(text):
    # every condition-2 word witness certify emits names a Moebius subgroup of
    # order > n, and a direct call that certifies this way enumerates nothing
    # and builds no chain (PSL2:53 at n = 60 in hybrid mode among them)
    group = build(parse_group_spec(text))
    emitted = 0
    for mode in (COMPUTED, HYBRID):
        for n in (2, 5, 9, 14, 24, 59, 60, 100, 150, 198):
            fresh = build(parse_group_spec(text))
            report = cond2_mobius_subgroup(fresh, n, mode)
            if report.method == "word_search":
                assert report.verdict == CERTIFIED
                assert report.detail["witness"]["order"] == report.detail["best_order"] > n
                assert fresh._elements is None and fresh._built is None
            mobius = certify(group, n, mode).condition("mobius_subgroup")
            assert mobius.to_json() == report.to_json()
            if mobius.method == "word_search":
                assert_witness_rechecks(group, mobius.detail["witness"])
                emitted += 1
        assert cond2_mobius_subgroup(group, 2, mode).method == "word_search"
    assert emitted >= 2


def test_no_word_search_above_the_bytes_degree(monkeypatch):
    # above 256 points a word is an image tuple of the full degree, and each
    # product a compose: on D:100000 the pool alone would hold 256 tuples of
    # 100,000 points
    assert cond2_mobius_subgroup(build(parse_group_spec("C:256")), 10, COMPUTED).method == "word_search"

    def refuse(group, bound):
        raise AssertionError(f"word search on degree {group.degree}")

    monkeypatch.setattr(certifier, "_search_words", refuse)
    expected = {"C:300": (CERTIFIED, "cyclic_search"), "D:100000": (UNKNOWN, None), "PSL2:257": (UNKNOWN, None)}
    for text, (verdict, method) in expected.items():
        report = cond2_mobius_subgroup(build(parse_group_spec(text)), 10, COMPUTED)
        assert (report.verdict, report.method) == (verdict, method)


# disjoint cycles of these lengths fill 100 points, and their lcm, 223,092,870,
# is the order of an element whose powers no walk may list
LARGE_ORDER_CYCLES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
LARGE_ORDER = 223092870


def large_order_specs():
    """perm:100 specs: <g> for g of order LARGE_ORDER, and the dihedral group
    of order 2 * LARGE_ORDER made by two reflections s, t of each cycle's
    points, with st = g."""
    g, s, t, start = list(range(100)), list(range(100)), list(range(100)), 0
    for length in LARGE_ORDER_CYCLES:
        for i in range(length):
            g[start + i] = start + (i + 1) % length
            s[start + i] = start + -i % length
            t[start + i] = start + (1 - i) % length
        start += length
    return f"perm:100:{cycle_string(tuple(g))}", f"perm:100:{cycle_string(tuple(s))},{cycle_string(tuple(t))}"


def test_kernel_order_and_powers_do_not_grow_with_the_order():
    cyclic, _ = large_order_specs()
    (g,) = build(parse_group_spec(cyclic)).generators
    for kern in (kernel(100), kernel(300)):
        x = kern.encode(g + tuple(range(100, len(kern.identity))))
        assert kern.order(x) == LARGE_ORDER
        for k in (0, 1, 2, LARGE_ORDER // 2, LARGE_ORDER // 3, LARGE_ORDER - 1, LARGE_ORDER):
            assert tuple(kern.power(x, k)[:100]) == permutation.power(g, k)
    small = kernel(7).encode((1, 2, 3, 4, 5, 6, 0))
    assert kernel(7).order(small) == 7 and kernel(7).power(small, 7) == kernel(7).identity


def test_inverting_involution_lists_no_powers_of_a_large_order():
    # <st> has 223,092,870 elements and one involution: the test for t
    # outside <st> must not list them, so the call answers within 300 MB of
    # address space
    root = Path(__file__).resolve().parents[1]

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))

    _, dihedral = large_order_specs()
    code = "\n".join([
        "import sys",
        "from edcert.catalogue import build, parse_group_spec",
        "from edcert.permgroup import inverting_involution",
        "from edcert.permutation import compose",
        "s, t = build(parse_group_spec(sys.argv[1])).generators",
        f"assert inverting_involution(compose(s, t), {LARGE_ORDER}, [s, t]) == s",
    ])
    run = subprocess.run([sys.executable, "-c", code, dihedral], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(root / "src")}, preexec_fn=limit, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")


@pytest.mark.parametrize("mode", [COMPUTED, HYBRID])
def test_words_of_large_order_certify_within_bounded_memory(mode):
    # a walk over the powers of the cyclic spec's generator, or of st in the
    # dihedral one, would list 223,092,870 elements: certify must answer
    # within 300 MB of address space, as at n where the search misses
    root = Path(__file__).resolve().parents[1]

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))

    cyclic, dihedral = large_order_specs()
    cases = [(cyclic, 10, CERTIFIED, LARGE_ORDER), (dihedral, LARGE_ORDER, CERTIFIED, 2 * LARGE_ORDER),
             (dihedral, 2 * LARGE_ORDER, UNKNOWN, None)]
    for text, n, verdict, order in cases:
        run = subprocess.run([sys.executable, "-m", "edcert", "certify", "--group", text, "--n", str(n),
                              "--mode", mode, "--json", "--no-timing"], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(root / "src")}, preexec_fn=limit, timeout=120)
        assert (run.returncode, run.stderr) == (1, ""), run.stderr  # conditions 1 and 3 stay unknown
        (mobius,) = [c for c in json.loads(run.stdout)["payload"]["conditions"] if c["condition"] == "mobius_subgroup"]
        assert mobius["verdict"] == verdict
        if order is None:
            continue
        witness = mobius["detail"]["witness"]
        assert (mobius["method"], witness["order"]) == ("word_search", order)
        group = build(parse_group_spec(text))
        assert cond2_mobius_subgroup(group, n, mode).to_json() == mobius
        assert group._elements is None and group._built is None
        gens = [_parse_cycles(cycles, 0, 100) for cycles in witness["generators"]]
        assert all(g.images in group for g in gens) and gens[0].order() == LARGE_ORDER
        if witness["type"] == "dihedral":  # as assert_witness_rechecks, without listing <x>
            x, t = gens
            assert (x * t) ** 2 == t * t == Permutation.identity(100) and x * t != t
            assert t * x * t == x.inverse() and t != x ** (LARGE_ORDER // 2)  # <x> has one involution


WHOLE_POOL_GROUPS = [f"PSL2:{p}" for p in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)] + [
    "A:5", "A:6", "A:7", "A:8", "S:5", "perm:7:(0 1 2 3 4 5 6),(0 1)(2 4)"]  # the last is PSL(3,2)


def test_whole_pool_word_search_is_pinned():
    # no bound runs every cyclic, dihedral and exceptional loop to its end,
    # so every word, power and pair the search visits, and the order it
    # visits them in, can move the digest
    lines = []
    for text in WHOLE_POOL_GROUPS:
        group = build(parse_group_spec(text))
        best, witness = _search_words(group, None)
        lines.append(json.dumps([text, best, witness]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "d5207c12326676e99e26d1e094fa574e3b3219098f22fdc98b28a8a9278461c2"


@pytest.mark.parametrize("text, largest", [("PSL2:7", 24), ("PSL2:11", 60), ("A:6", 60)])
def test_both_kernels_search_words_alike(group_of, text, largest):
    # padding the generators with fixed points to degree 300 moves the search
    # from bytes to image tuples; no word, order or witness may change, whether
    # the search stops at the largest Moebius order or runs the whole pool
    group = group_of(text)
    padded = PermGroup([g + tuple(range(group.degree, 300)) for g in group.generators], degree=300)
    assert type(kernel(group.degree).identity) is bytes and type(kernel(300).identity) is tuple
    for bound in (largest, None):
        assert _search_words(padded, bound) == _search_words(group, bound)
        assert _search_words(group, bound)[0] == largest


def test_psl2_257_word_search_runs_on_the_tuple_kernel():
    # the only family group whose hybrid word search multiplies image tuples
    group = build(parse_group_spec("PSL2:257"), cap=10**8)
    report = cond2_mobius_subgroup(group, None, HYBRID)
    assert (report.method, report.detail["best_order"], report.detail["witness"]["type"]) == (
        "witness_search", 514, "dihedral")
    assert group._elements is None
    assert_witness_rechecks(group, report.detail["witness"])


def test_hybrid_word_search_multiplies_no_image_tuples(monkeypatch):
    # PSL2(13..53) run the search on bytes: no tuple product, no Python-level
    # order, wherever in the package compose and tuple_order are reached
    calls = []
    for name in ("compose", "tuple_order"):
        original = getattr(permutation, name)

        def counting(*args, original=original, name=name):
            calls.append(name)
            return original(*args)

        for module in [m for key, m in sys.modules.items() if key == "edcert" or key.startswith("edcert.")]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    for p in (13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
        group = build(parse_group_spec(f"PSL2:{p}"))
        report = cond2_mobius_subgroup(group, None, HYBRID)
        assert (report.method, report.detail["best_order"]) == ("witness_search", DICKSON_MAX_MOBIUS[p])
        assert group._built is None
    assert calls == []


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6).flatmap(lambda d: st.lists(st.permutations(list(range(d))), min_size=1, max_size=3)))
def test_witness_search_never_beats_the_exhaustive_maximum(gens):
    degree = len(gens[0])
    text = f"perm:{degree}:" + ",".join(cycle_string(tuple(g)) for g in gens)
    group = build(parse_group_spec(text))
    best, witness = _search_words(group, None)  # no bound: the whole pool runs
    assert best <= cond2_mobius_subgroup(group, None, COMPUTED).detail["best_order"]
    assert witness == {} or witness["order"] == best


def assert_mobius_refutations_are_exhaustive(text, ns):
    """Every mobius_subgroup refutation, in any mode, agrees with the
    exhaustive computed search, and so does every certification."""
    group = build(parse_group_spec(text))
    best = cond2_mobius_subgroup(group, None, COMPUTED).detail["best_order"]
    for mode in (COMPUTED, HYBRID, PAPER_FORMULA):
        for n in ns:
            verdict = cond2_mobius_subgroup(group, n, mode).verdict
            assert verdict != REFUTED or best <= n, (text, mode, n)
            assert verdict != CERTIFIED or best > n, (text, mode, n)


@pytest.mark.parametrize("text", ["A:5", "A:6", "PSL2:7", "PSL2:11", "PSL2:13", "S:4", "C:7", "D:6"])
def test_mobius_refutations_agree_with_the_exhaustive_search(text):
    assert_mobius_refutations_are_exhaustive(text, range(2, 62))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6).flatmap(lambda d: st.lists(st.permutations(list(range(d))), min_size=1, max_size=3)))
def test_mobius_refutations_agree_on_random_groups(gens):
    degree = len(gens[0])
    text = f"perm:{degree}:" + ",".join(cycle_string(tuple(g)) for g in gens)
    assert_mobius_refutations_are_exhaustive(text, range(2, 26))


PINNED_COND2_GROUPS = MOBIUS_GROUPS + ["C:7", "D:10", "S:4"]
PINNED_COND2_NS = [None, 2, 3, 4, 5, 6, 7, 9, 11, 12, 13, 23, 24, 59, 60]


def test_cond2_reports_are_pinned(group_of):
    # Every report condition 2 gives on these inputs, JSON key order
    # included: the word witness, the witness each stage returns, the
    # per-stage maxima and the exceptional kind all move the digest.  A word
    # witness certifies 250 of the reports before any stage runs, so each
    # stage's own (order, witness) on each group is pinned as well.  None of
    # these groups has two stages of equal order; the tie rule is pinned below.
    inputs = [(text, mode, n) for text in PINNED_COND2_GROUPS
              for mode in (COMPUTED, HYBRID, PAPER_FORMULA) for n in PINNED_COND2_NS]
    inputs += [(f"PSL2:{p}", mode, None) for p in (17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
               for mode in (HYBRID, PAPER_FORMULA)]
    lines = []
    for text, mode, n in inputs:
        report = cond2_mobius_subgroup(group_of(text), n, mode)
        lines.append(json.dumps([text, mode, n, report.to_json(), report.certified_up_to]))
    assert len(lines) == 515
    assert sum(json.loads(line)[3]["method"] == "word_search" for line in lines) == 250
    for text in PINNED_COND2_GROUPS:
        for stage in (_search_cyclic, _search_dihedral, _search_exceptional):
            lines.append(json.dumps([text, stage.__name__, stage(group_of(text))]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "72c979e998318baaa0caf457bedd1d80e22af3a8cfb3dd2bb06b1fa3f17772f7"


@pytest.mark.parametrize(
    "text, kind, method, exceptional_kind",
    [("perm:6:(0 1 2 3),(4 5)", "dihedral", "dihedral_search", None),  # C4 x C2: cyclic 4, Klein four-group 4
     ("perm:8:(0 1 2),(0 1)(2 3),(4 5 6 7)", "A4", "exceptional_search", "A4")],  # A4 x C4: cyclic 12, A4 12
)
def test_cond2_later_stage_wins_a_tie(group_of, text, kind, method, exceptional_kind):
    ranged = cond2_mobius_subgroup(group_of(text), None, COMPUTED)
    assert (ranged.method, ranged.detail["witness"]["type"]) == (method, kind)
    at_n = cond2_mobius_subgroup(group_of(text), ranged.detail["best_order"], COMPUTED)
    assert (at_n.verdict, at_n.detail["witness"]["type"], at_n.detail["exceptional_kind"]) == (
        REFUTED, kind, exceptional_kind)


def test_cond2_refutes_tiny_group(group_of):
    report = cond2_mobius_subgroup(group_of("C:2"), 2, COMPUTED)
    assert report.verdict == REFUTED
    assert report.detail["best_order"] == 2


# -- condition 3 -----------------------------------------------------------------


def test_cond3_hurwitz_certifies_a7(group_of):
    report = cond3_no_small_genus_action(group_of("A:7"), 6, COMPUTED)
    assert (report.verdict, report.method) == (CERTIFIED, "hurwitz")
    assert report.detail["hurwitz_floor"] == 31
    assert report.detail["genus_cap"] == 25


def test_cond3_refutes_a5_with_witness(group_of):
    report = cond3_no_small_genus_action(group_of("A:5"), 2, COMPUTED)
    assert (report.verdict, report.method) == (REFUTED, "rh_oracle")
    assert report.detail["witness"]["genus"] == 0
    assert report.detail["witness"]["signature"] == "(0; 2,3,5)"


def test_cond3_psl2_11(group_of):
    report = cond3_no_small_genus_action(group_of("PSL2:11"), 3, COMPUTED)
    assert (report.verdict, report.method) == (CERTIFIED, "hurwitz")
    assert report.detail["hurwitz_floor"] == 9


def test_cond3_oracle_closes_hurwitz_gap(group_of):
    # (n-1)^2 = 9 reaches past the floor 9; the branch-data oracle decides
    report = cond3_no_small_genus_action(group_of("PSL2:11"), 4, COMPUTED)
    assert (report.verdict, report.method) == (CERTIFIED, "rh_oracle")


def test_cond3_oracle_refutes_klein_quartic_case(group_of):
    report = cond3_no_small_genus_action(group_of("PSL2:7"), 3, COMPUTED)
    assert (report.verdict, report.method) == (REFUTED, "rh_oracle")
    assert report.detail["witness"]["genus"] == 3


def test_cond3_icosahedral_rule_refutes_where_the_oracle_cannot_answer(group_of):
    # hybrid mode reads A5's simplicity from the literature; at cap 10 the
    # oracle cannot decide it, so the genus <= 1 rule alone refutes
    report = cond3_no_small_genus_action(group_of("A:5", 10), 3, HYBRID)
    assert (report.verdict, report.method) == (REFUTED, "genus_le1_rule")
    assert report.detail["note"] == "order-60 simple group is the icosahedral Moebius group"
    assert "witness" not in report.detail


def test_cond3_paper_formula_refutes_past_its_reading_only_with_a_witness(group_of):
    report = cond3_no_small_genus_action(group_of("PSL2:7"), 3, PAPER_FORMULA)
    assert (report.verdict, report.method) == (REFUTED, "rh_oracle")
    assert report.detail["witness"]["signature"] == "(0; 2,3,7)"
    # the Hurwitz bound only floors the least genus: PSL2(11) misses the
    # non-strict reading at genus 16, but acts on no curve of genus <= 16
    report = cond3_no_small_genus_action(group_of("PSL2:11"), 5, PAPER_FORMULA)
    assert (report.verdict, report.method) == (UNKNOWN, None)
    assert report.detail["oracle"]["verdict"] == "no"
    assert report.detail["note"].endswith("the branch-data oracle answers no")
    assert cond3_no_small_genus_action(group_of("PSL2:11"), 5, COMPUTED).verdict == CERTIFIED
    # the range path reads unknown past the same range
    report = cond3_no_small_genus_action(group_of("PSL2:7"), None, PAPER_FORMULA)
    assert (report.verdict, report.method, report.certified_up_to) == (UNKNOWN, "hurwitz", 2)


# -- certify ----------------------------------------------------------------------


def test_certify_headline_cases(group_of):
    assert crt(group_of, "PSL2:7", 2).overall == CERTIFIED
    assert crt(group_of, "A:7", 6).overall == CERTIFIED
    a5 = crt(group_of, "A:5", 2)
    assert a5.overall == REFUTED
    assert a5.condition("no_small_genus_action").verdict == REFUTED
    assert a5.condition("no_small_index").verdict == CERTIFIED


def test_certify_requires_n_at_least_two(group_of):
    with pytest.raises(ValidationError):
        crt(group_of, "A:7", 1)


def test_certify_open_case_is_not_guessed(group_of):
    # the n = 3 question for PSL2(7) is open; the tool must refuse to certify
    cert = crt(group_of, "PSL2:7", 3)
    assert cert.overall == REFUTED
    assert any("does not decide the underlying inequality" in note for note in cert.notes)


def test_certify_non_simple_groups_degrade(group_of):
    cert = crt(group_of, "C:2", 2)
    assert cert.overall == REFUTED  # condition 2 fails outright
    assert cert.condition("no_small_index").verdict == UNKNOWN
    assert cert.condition("no_small_genus_action").verdict == UNKNOWN

    cert = crt(group_of, "S:4", 2)
    assert cert.condition("no_small_index").verdict == UNKNOWN
    assert cert.overall in (UNKNOWN, REFUTED)


def test_certify_monotone_in_n(group_of):
    for text, span in (("A:7", range(2, 9)), ("PSL2:7", range(2, 6)), ("PSL2:11", range(2, 8))):
        verdicts = [crt(group_of, text, n).overall == CERTIFIED for n in span]
        # once certification fails it must not come back for larger n
        assert verdicts == sorted(verdicts, reverse=True)


def test_certify_cap_degrades_to_unknown(group_of):
    group = group_of("PSL2:19", 100)
    cert = certify(group, 2, COMPUTED)
    assert cert.overall == UNKNOWN
    assert cert.condition("no_small_index").verdict == cert.condition("no_small_genus_action").verdict == UNKNOWN
    # a word witness enumerates nothing, so the cap does not bind it
    mobius = cert.condition("mobius_subgroup")
    assert (mobius.verdict, mobius.method) == (CERTIFIED, "word_search")
    assert group._elements is None


def test_certify_hybrid_reaches_big_groups(group_of):
    group = group_of("PSL2:199")
    cert = certify(group, 166, HYBRID)
    assert cert.overall == CERTIFIED
    mobius = cert.condition("mobius_subgroup")
    assert (mobius.method, mobius.detail["witness"]["order"]) == ("word_search", 199)
    assert_witness_rechecks(group, mobius.detail["witness"])


# -- max_certified_n ----------------------------------------------------------------


def test_maxn_computed_values(group_of):
    a7 = bound(group_of, "A:7")
    assert a7.certified_max_n == 6
    assert a7.cond1_max == 6 and a7.cond3_max == 6
    assert "cond1" in a7.binding and "cond3" in a7.binding

    assert bound(group_of, "PSL2:7").certified_max_n == 2
    assert bound(group_of, "PSL2:11").certified_max_n == 6  # minimal genus 26 = 5^2 + 1
    assert bound(group_of, "PSL2:13").certified_max_n == 4


def test_maxn_paper_formula_values(group_of):
    assert bound(group_of, "PSL2:11", PAPER_FORMULA).certified_max_n == 3
    assert bound(group_of, "PSL2:13", PAPER_FORMULA).certified_max_n == 4
    assert bound(group_of, "PSL2:17", PAPER_FORMULA).certified_max_n == 6
    assert bound(group_of, "PSL2:163", PAPER_FORMULA).certified_max_n == 161
    assert bound(group_of, "PSL2:167", PAPER_FORMULA).certified_max_n == 166
    assert bound(group_of, "A:7", PAPER_FORMULA).certified_max_n == 6


def test_maxn_computed_brackets_paper_formula(group_of):
    # on the small PSL2 groups the strict pipeline never certifies less than
    # the closed form, and its maximum is tight: one more is not certified
    for p in (7, 11, 13):
        paper = bound(group_of, f"PSL2:{p}", PAPER_FORMULA).certified_max_n
        computed = bound(group_of, f"PSL2:{p}").certified_max_n
        assert paper <= computed
        assert crt(group_of, f"PSL2:{p}", computed + 1).overall != CERTIFIED


def test_maxn_certifies_what_it_reports(group_of):
    for text in ("A:7", "PSL2:7", "PSL2:11", "PSL2:13"):
        report = bound(group_of, text)
        assert crt(group_of, text, report.certified_max_n).overall == CERTIFIED


def test_maxn_respects_per_condition_minima(group_of):
    for text, mode in (("A:7", COMPUTED), ("PSL2:13", COMPUTED), ("PSL2:17", PAPER_FORMULA)):
        report = bound(group_of, text, mode)
        known = [report.cond1_max, report.cond2_max, report.cond3_max]
        assert all(v is not None for v in known)
        assert report.certified_max_n == min(known)
        assert all(report.certified_max_n <= v for v in known)


SWEEP_NS = [2, 3, 4, 5, 6, 7, 9, 10, 14, 24]
SWEEP_GROUPS = ["A:5", "A:6", "A:7", "PSL2:7", "PSL2:11", "PSL2:13", "PSL2:17", "perm:5:(0 1 2 3 4),(0 1 2)"]


@pytest.mark.parametrize(
    "text, mode",
    [(text, mode) for text in SWEEP_GROUPS for mode in (COMPUTED, HYBRID, PAPER_FORMULA)]
    + [("PSL2:59", HYBRID), ("PSL2:199", HYBRID)],
)
def test_certify_agrees_with_the_maxn_maxima(group_of, text, mode):
    """Each condition is certified at n exactly when n is at most its maxn
    maximum (below it, for the paper-formula reading of condition 1, which
    prints d(G) itself), and so is the whole certificate."""
    report = bound(group_of, text, mode)
    maxima = dict(zip(("no_small_index", "mobius_subgroup", "no_small_genus_action"),
                      (report.cond1_max, report.cond2_max, report.cond3_max)))
    if mode == PAPER_FORMULA and maxima["no_small_index"] is not None:
        maxima["no_small_index"] -= 1
    for n in SWEEP_NS:
        cert = crt(group_of, text, n, mode)
        for condition, top in maxima.items():
            if top is not None:
                assert (cert.condition(condition).verdict == CERTIFIED) == (n <= top), (condition, n)
        if report.certified_max_n is not None:
            assert (cert.overall == CERTIFIED) == (n <= report.certified_max_n), n


@pytest.mark.parametrize("mode", [COMPUTED, HYBRID])
@pytest.mark.parametrize("text", ["A:5", "A:6", "PSL2:7", "perm:5:(0 1 2 3 4),(0 1 2)"])
def test_maxn_runs_no_subgroup_search(group_of, monkeypatch, text, mode):
    def refuse(*args, **kwargs):
        raise AssertionError("maxn ran the subgroup search")

    monkeypatch.setattr(permgroup, "max_proper_subgroup", refuse)
    report = bound(group_of, text, mode)
    assert report.details["cond1"]["method"] in ("divisibility", "literature_override")


def test_maxn_icosahedral_group_stops_at_one(group_of):
    report = bound(group_of, "A:5")
    assert report.cond3_max == 1
    assert report.certified_max_n == 1
    assert report.binding == "cond3"


def test_maxn_rejects_non_simple(group_of):
    with pytest.raises(ValidationError, match="requires a nonabelian simple group"):
        bound(group_of, "S:4")


def test_paper_formula_matches_printed_expression(group_of):
    # min{d, maxcyc - 1, 1 + floor(sqrt(1 + |G|/84))} with the established
    # family constants d and maxcyc = p
    for p in (7, 11, 13, 17, 19, 23):
        report = bound(group_of, f"PSL2:{p}", PAPER_FORMULA)
        order = p * (p * p - 1) // 2
        d = p if p in (5, 7, 11) else p + 1
        hurwitz_term = 1 + isqrt((84 + order) * 84) // 84
        assert report.certified_max_n == min(d, p - 1, hurwitz_term)


def test_divisibility_never_exceeds_brute_force(group_of):
    # criterion-5 style soundness ordering
    from edcert.permgroup import min_proper_subgroup_index

    for text in ("A:5", "A:6", "PSL2:7"):
        g = group_of(text)
        true_index = min_proper_subgroup_index(g)
        k = 2
        while factorial(k) // 2 % g.order != 0:
            k += 1
        assert k <= true_index


# -- paper-formula certify paths and fallbacks ---------------------------------


def test_certify_paper_formula_hurwitz_readings(group_of):
    # non-strict floor certifies while 84((n-1)^2 - 1) <= |G| ...
    cert = crt(group_of, "PSL2:17", 5, mode=PAPER_FORMULA)
    assert cert.overall == CERTIFIED
    assert cert.condition("no_small_genus_action").detail["hurwitz_reading"] == "non_strict"
    # ... and refutes beyond it
    cert = crt(group_of, "PSL2:7", 3, mode=PAPER_FORMULA)
    assert cert.condition("no_small_genus_action").verdict == REFUTED
    assert cert.condition("mobius_subgroup").method == "literature_override"


def test_certify_paper_formula_explicit_spec_computes_cyclic_only(group_of):
    text = "perm:5:(0 1 2 3 4),(0 1 2)"  # generates the icosahedral group
    cert = crt(group_of, text, 2, mode=PAPER_FORMULA)
    c2 = cert.condition("mobius_subgroup")
    assert (c2.verdict, c2.method) == (CERTIFIED, "cyclic_search")
    assert c2.detail["cyclic_max"] == 5


def test_maxn_paper_formula_explicit_spec_uses_brute_force(group_of):
    report = bound(group_of, "perm:5:(0 1 2 3 4),(0 1 2)", PAPER_FORMULA)
    assert report.cond1_max == 5  # minimal degree itself, as printed
    assert report.cond2_max == 4
    assert report.cond3_max == 1  # order-60 exclusion
    assert report.certified_max_n == 1


def test_maxn_undecidable_simplicity_is_cap_exceeded(group_of):
    report = bound(group_of, "PSL2:199")  # computed mode cannot settle simplicity
    assert (report.cond1_max, report.cond2_max, report.cond3_max, report.certified_max_n) == (None,) * 4
    assert report.binding == "unknown"
    assert report.constants["simplicity"] == {"value": None, "method": "cap_exceeded"}


def _over_the_data_budget(group_of, monkeypatch):
    monkeypatch.setitem(BUDGETS, "oracle_enumeration", 443)  # C:6 has 444 data up to genus 20
    rhoracle.enumerate_signatures(group_of("C:6"), 20)


@pytest.mark.parametrize(
    "budget, trip",
    [
        ("enumeration", lambda group_of, _: group_of("S:4", 10).elements()),
        ("subgroup_search", lambda group_of, _: max_proper_subgroup(group_of("PSL2:11"))),
        ("oracle_enumeration", lambda group_of, _: rhoracle.enumerate_signatures(group_of("A:8"), 0)),
        ("oracle_enumeration", _over_the_data_budget),
        ("oracle_search", lambda group_of, _: rhoracle.find_generating_vector(group_of("PSL2:13"), Signature(0, (2, 7)))),
        ("vector_width", lambda group_of, _: rhoracle.find_generating_vector(group_of("A:5"), Signature(0, (2,) * 13))),
    ],
    ids=["check_cap", "subgroup_search", "oracle_order", "oracle_data", "vector_search", "vector_width"],
)
def test_every_cap_overrun_names_its_budget(group_of, monkeypatch, budget, trip):
    with pytest.raises(CapExceeded) as raised:
        trip(group_of, monkeypatch)
    assert raised.value.budget == budget
    assert budget in crt(group_of, "A:5", 2).constants["caps"]
    assert raised.value.needed > raised.value.cap


def test_unknown_mode_rejected(group_of):
    with pytest.raises(ValidationError):
        crt(group_of, "A:5", 2, mode="informal")
    with pytest.raises(ValidationError):
        bound(group_of, "A:5", "informal")


def test_cyclic_witness_is_the_first_element_of_largest_order_and_its_only_tuple():
    group = build(parse_group_spec("PSL2:37"))  # a fresh group: no tuple made yet
    m, witness = certifier._search_cyclic(group)
    orders = group.element_orders()
    assert m == max(orders) == 37
    assert sum(t is not None for t in group._tuples) == 1
    assert witness["generators"] == [cycle_string(group.elements_of_order(m)[0])]


COMPUTED_SWEEP = ["A:5", "A:6", "A:7", "A:8", "S:5", "PSL2:7", "PSL2:11", "PSL2:13", "PSL2:17", "PSL2:19",
                  "PSL2:23", "C:7", "D:6"]


@pytest.mark.parametrize("text", COMPUTED_SWEEP)
def test_computed_mode_builds_the_chain_before_any_decider(monkeypatch, text):
    # computed mode decides simplicity first, and that builds the chain, which
    # checks the family order: no computed verdict rests on the formula alone.
    # The one exception reads no order: commuting generators (C:7) decide
    # "not simple" with no chain.
    abelian = build(parse_group_spec(text)).is_abelian()
    entered = []  # for each decider call: was the group's chain built when it began?

    def recording(decider):
        def call(group, *args, **kwargs):
            entered.append(group._built is not None)
            return decider(group, *args, **kwargs)
        return call

    for name in ("cond1_no_small_index", "cond2_mobius_subgroup", "cond3_no_small_genus_action"):
        monkeypatch.setattr(certifier, name, recording(getattr(certifier, name)))
    for n in (3, 8):
        group = build(parse_group_spec(text))  # a fresh group: no chain yet
        assert group._built is None
        certify(group, n, COMPUTED)
        assert group._built is not None or abelian
    group = build(parse_group_spec(text))
    try:
        max_certified_n(group, COMPUTED)
    except ValidationError:
        pass
    assert (group._built is not None) != abelian
    assert entered and all(entered) != abelian


@pytest.mark.parametrize("text", ["PSL2:59", "PSL2:61"])
def test_an_over_cap_computed_group_reads_the_order_only_to_give_up(text):
    # the one computed run with no chain: |G| exceeds the enumeration cap,
    # so every condition reads unknown, and so does every maximum of maxn
    group = build(parse_group_spec(text))
    assert certify(group, 6, COMPUTED).overall == UNKNOWN
    assert max_certified_n(group, COMPUTED).certified_max_n is None
    assert group.order > group.cap
    assert group._built is None


# -- groups without a spec ------------------------------------------------------


def test_a_group_made_from_generators_reads_no_literature_constant(group_of):
    psl2_7 = group_of("PSL2:7")
    same = psl2_7.subgroup(psl2_7.generators)  # PSL2(7) again, but not made by build
    assert (same.order, same.spec, psl2_7.spec.canonical()) == (168, None, "PSL2:7")
    assert all(sub.spec is None for sub in (psl2_7.derived_subgroup(), psl2_7.normal_closure([psl2_7.generators[0]])))
    borrowed = {"literature_override", "witness_search"}
    for n in range(2, 10):
        hybrid, computed = certify(same, n, HYBRID), certify(same, n, COMPUTED)
        assert not borrowed & {c.method for c in hybrid.conditions}
        assert hybrid.constants["simplicity"]["method"] == "computed"
        assert {**hybrid.to_json(), "mode": COMPUTED} == computed.to_json()
    hybrid, computed = max_certified_n(same, HYBRID), max_certified_n(same, COMPUTED)
    assert not borrowed & {d["method"] for d in hybrid.details.values()}
    assert {**hybrid.to_json(), "mode": COMPUTED} == computed.to_json()
    # its name is the explicit spec of its generators
    assert hybrid.group == same.name() == parse_group_spec(same.name()).canonical()
    assert same.name().startswith("perm:8:")
    # the group build made still reads its family constants
    assert certify(psl2_7, 2, HYBRID).constants["simplicity"]["method"] == "literature_override"
    report = max_certified_n(psl2_7, HYBRID)
    assert [report.details[c]["method"] for c in ("cond1", "cond2")] == ["literature_override", "witness_search"]


def gf8_times(a, b):
    """The product in GF(8) = GF(2)[x]/(x^3 + x + 1), an element as the
    3-bit integer of its coefficients."""
    out = 0
    for i in range(3):
        if b >> i & 1:
            out ^= a << i
    for i in (4, 3):  # x^3 = x + 1
        if out >> i & 1:
            out ^= 0b1011 << (i - 3)
    return out


def psl2_8():
    """PSL2(8) on the projective line over GF(8), infinity the point 8,
    generated by z -> z + 1, z -> x z and z -> 1/z."""
    shift = [z ^ 1 for z in range(8)] + [8]
    scale = [gf8_times(0b010, z) for z in range(8)] + [8]
    inverse = [8] + [next(w for w in range(1, 8) if gf8_times(z, w) == 1) for z in range(1, 8)] + [0]
    return PermGroup([shift, scale, inverse])


def test_psl2_8_built_from_its_definition():
    group = psl2_8()
    assert (group.order, group.orbit_sizes()) == (504, (9, 8, 7))
    assert group.is_simple_nonabelian() and group._elements is None  # decided from the chain
    report = max_certified_n(group)
    assert (report.certified_max_n, report.cond1_max, report.cond2_max, report.cond3_max) == (3, 6, 17, 3)
    assert report.details["cond1"]["first_admissible_embedding_degree"] == 7  # 504 divides 7!/2
    witness = report.details["cond2"]["witness"]
    assert (witness["type"], witness["order"]) == ("dihedral", 18)  # D18, by Dickson's list
    assert report.details["cond3"]["min_genus"] == 7
    # Macbeath's curve (Proc. LMS 15, 1965), and nothing below it
    yes, no = acts_on_genus_le(group, 7), acts_on_genus_le(group, 6)
    assert (yes.verdict, yes.genus, yes.signature.label()) == ("yes", 7, "(0; 2,3,7)")
    assert (no.verdict, no.reason) == ("no", "all branch data up to genus 6 exhausted")
    for n in range(2, 9):
        cert = certify(group, n)
        verdicts = [c.verdict for c in cert.conditions]
        assert cert.group == "perm:9:(0 1)(2 3)(4 5)(6 7),(1 2 4 3 6 7 5),(0 8)(2 5)(3 6)(4 7)"
        if n <= 3:
            assert cert.overall == CERTIFIED, n
        elif n <= 6:
            assert verdicts == [CERTIFIED, CERTIFIED, REFUTED], n
        else:  # d(PSL2(8)) = 9, but order 504 is past the subgroup search
            assert verdicts[0] == UNKNOWN, n
            note = cert.condition("no_small_index").detail["note"]
            assert note == "divisibility inconclusive and group exceeds the subgroup-search cap"


def m11():
    """M11 on 11 points, from its standard generators."""
    cycles = ("(0 1 2 3 4 5 6 7 8 9 10)", "(2 6 10 7)(3 9 4 5)")
    return PermGroup([_parse_cycles(text, 0, 11).images for text in cycles])


def psl3_3():
    """PSL(3,3) = SL(3,3) on the 13 points of PG(2,3), each a nonzero vector
    of GF(3)^3 whose first nonzero entry is 1, generated by the six
    elementary matrices I + E_ij, i != j, acting on column vectors."""
    points = [v for v in product(range(3), repeat=3) if any(v) and next(x for x in v if x) == 1]
    index = {v: i for i, v in enumerate(points)}

    def point(v):
        lead = next(x for x in v if x)  # its own inverse mod 3
        return index[tuple(x * lead % 3 for x in v)]

    return PermGroup([
        [point(tuple((v[k] + v[j] * (k == i)) % 3 for k in range(3))) for v in points]
        for i in range(3) for j in range(3) if i != j
    ])


@pytest.mark.parametrize("make, order, largest, kind, cond1_max", [
    (m11, 7920, 60, "A5", 10),  # d(M11) = 11
    (psl3_3, 5616, 24, "S4", 12),  # d(PSL(3,3)) = 13
])
def test_simple_groups_outside_the_families_reach_their_atlas_moebius_order(make, order, largest, kind, cond1_max):
    # the largest Moebius subgroup, as the ATLAS of Finite Groups (1985)
    # lists the maximal subgroups: A5 in M11, S4 in PSL(3,3)
    group = make()
    assert group.order == order
    report = cond2_mobius_subgroup(group, None, COMPUTED)
    witness = report.detail["witness"]
    assert (report.detail["best_order"], witness["type"], witness["order"]) == (largest, kind, largest)
    assert_witness_rechecks(group, witness)
    best, word_witness = _search_words(group, None)
    assert (best, word_witness["type"]) == (largest, kind)
    assert_witness_rechecks(group, word_witness)
    assert max_certified_n(group, COMPUTED).cond1_max == cond1_max
