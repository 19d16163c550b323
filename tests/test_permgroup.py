import hashlib
import random
from math import factorial, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edcert.catalogue import build, parse_group_spec
from edcert.errors import CapExceeded, ValidationError
from edcert import permgroup
from edcert.permgroup import (
    PermGroup,
    StabilizerChain,
    closed_subgroup,
    embedding_degree_subgroup,
    first_embedding_degree,
    inverting_involution,
    max_proper_subgroup,
    min_proper_subgroup_index,
    prime_factors,
    sylow_report,
)
from edcert.permutation import Permutation, compose, identity_tuple, invert, power, tuple_order


def brute_elements(group):
    """Independent element closure by plain set BFS over raw tuples."""
    gens = group.generators
    elems = {identity_tuple(group.degree)}
    queue = list(elems)
    while queue:
        x = queue.pop()
        for s in gens:
            y = compose(x, s)
            if y not in elems:
                elems.add(y)
                queue.append(y)
    return elems


def test_trivial_group_has_order_one():
    g = PermGroup((), degree=1)
    assert g.order == 1
    assert Permutation.identity(1).images in g


def test_empty_generators_need_degree():
    with pytest.raises(ValidationError):
        PermGroup(())


@pytest.mark.parametrize(
    "text,order",
    [("A:5", 60), ("A:7", 2520), ("S:4", 24), ("C:12", 12), ("D:7", 14), ("PSL2:7", 168)],
)
def test_orders_match_independent_closure(group_of, text, order):
    g = group_of(text)
    assert g.order == order
    if order <= 5000:
        assert len(brute_elements(g)) == order


def test_order_is_product_of_fundamental_orbits(group_of):
    for text in ("A:5", "S:4", "D:7", "PSL2:7", "A:6", "C:12"):
        g = group_of(text)
        prod = 1
        for size in g.orbit_sizes():
            prod *= size
        assert prod == g.order
        assert len(g.elements()) == g.order


def test_membership_of_random_generator_words(group_of):
    rng = random.Random(7)
    for text in ("A:5", "PSL2:7", "D:7"):
        g = group_of(text)
        gens = [Permutation(s) for s in g.generators]
        for _ in range(100):
            word = Permutation.identity(g.degree)
            for _ in range(rng.randint(1, 12)):
                word = word * rng.choice(gens)
            assert word.images in g


def test_membership_rejects_order_incompatible_permutations(group_of):
    # a permutation whose order does not divide |G| cannot lie in G
    rng = random.Random(11)
    for text in ("C:12", "D:7", "PSL2:7"):
        g = group_of(text)
        found = 0
        attempts = 0
        while found < 100 and attempts < 20000:
            attempts += 1
            images = list(range(g.degree))
            rng.shuffle(images)
            p = Permutation(images)
            if g.order % p.order() == 0:
                continue
            found += 1
            assert p.images not in g
        assert found == 100


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.lists(st.permutations(list(range(d))), min_size=1, max_size=3)))
def test_byte_and_tuple_chains_build_the_same_chain(gens):
    # the chain stores bytes up to degree 256 and tuples above; padding the
    # generators with fixed points to degree 257 must change nothing else
    d = len(gens[0])
    small = PermGroup(gens, degree=d)
    big = PermGroup([list(g) + list(range(d, 257)) for g in gens], degree=257)
    assert type(small._chain._identity) is bytes and type(big._chain._identity) is tuple
    assert small.orbit_sizes() == big.orbit_sizes()
    assert [lvl.point for lvl in small._chain.levels] == [lvl.point for lvl in big._chain.levels]
    # the kernels make their inverse tables differently; the chains they build must still agree
    for i, (lvl, big_lvl) in enumerate(zip(small._chain.levels, big._chain.levels)):
        assert small._chain.strong_generators(i) == [g[:d] for g in big._chain.strong_generators(i)]
        assert [(q, tuple(u)) for q, u in lvl.transversal.items()] == [
            (q, u[:d]) for q, u in big_lvl.transversal.items()
        ]
    assert small.elements() == tuple(e[:d] for e in big.elements())


def test_psl2_257_takes_the_tuple_chain(group_of):
    g = group_of("PSL2:257")
    assert g.degree == 258
    assert g.order == 8_487_168 == 257 * (257**2 - 1) // 2
    assert all(s in g for s in g.generators)
    transposition = (1, 0) + tuple(range(2, 258))
    assert transposition not in g


@pytest.mark.parametrize(
    "text,digest,orbits",
    [
        ("PSL2:13", "6a5c380074155eb1", (14, 13, 6)),
        ("A:7", "ac086f8ac7ba5b3b", (7, 6, 5, 4, 3)),
        ("PSL2:53", "78b60c4d683f0741", (54, 53, 26)),
    ],
)
def test_enumeration_order_is_pinned(group_of, text, digest, orbits):
    # every computed witness is the first hit in this order, so it must not move
    g = group_of(text)
    els = g.elements()
    assert all(type(e) is tuple for e in els)
    assert hashlib.sha256(repr(els).encode()).hexdigest()[:16] == digest
    assert g.orbit_sizes() == orbits


@pytest.mark.parametrize(
    "text,kernel,digest",
    [
        ("PSL2:199", bytes, "2db7a65c31fe9492"),  # the closed-form table's largest row, never enumerated
        ("PSL2:257", tuple, "12a7d040a45d14f8"),
    ],
)
def test_chain_is_pinned(group_of, text, kernel, digest):
    # base points, strong generators and transversals, level by level in dict
    # order: the enumeration order and every sift rest on them
    chain = group_of(text)._chain
    assert type(chain._identity) is kernel
    h = hashlib.sha256()
    for i, lvl in enumerate(chain.levels):
        transversal = [(q, tuple(u)) for q, u in lvl.transversal.items()]
        h.update(repr((lvl.point, chain.strong_generators(i), transversal)).encode())
    assert h.hexdigest()[:16] == digest


def test_max_element_order_divides_exponent_and_order(group_of):
    for text in ("A:5", "A:6", "S:4", "D:7", "PSL2:7", "C:12"):
        g = group_of(text)
        m = g.max_element_order()
        assert lcm(*set(g.element_orders())) % m == 0  # the exponent
        assert g.order % m == 0


def even_cycle_type_max_order(n):
    """Independent oracle: max lcm over partitions of n with even sign."""

    def partitions(total, biggest):
        if total == 0:
            yield ()
            return
        for part in range(min(total, biggest), 0, -1):
            for rest in partitions(total - part, part):
                yield (part,) + rest

    best = 1
    for parts in partitions(n, n):
        transpositions = sum(part - 1 for part in parts)
        if transpositions % 2 == 0:
            best = max(best, lcm(*parts))
    return best


def test_max_element_order_examples(group_of):
    assert group_of("C:12").max_element_order() == 12
    assert group_of("A:7").max_element_order() == even_cycle_type_max_order(7) == 7
    # brute order set for PSL2(7), via repeated multiplication
    orders = set()
    for images in brute_elements(group_of("PSL2:7")):
        p = Permutation(images)
        k, q = 1, p
        while not q.is_identity():
            q = q * p
            k += 1
        orders.add(k)
    assert orders == {1, 2, 3, 4, 7}
    assert group_of("PSL2:7").max_element_order() == 7


def test_has_element_of_order(group_of):
    a5_orders = set(group_of("A:5").element_orders())
    assert 5 in a5_orders
    assert 4 not in a5_orders
    assert 6 in group_of("C:6").element_orders()


def brute_normal_closure_order(group, seed):
    """Independent oracle: close the conjugacy class of `seed` under products."""
    everything = brute_elements(group)
    cls = {compose(compose(invert_t(h), seed), h) for h in everything}
    closure = set(cls) | {identity_tuple(group.degree)}
    queue = list(closure)
    while queue:
        x = queue.pop()
        for s in cls:
            y = compose(x, s)
            if y not in closure:
                closure.add(y)
                queue.append(y)
    return len(closure)


def invert_t(p):
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def test_normal_closure_examples(group_of):
    a4 = group_of("A:4")
    double = Permutation.from_cycles([[0, 1], [2, 3]], 4).images
    closure = a4.normal_closure([double])
    assert closure.order == 4 == brute_normal_closure_order(a4, double)

    a5 = group_of("A:5")
    three = Permutation.from_cycles([[0, 1, 2]], 5).images
    assert a5.normal_closure([three]).order == 60

    assert a5.normal_closure([Permutation.identity(5).images]).order == 1


@pytest.mark.parametrize("text, order", [("PSL2:13", 1092), ("A:7", 2520), ("S:5", 60)])
def test_derived_subgroup_builds_one_chain_per_closure_generator(chain_builds, text, order):
    # the closure grows from the trivial group, one chain per added generator,
    # and is returned with its chain built
    group = build(parse_group_spec(text))
    group.orbit_sizes()  # the group's own chain, which the seed check needs
    chain_builds.clear()
    derived = group.derived_subgroup()
    assert len(chain_builds) == len(derived.generators) + 1
    assert derived.order == order and len(chain_builds) == len(derived.generators) + 1


def test_a5_simplicity_against_all_element_closures(group_of):
    # the stated oracle: every one of the 59 nontrivial elements has full closure
    a5 = group_of("A:5")
    nontrivial = [p for p in a5.elements() if not Permutation(p).is_identity()]
    assert len(nontrivial) == 59
    assert all(brute_normal_closure_order(a5, p) == 60 for p in nontrivial)
    assert a5.is_simple_nonabelian()


def test_simplicity_examples(group_of):
    assert not group_of("A:4").is_simple_nonabelian()
    assert not group_of("C:7").is_simple_nonabelian()  # abelian
    assert not group_of("S:5").is_simple_nonabelian()
    assert group_of("A:6").is_simple_nonabelian()
    assert group_of("PSL2:11").is_simple_nonabelian()


@pytest.mark.parametrize("text", ["C:1", "S:4", "A:5", "D:6", "PSL2:7"])
def test_engine_elements_are_the_stored_tuples(group_of, text):
    # classes hold the tuples of elements(), not copies, so they cost no memory of their own
    g = group_of(text)
    stored = {id(p) for p in g.elements()}
    orders = set(g.element_orders())
    values = [
        *g.elements(),
        *(p for m in orders for p in g.elements_of_order(m)),
        *(p for m in orders for cls in g.classes_of_order(m) for p in cls),
        *(p for cls in g.conjugacy_classes() for p in cls),
        *g.class_representatives(),
    ]
    assert all(type(p) is tuple for p in values)
    assert all(id(p) in stored for p in values)


def test_conjugacy_classes_partition(group_of):
    g = group_of("A:5")
    classes = g.conjugacy_classes()
    assert sum(len(c) for c in classes) == g.order
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 12, 12, 15, 20]


def test_cap_exceeded(group_of):
    with pytest.raises(CapExceeded):
        group_of("A:7", 100).elements()
    with pytest.raises(CapExceeded):
        group_of("A:7", 100).is_simple_nonabelian()


def test_a_group_past_its_cap_raises_on_every_call_and_lists_nothing():
    assert build(parse_group_spec("A:6")).max_element_order() == 5  # within the default cap
    group = build(parse_group_spec("A:6"), cap=10)
    for query in (group.elements, group.element_orders, group.max_element_order):
        for _ in range(2):
            with pytest.raises(CapExceeded):
                query()
    assert group._elements is None


def test_subgroups_carry_the_cap_over():
    group = build(parse_group_spec("S:4"), cap=10)
    made = [
        group.subgroup([(1, 2, 0, 3), (0, 2, 3, 1)]),  # A4
        group.derived_subgroup(),  # A4
        group.normal_closure([(1, 0, 2, 3)]),  # S4
    ]
    for sub in made:
        assert sub.cap == 10 and sub.order > 10
        queries = [sub.elements, sub.element_orders, sub.max_element_order, sub.conjugacy_classes,
                   sub.class_representatives, sub.is_simple_nonabelian, lambda: sub.element(0),
                   lambda: sub.elements_of_order(2), lambda: sub.classes_of_order(2)]
        for query in queries:
            with pytest.raises(CapExceeded):
                query()


C2_17 = "perm:34:" + ",".join(f"({2 * i} {2 * i + 1})" for i in range(17))


def test_sylow_classification_keeps_the_cap_the_group_was_built_with(monkeypatch):
    # C2^17 has order 131,072, past DEFAULT_CAP: the Sylow 2-subgroup is the whole
    # group, and classifying it lists its elements under the cap it was built with,
    # once: the group itself is classified, with the orders it has already cached
    listings = []
    elements = StabilizerChain.elements
    monkeypatch.setattr(StabilizerChain, "elements", lambda chain: listings.append(chain) or elements(chain))
    report = sylow_report(build(parse_group_spec(C2_17), cap=200_000), 2)
    assert (report.order, report.shape, report.rank) == (131_072, "elementary_abelian", 17)
    assert len(listings) == 1


def test_sylow_reports_for_a7(group_of):
    a7 = group_of("A:7")
    r3 = sylow_report(a7, 3)
    assert (r3.order, r3.shape, r3.rank) == (9, "elementary_abelian", 2)
    r5 = sylow_report(a7, 5)
    assert (r5.order, r5.shape) == (5, "cyclic")
    # v_2(2520) = 3; the computed group is dihedral of order 8
    r2 = sylow_report(a7, 2)
    assert (r2.order, r2.shape) == (8, "dihedral")
    with pytest.raises(ValidationError, match="does not divide"):
        sylow_report(a7, 11)


def test_sylow_orders_are_full_p_parts(group_of):
    for text in ("A:5", "S:4", "PSL2:7", "A:6", "D:7"):
        g = group_of(text)
        for p in prime_factors(g.order):
            rep = sylow_report(g, p)
            v, n = 0, g.order
            while n % p == 0:
                v += 1
                n //= p
            assert rep.order == p ** v == rep.prime ** rep.exponent
            sub = g.subgroup(rep.generators)
            assert sub.order == rep.order
            assert all(s in g for s in rep.generators)


def test_sylow_shapes_elsewhere(group_of):
    assert sylow_report(group_of("PSL2:7"), 2).shape == "dihedral"
    assert sylow_report(group_of("PSL2:11"), 2).shape == "elementary_abelian"
    assert sylow_report(group_of("C:12"), 2).shape == "cyclic"


def test_inverting_involution_is_the_first_in_the_given_order(group_of):
    d6 = group_of("D:6")  # rotation r of order 6: every reflection inverts it
    r = next(x for x, o in zip(d6.elements(), d6.element_orders()) if o == 6)
    involutions = d6.elements_of_order(2)
    rotations = {power(r, k) for k in range(6)}
    reflections = [t for t in involutions if t not in rotations]
    assert len(reflections) == 6
    assert inverting_involution(r, 6, involutions) == reflections[0]
    assert inverting_involution(r, 6, involutions[::-1]) == reflections[-1]
    # in a cyclic group the only involution lies in <x>
    c6 = group_of("C:6")
    x = next(x for x, o in zip(c6.elements(), c6.element_orders()) if o == 6)
    assert inverting_involution(x, 6, c6.elements_of_order(2)) is None


def test_min_proper_subgroup_index(group_of):
    assert min_proper_subgroup_index(group_of("A:5")) == 5
    assert min_proper_subgroup_index(group_of("A:6")) == 6
    assert min_proper_subgroup_index(group_of("PSL2:7")) == 7
    assert min_proper_subgroup_index(group_of("S:4")) == 2
    assert min_proper_subgroup_index(group_of("C:12")) == 2  # abelian shortcut
    with pytest.raises(CapExceeded):
        min_proper_subgroup_index(group_of("A:7"))


def test_max_proper_subgroup_witness_is_a_subgroup(group_of):
    g = group_of("A:5")
    best, witness = max_proper_subgroup(g)
    assert best == 12  # A4 inside A5
    sub = g.subgroup(witness)
    assert sub.order == best
    assert all(w in g for w in witness)


def test_max_proper_subgroup_is_proper_on_a_group_of_order_two(group_of):
    # a closure of n // 2 + 1 elements would admit the whole group here
    best, witness = max_proper_subgroup(group_of("C:2"))
    assert (best, witness) == (1, ())


def test_closed_subgroup_limit():
    a5_gens = (
        Permutation.from_cycles([[0, 1, 2, 3, 4]], 5).images,
        Permutation.from_cycles([[0, 1, 2]], 5).images,
    )
    assert closed_subgroup(5, a5_gens, 30) is None
    full = closed_subgroup(5, a5_gens, 61)
    assert full is not None and len(full) == 60


@settings(max_examples=25, deadline=None)
@given(st.lists(st.permutations(list(range(6))), min_size=1, max_size=3))
def test_chain_order_equals_brute_closure_on_random_groups(gens):
    g = PermGroup([Permutation(x) for x in gens])
    assert g.order == len(brute_elements(g))


def brute_classes(group):
    """Independent class partition: {g^-1 x g : g in G} for each x not yet
    covered, taken in enumeration order, so x is the class representative."""
    pairs = [(invert(g), g) for g in group.elements()]
    covered: set = set()
    out = []
    for x in group.elements():
        if x in covered:
            continue
        cls = {tuple(g[x[i]] for i in ginv) for ginv, g in pairs}
        covered |= cls
        out.append((x, cls))
    return out


@settings(max_examples=25, deadline=None)
@given(st.lists(st.permutations(list(range(6))), min_size=1, max_size=3))
def test_conjugacy_classes_equal_brute_force_on_random_groups(gens):
    g = PermGroup([Permutation(x) for x in gens])
    classes = g.conjugacy_classes()
    reference = brute_classes(g)
    assert [cls[0] for cls in classes] == [x for x, _ in reference]
    assert [set(cls) for cls in classes] == [members for _, members in reference]
    assert all(len(cls) == len(set(cls)) for cls in classes)
    orders = set(g.element_orders())
    for m in orders | {max(orders) + 1}:
        by_order = g.classes_of_order(m)
        assert by_order == tuple(cls for cls in classes if Permutation(cls[0]).order() == m)
        assert all(Permutation(p).order() == m for cls in by_order for p in cls)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.lists(st.permutations(list(range(d))), min_size=1, max_size=3)))
def test_walked_orders_equal_cycle_orders_on_random_groups(gens):
    g = PermGroup(gens, degree=len(gens[0]))
    orders = g.element_orders()  # walked in the kernel before any tuple view exists
    assert orders == tuple(map(tuple_order, g.elements()))


@pytest.mark.parametrize("text", ["C:300", "D:260", "C:1"])
def test_walked_orders_on_the_tuple_kernel_and_the_trivial_group(group_of, text):
    g = group_of(text)
    assert type(g._chain._identity) is (tuple if g.degree > 256 else bytes)
    assert g.element_orders() == tuple(map(tuple_order, g.elements()))


def test_a_group_without_levels_has_one_element():
    g = PermGroup((), degree=3)
    assert g._chain.levels == []
    assert g.element_orders() == (1,)
    assert g.elements() == ((0, 1, 2),)
    assert g.conjugacy_classes() == (((0, 1, 2),),)


def test_conjugacy_classes_on_the_tuple_kernel_equal_brute_force(group_of):
    g = group_of("D:260")  # degree 260: the chain multiplies image tuples
    classes = g.conjugacy_classes()
    reference = brute_classes(g)
    assert [cls[0] for cls in classes] == [x for x, _ in reference]
    assert [set(cls) for cls in classes] == [members for _, members in reference]


def test_orders_and_one_class_make_a_tuple_only_per_element_handed_out(monkeypatch):
    full_views = []
    elements = PermGroup.elements

    def recording(group, *args, **kwargs):
        full_views.append(group.order)
        return elements(group, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "elements", recording)
    group = build(parse_group_spec("PSL2:17"))  # a fresh group: nothing enumerated yet
    assert group.max_element_order() == 17
    involutions = group.classes_of_order(2)
    assert sum(map(len, involutions)) == 153  # one class of q(q + 1)/2 involutions
    assert full_views == []  # no tuple view of all |G| elements
    assert sum(t is not None for t in group._tuples) < group.order // 10


PGL2_7 = "perm:8:(0 1 2 3 4 5 6),(1 3 2 6 4 5),(0 7)(1 6)(2 3)(4 5)"
C2_4_C5 = "perm:16:(0 1)(2 3)(4 5)(6 7)(8 9)(10 11)(12 13)(14 15),(1 8 12 10 15)(2 3 11 7 13)(4 6 5 14 9)"
A5_X_A5 = "perm:10:(0 1 2 3 4),(0 1 2),(5 6 7 8 9),(5 6 7)"
# ASL(2,5) on the 25 points x + 5y of F_5^2: a translation and two generators
# of SL(2,5); 2-transitive and perfect, but the translations are normal
ASL2_5 = (
    "perm:25:(0 1 2 3 4)(5 6 7 8 9)(10 11 12 13 14)(15 16 17 18 19)(20 21 22 23 24),"
    "(5 6 7 8 9)(10 12 14 11 13)(15 18 16 19 17)(20 24 23 22 21),"
    "(1 5 4 20)(2 10 3 15)(6 9 24 21)(7 14 23 16)(8 19 22 11)(12 13 18 17)"
)


@pytest.mark.parametrize(
    "text",
    ["A:5", "A:6", "A:7", "PSL2:7", "PSL2:11", "PSL2:13",
     "A:4", "S:4", "S:5", "D:5", "D:10", "C:7", PGL2_7, C2_4_C5,
     "perm:7:(0 1 2 3 4 5 6),(1 2 4)(3 6 5)",  # C7:C3, whose order-3 elements generate it
     A5_X_A5, ASL2_5],  # perfect, not simple: the chain decides neither
)
def test_simplicity_agrees_with_sympy(group_of, text):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    group = group_of(text)
    theirs = combinatorics.PermutationGroup([combinatorics.Permutation(list(g)) for g in group.generators])
    # sympy's own classes and normal closures, over every nontrivial class
    reps = [next(iter(cls)) for cls in theirs.conjugacy_classes()]
    simple = theirs.order() > 1 and all(
        theirs.normal_closure(r).order() == theirs.order() for r in reps if not r.is_Identity
    )
    assert group.is_simple_nonabelian() == (simple and not theirs.is_abelian)


@pytest.mark.parametrize("text", [A5_X_A5, ASL2_5])
def test_perfect_non_simple_groups_fall_back_to_the_class_check(group_of, text):
    group = group_of(text)
    assert group._simplicity_from_chain() is None
    assert not group.is_simple_nonabelian()


def test_simplicity_never_reads_a_wrong_alternating_order():
    # D5 on 5 points, claimed to have |A5| = 60 elements: the d!/2 test reads
    # the chain's order, so building the chain catches the claim first
    d5 = PermGroup([(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)], order=60)
    with pytest.raises(permgroup.EdcertInternalError):
        d5._simplicity_from_chain()
    with pytest.raises(permgroup.EdcertInternalError):
        d5.is_simple_nonabelian()
    assert not PermGroup(d5.generators).is_simple_nonabelian()


@pytest.mark.parametrize("text", ["PSL2:53", "A:8"])  # Iwasawa's criterion; the order of A_8
def test_chain_decides_simplicity_without_enumerating(text):
    group = build(parse_group_spec(text))  # a fresh group: no cached elements
    assert group.is_simple_nonabelian()
    assert group._elements is None


def test_abelian_groups_are_not_simple_without_a_chain():
    # commuting generators decide it: C:3000 once built a chain for 0.7 s to
    # answer, and C:20000 ran out of memory doing so.  C:3000 comes first, so
    # a chain built again fails the test there, before C:20000 is tried.
    for text in ("C:3000", "C:20000"):
        group = build(parse_group_spec(text))
        assert group.is_simple_nonabelian() is False
        assert group._built is None


def test_normal_closure_rejects_outside_seeds(group_of):
    with pytest.raises(ValidationError):
        group_of("A:4").normal_closure([Permutation.from_cycles([[0, 1]], 4).images])


def test_sylow_rejects_non_prime(group_of):
    with pytest.raises(ValidationError):
        sylow_report(group_of("A:5"), 4)


def test_min_index_rejects_trivial():
    with pytest.raises(ValidationError):
        min_proper_subgroup_index(PermGroup((), degree=1))


AGL1_8 = "perm:8:(0 1)(2 3)(4 5)(6 7),(1 2 4 3 6 7 5)"
C2_3_S3 = "perm:9:(0 1),(2 3),(4 5),(6 7 8),(6 7)"


def test_min_index_is_unknown_without_a_proof(group_of):
    # neither group is simple and 2 does not divide |G : G'| (5 and 7), so
    # nothing proves an index: d is 5 and 7, the translation subgroups, and
    # the pair search answers 16 on C2^4:C5
    assert min_proper_subgroup_index(group_of(C2_4_C5)) is None
    assert min_proper_subgroup_index(group_of(AGL1_8)) is None


def test_min_index_from_the_derived_subgroup(group_of):
    assert min_proper_subgroup_index(group_of(C2_3_S3)) == 2


def _bounded_search_matches_the_full_one(g):
    full = max_proper_subgroup(g)
    limit = g.order // first_embedding_degree(g.order)
    assert max_proper_subgroup(g, limit=limit) == full
    assert embedding_degree_subgroup(g) == full  # each of these groups has a subgroup of index k0


@pytest.mark.parametrize("text", ["A:5", "A:6", "PSL2:7"])
def test_bounded_subgroup_search_finds_the_same_witness(group_of, text):
    _bounded_search_matches_the_full_one(group_of(text))


PSL3_2_CYCLES = [[(0, 1, 2, 3, 4, 5, 6)], [(0, 1), (2, 4)]]  # PSL(3,2) on the 7 points of the Fano plane
PSL2_5_CYCLES = [[(0, 1, 2, 3, 4)], [(0, 5), (1, 4)]]  # PSL(2,5) on the projective line: z + 1, -1/z; infinity = 5


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([(7, PSL3_2_CYCLES), (6, PSL2_5_CYCLES)]).flatmap(
    lambda spec: st.tuples(st.just(spec), st.permutations(list(range(spec[0]))))
))
def test_bounded_subgroup_search_on_relabelled_groups(drawn):
    (degree, generators), relabel = drawn
    gens = [Permutation.from_cycles([[relabel[x] for x in c] for c in cycles], degree) for cycles in generators]
    g = PermGroup(gens)
    assert g.order == {7: 168, 6: 60}[degree] and g.is_simple_nonabelian()
    _bounded_search_matches_the_full_one(g)


@pytest.mark.parametrize("text, index", [("S:4", 2), (C2_3_S3, 2), (C2_4_C5, None), (AGL1_8, None)])
def test_min_index_runs_no_subgroup_search_on_non_simple_groups(group_of, monkeypatch, text, index):
    # the search's limit |G| // k0 holds for simple groups only: S4 has k0 = 5
    # and a subgroup of order 12 > 24 // 5
    assert max_proper_subgroup(group_of("S:4"))[0] == 12 > 24 // first_embedding_degree(24)

    def refuse(*args, **kwargs):
        raise AssertionError("subgroup search on a non-simple group")

    monkeypatch.setattr(permgroup, "max_proper_subgroup", refuse)
    assert min_proper_subgroup_index(group_of(text)) == index


def test_first_embedding_degree_matches_the_factorial_loop():
    for order in range(1, 3001):
        k, half = 2, factorial(2) // 2
        while half % order:
            k += 1
            half *= k  # k!/2
        assert first_embedding_degree(order) == k, order


def brute_min_index(group):
    """d(G) from every proper subgroup.  Each subgroup is a join of cyclic
    subgroups, so adjoining one element at a time, starting from the cyclic
    subgroups and keeping the proper results, reaches all of them."""
    els = group.elements()
    n = len(els)
    position = {x: i for i, x in enumerate(els)}
    table = [[position[compose(a, b)] for b in els] for a in els]
    identity = position[identity_tuple(group.degree)]

    def closure(gens):
        members, queue = {identity}, [identity]
        while queue:
            row = table[queue.pop()]
            for g in gens:
                if row[g] not in members:
                    members.add(row[g])
                    queue.append(row[g])
        return frozenset(members)

    proper: dict = {}  # proper subgroup -> a generating tuple
    queue = []

    def keep(gens):
        sub = closure(gens)
        if len(sub) < n and sub not in proper:
            proper[sub] = gens
            queue.append(sub)

    for g in range(n):
        keep((g,))
    while queue:
        h = queue.pop()
        for g in range(n):
            if g not in h:
                keep(proper[h] + (g,))
    return n // max(map(len, proper), default=1)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.lists(st.permutations(list(range(d))), min_size=1, max_size=3)))
def test_min_index_is_right_or_unknown_on_random_groups(gens):
    g = PermGroup([Permutation(x) for x in gens])
    assume(g.order > 1)
    index = min_proper_subgroup_index(g)
    assert index is None or index == brute_min_index(g)
