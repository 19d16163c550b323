"""Exact decision of small-genus curve actions via branch-data search.

A finite group acts faithfully on a compact Riemann surface of genus g
with quotient orbifold data (h; m_1, ..., m_r) exactly when the
Riemann-Hurwitz identity

    2g - 2 = |G| * (2h - 2 + sum(1 - 1/m_i))

holds and there is a generating vector: elements a_1, b_1, ..., a_h, b_h
and c_1, ..., c_r of G with ord(c_i) = m_i exactly,
prod [a_i, b_i] * prod c_j = 1, generating the whole group.  This module
enumerates all candidate data up to a genus bound and, above the genus <= 1
rule's range, searches vectors exhaustively, so for groups within its caps
it decides "acts on genus <= g" outright, not by the Hurwitz 84(g-1) floor.

The vector search runs in the stabilizer chain's kernel (see ``permgroup``):
its candidates are kernel elements, each product is one ``chain._mul``
against a prepared table, and its pools and tables are built once per group
by ``PermGroup.vector_pool``, not once per datum.  Image tuples are made only
for the chain that tests whether a complete vector generates, and for the
witness, which ``validate_vector`` checks again from scratch.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import islice
from typing import NamedTuple, Sequence

from .errors import CapExceeded, EdcertInternalError
from .permgroup import Element, PermGroup, StabilizerChain
from .permutation import Permutation, record_json

YES = "yes"
NO = "no"
UNKNOWN = "unknown"
CAPPED = "some branch data exceeded search caps"

# Most slots r + 2h one vector search fills.  The oracle never reaches it: a
# simple group is 2-generated, so some triangle datum of genus < 1 + |G|/2 has
# a witness, and every datum searched up to the first witness has
# 2h - 2 + sum(1 - 1/m_i) < 1, so r + 2h <= 5.
VECTOR_WIDTH = 12

# Largest |G| whose branch data are listed, and most data listed or walked.
ORACLE_ENUMERATION = 10_000
# Largest |G| a generating-vector search takes on.
ORACLE_SEARCH = 1_000


class _SignatureFields(NamedTuple):
    orbit_genus: int
    periods: tuple[int, ...]


class Signature(_SignatureFields):
    """Orbifold branch datum: quotient genus and branching periods.

    Periods are normalized to ascending order, so equal multisets compare
    equal.
    """

    __slots__ = ()

    def __new__(cls, orbit_genus: int, periods: Sequence[int]) -> Signature:
        return super().__new__(cls, orbit_genus, tuple(sorted(periods)))

    @classmethod
    def _make(cls, iterable) -> Signature:
        """Sort, as the constructor does; `_replace` builds through here."""
        return cls(*iterable)

    def label(self) -> str:
        inner = ",".join(map(str, self.periods)) if self.periods else "-"
        return f"({self.orbit_genus}; {inner})"

    to_json = record_json


class GeneratingVector(NamedTuple):
    hyperbolic: tuple[tuple[Permutation, Permutation], ...]
    elliptic: tuple[Permutation, ...]

    to_json = record_json


class OracleVerdict(NamedTuple):
    verdict: str  # yes / no / unknown
    genus: int | None = None
    signature: Signature | None = None
    vector: GeneratingVector | None = None
    reason: str = ""

    to_json = record_json


def genus_le1_excluded(order: int) -> bool:
    """The genus <= 1 rule: a nonabelian simple group of this order acts on
    no curve of genus <= 1 unless the order is 60.  On a rational curve it
    embeds in PGL2(C), whose finite subgroups are cyclic, dihedral, A4, S4
    and A5; on an elliptic curve it meets the translations in a normal
    abelian subgroup with cyclic quotient, so it is solvable.  That leaves
    A5, the icosahedral group and the unique simple group of order 60.
    """
    return order != 60


def rh_genus(order: int, sig: Signature) -> Fraction:
    """Genus forced on the cover by the Riemann-Hurwitz identity (may be a
    non-integer Fraction, in which case the datum is unrealizable)."""
    total = Fraction(2 * sig.orbit_genus - 2)
    for m in sig.periods:
        total += 1 - Fraction(1, m)
    return (order * total + 2) / 2


def _period_choices(group: PermGroup) -> list[int]:
    """Divisors >= 2 of element orders: the only admissible periods."""
    divisors: set[int] = set()
    for o in set(group.element_orders()):
        for d in range(2, o + 1):
            if o % d == 0:
                divisors.add(d)
    return sorted(divisors)


def _branch_data(group: PermGroup, genus_max: int | None):
    """Every (genus, Signature) with 0 <= genus <= genus_max (no bound when
    None), lazily, in (genus, quotient genus, periods) order.

    With L the lcm of the admissible periods, the datum (h; m_1, ..., m_r)
    has the integer weight t = L * (2h - 2 + sum(1 - 1/m_i)), and
    2g - 2 = |G| * t / L.  A heap keyed on (t, h, periods) reaches each datum
    exactly once, by appending a copy of the last period or raising the last
    period to the next choice; (h; -) also leads to (h+1; -).  Every move
    raises t, so data pop in genus order.
    """
    order = group.order
    choices = _period_choices(group)
    lcm = math.lcm(*choices)
    weight = {m: lcm - lcm // m for m in choices}
    raise_to = dict(zip(choices, choices[1:]))
    heap = [(-2 * lcm, 0, ())]
    while heap:
        t, h, periods = heapq.heappop(heap)
        if genus_max is not None and order * t > lcm * (2 * genus_max - 2):
            return
        g2, rest = divmod(order * t, lcm)  # 2g - 2, when rest is 0
        if rest == 0 and g2 % 2 == 0 and g2 >= -2:
            yield g2 // 2 + 1, Signature(h, periods)
        if not periods:
            heapq.heappush(heap, (t + 2 * lcm, h + 1, ()))
            if choices:
                heapq.heappush(heap, (t + weight[choices[0]], h, (choices[0],)))
            continue
        last = periods[-1]
        heapq.heappush(heap, (t + weight[last], h, periods + (last,)))
        if last in raise_to:
            step = weight[raise_to[last]] - weight[last]
            heapq.heappush(heap, (t + step, h, periods[:-1] + (raise_to[last],)))


def enumerate_signatures(group: PermGroup, genus_max: int) -> list[tuple[int, Signature]]:
    """All (genus, signature) pairs with genus in [0, genus_max] satisfying
    the Riemann-Hurwitz identity with periods drawn from element orders.

    Output is in (genus, quotient genus, periods) order and duplicate-free;
    periods are canonical ascending tuples.  The oracle enumeration cap
    bounds both |G| and the number of data listed.
    """
    limit = ORACLE_ENUMERATION
    if group.order > limit:
        raise CapExceeded(
            f"order {group.order} exceeds the oracle enumeration cap {limit}",
            budget="oracle_enumeration",
            needed=group.order,
            cap=limit,
        )
    results = list(islice(_branch_data(group, genus_max), limit + 1))
    if len(results) > limit:
        raise CapExceeded(
            f"more than {limit} branch data up to genus {genus_max} (the oracle enumeration cap)",
            budget="oracle_enumeration",
            needed=limit + 1,
            cap=limit,
        )
    return results


def validate_vector(group: PermGroup, sig: Signature, vec: GeneratingVector) -> bool:
    """Independent witness check: exact orders, product one, generation.

    Deliberately recomputes everything from scratch rather than trusting
    the search that produced the vector.
    """
    if len(vec.hyperbolic) != sig.orbit_genus or len(vec.elliptic) != len(sig.periods):
        return False
    if sorted(c.order() for c in vec.elliptic) != sorted(sig.periods):
        return False
    product = Permutation.identity(group.degree)
    for a, b in vec.hyperbolic:
        product = product * a * b * a.inverse() * b.inverse()
    for c in vec.elliptic:
        product = product * c
    if not product.is_identity():
        return False
    everything = [p for ab in vec.hyperbolic for p in ab] + list(vec.elliptic)
    for p in everything:
        if p.images not in group:
            return False
    chain = StabilizerChain([p.images for p in everything], group.degree)
    return chain.order() == group.order


def _orbit_size(generators: Sequence[tuple[int, ...]], point: int) -> int:
    """Size of the orbit of `point` under the group the generators generate,
    by a breadth-first walk over points."""
    orbit = {point}
    queue = [point]
    for x in queue:
        for g in generators:
            if g[x] not in orbit:
                orbit.add(g[x])
                queue.append(g[x])
    return len(orbit)


def find_generating_vector(group: PermGroup, sig: Signature) -> GeneratingVector | None:
    """Depth-first search for a generating vector realizing the signature.

    The slots are the 2h hyperbolic entries a_1, b_1, ..., a_h, b_h, then
    the elliptic entries in descending period order.  Slot 0 ranges over
    conjugacy-class representatives only (a global conjugation normalizes
    any vector so that its first entry is a representative), later slots
    over all elements, or those of the slot's period, in enumeration order.
    Each b_i multiplies the product so far by [a_i, b_i]; the last elliptic
    entry is forced by the product condition, and with no elliptic slot
    the commutators alone must multiply to one.

    The search runs in the group's stabilizer-chain kernel (bytes up to
    degree 256, image tuples above).  Its pools come from
    ``PermGroup.vector_pool``, built once per group, slot kind and period,
    with each element's right-factor and inverse tables, so a node's
    product is one ``chain._mul`` and a commutator four, by the tables of
    a, b, a^-1 and b^-1.  The forced last entry, the inverse of the
    product so far, has that product's order: it is read from the
    product's inverse table only when the product lies among the kernel
    elements of its period.  A complete vector builds a stabilizer chain
    only when it moves the point with G's largest orbit (cached per group)
    over that whole orbit: a smaller orbit cannot be G's.  Image tuples
    are made only for that chain and for the witness.
    """
    if group.order > ORACLE_SEARCH:
        raise CapExceeded(
            f"order {group.order} exceeds the vector-search cap {ORACLE_SEARCH}",
            budget="oracle_search",
            needed=group.order,
            cap=ORACLE_SEARCH,
        )
    h = sig.orbit_genus
    slots = [None] * (2 * h) + sorted(sig.periods, reverse=True)
    if len(slots) > VECTOR_WIDTH:
        raise CapExceeded(
            f"signature needs {len(slots)} slots, width cap is {VECTOR_WIDTH}",
            budget="vector_width",
            needed=len(slots),
            cap=VECTOR_WIDTH,
        )
    if rh_genus(group.order, sig).denominator != 1:
        return None
    if not slots:
        return None  # only the trivial group has no slots
    last = len(slots) - 1
    forced = None if slots[last] is None else group.kernel_elements_of_order(slots[last])
    searched = slots if forced is None else slots[:last]
    pools = [group.vector_pool(m, i == 0) for i, m in enumerate(searched)]
    if not all(pools) or forced == {}:
        return None  # a period no element has

    degree = group.degree
    point, orbit = group.largest_orbit()
    chain = group._chain
    mul, identity = chain._mul, chain._identity

    def generates(parts: list[Element]) -> bool:
        return _orbit_size(parts, point) == orbit and StabilizerChain(parts, degree).order() == group.order

    def found_vector(parts: list[Element]) -> GeneratingVector:
        """The witness, as validated Permutations for the independent re-check."""
        perms = [Permutation(p) for p in parts]
        return GeneratingVector(
            hyperbolic=tuple(zip(perms[0:2 * h:2], perms[1:2 * h:2])),
            elliptic=tuple(perms[2 * h:]),
        )

    chosen: list[tuple[Element, Element, Element]] = []  # the pool entries picked so far

    def search(i: int, prefix: Element) -> GeneratingVector | None:
        if i > last:  # no elliptic slot: the commutators alone must multiply to one
            if prefix != identity:
                return None
            parts = [x for x, _, _ in chosen]
            return found_vector(parts) if generates(parts) else None
        if i == last and forced is not None:  # the inverse of the product so far
            if prefix not in forced:
                return None
            parts = [x for x, _, _ in chosen] + [chain._inverse_table(prefix)[:degree]]
            return found_vector(parts) if generates(parts) else None
        elliptic = slots[i] is not None
        for entry in pools[i]:
            chosen.append(entry)
            if elliptic:
                found = search(i + 1, mul(prefix, entry[1]))
            elif i % 2:
                _, a_table, a_inverse = chosen[-2]
                _, x_table, x_inverse = entry
                found = search(i + 1, mul(mul(mul(mul(prefix, a_table), x_table), a_inverse), x_inverse))
            else:
                found = search(i + 1, prefix)
            if found:
                return found
            chosen.pop()
        return None

    found = search(0, identity)
    del search  # it refers to itself: the cycle would keep the group alive until the next collection
    return found


def acts_on_genus_le(group: PermGroup, genus: int | None) -> OracleVerdict:
    """Does the group act nontrivially on some smooth curve of genus <= g?

    Requires a nonabelian simple group (there nontrivial means faithful);
    anything else, or any cap overrun, degrades to `unknown`, never to a
    wrong verdict.  With g None there is no bound.  The gates, in order:
    a bound below 0 answers `no`; past the oracle enumeration cap, and past
    the vector-search cap for a bound the genus <= 1 rule cannot settle
    (None or >= 2), `unknown`, before simplicity is decided; a group not
    decided nonabelian simple, `unknown`; a bound below 2 is settled by
    `genus_le1_excluded` (`no` for every order but 60).  Then branch data
    are walked once, in genus order, and searched as they come (data of
    genus <= 1 the rule excludes are counted, not searched), so the cost
    follows the least genus with a witness, which a `yes` reports; walking
    more data than the oracle enumeration cap answers `unknown`.  The walk
    yields (1; -) of genus 1 for every order, and a bound of 0 reaches it
    only for order 60, where A5 yields (0; 2,3,5), so it is never empty.
    """
    if genus is not None and genus < 0:
        return OracleVerdict(NO, reason=f"no admissible branch data up to genus {genus}")
    if group.order > ORACLE_ENUMERATION:
        return OracleVerdict(UNKNOWN, reason="group exceeds the signature enumeration cap")
    if (genus is None or genus >= 2) and group.order > ORACLE_SEARCH:
        return OracleVerdict(UNKNOWN, reason=CAPPED)
    try:
        simple = group.is_simple_nonabelian()
    except CapExceeded:
        return OracleVerdict(UNKNOWN, reason="simplicity undecided within enumeration cap")
    if not simple:
        return OracleVerdict(UNKNOWN, reason="oracle requires a nonabelian simple group")
    excluded = genus_le1_excluded(group.order)
    if excluded and genus is not None and genus < 2:
        return OracleVerdict(NO, reason=f"the genus <= 1 rule excludes genus <= {genus}")
    count = 0  # data walked so far, searched or excluded by the rule
    for g, sig in _branch_data(group, genus):
        count += 1
        if count > ORACLE_ENUMERATION:
            return OracleVerdict(UNKNOWN, reason="branch data exceed the signature enumeration cap")
        if excluded and g < 2:
            continue
        try:
            vec = find_generating_vector(group, sig)
        except CapExceeded:  # unreachable for a simple group, see VECTOR_WIDTH
            return OracleVerdict(UNKNOWN, reason=CAPPED)
        if vec is not None:
            if not validate_vector(group, sig, vec):
                raise EdcertInternalError(f"search produced an invalid vector for {sig.label()}")
            return OracleVerdict(YES, genus=g, signature=sig, vector=vec)
    return OracleVerdict(NO, reason=f"all branch data up to genus {genus} exhausted")
