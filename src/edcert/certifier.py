"""Composes the three certifiable hypotheses into per-(G, n) certificates.

The three conditions, for a finite group G and an integer n >= 2:

  1. no_small_index        -- G has no proper subgroup of index <= n;
  2. mobius_subgroup       -- G contains a finite Moebius group (cyclic,
                              dihedral, A4, S4 or A5) of order > n;
  3. no_small_genus_action -- G does not act nontrivially on a smooth
                              complex curve of genus <= (n-1)^2.

Together they certify that no family of equations with group G reduces to
a one-parameter family after an accessory cover of degree at most n.

Three modes separate what is being verified:

  computed      -- only self-contained computations on the group itself;
  hybrid        -- computed, plus tagged family constants from the
                   classical literature where enumeration is out of reach;
  paper_formula -- regression mode reproducing the published closed-form
                   bound min{d(G), maxcyc-1, 1 + floor(sqrt(1 + |G|/84))}
                   exactly as printed (non-strict Hurwitz floor, cyclic
                   Moebius witnesses only).
"""

from __future__ import annotations

from math import factorial, inf, isqrt
from typing import Iterable, NamedTuple, Sequence

from .catalogue import MOBIUS_BOUND_PROVENANCE, FamilyConstants, family_overrides
from .curvebounds import hurwitz_min_genus, riemann_genus_cap
from .errors import BUDGETS, CapExceeded, ValidationError
from .permgroup import (
    Element,
    Kernel,
    PermGroup,
    embedding_degree_subgroup,
    first_embedding_degree,
    inverting_involution,
    kernel,
)
from .permutation import cycle_string, invert, record_json
from . import permgroup, rhoracle

COMPUTED = "computed"
HYBRID = "hybrid"
PAPER_FORMULA = "paper_formula"
MODES = (COMPUTED, HYBRID, PAPER_FORMULA)

CERTIFIED = "certified"
REFUTED = "refuted"
UNKNOWN = "unknown"

COND_INDEX = "no_small_index"
COND_MOBIUS = "mobius_subgroup"
COND_GENUS = "no_small_genus_action"

# k -> the (2, 3, k) triangle group and its order, for k = 3, 4, 5
_TRIANGLE_GROUPS = {3: ("A4", 12), 4: ("S4", 24), 5: ("A5", 60)}
# Words in the witness search's pool.  The search reaches Dickson's
# bound on every PSL2(p) within the enumeration cap (7 <= p <= 53) from 180
# words on: p = 53 needs 180 for its D_106, and 170 find only D_54.  256
# leaves a margin above 180.
_WITNESS_WORDS = 256


class ConditionReport(NamedTuple):
    """One decider's answer.  Asked at an n, `verdict` is the verdict there.
    Asked without one, the decider certifies every n in 2..certified_up_to
    (None: no range is known within caps) and `verdict` is its verdict at
    certified_up_to + 1, where `unknown` means the range may reach further."""

    condition: str
    verdict: str  # certified / refuted / unknown
    method: str | None
    detail: dict
    certified_up_to: int | None = None  # set only when asked without an n

    def to_json(self) -> dict:
        """Every field but `certified_up_to`, which `maxn` reports instead."""
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "method": self.method,
            "detail": self.detail,
        }


class Certificate(NamedTuple):
    group: str
    n: int
    mode: str
    conditions: tuple[ConditionReport, ...]
    overall: str
    constants: dict
    notes: tuple[str, ...] = ()

    def condition(self, name: str) -> ConditionReport:
        return next(c for c in self.conditions if c.condition == name)

    to_json = record_json


class BoundReport(NamedTuple):
    group: str
    mode: str
    cond1_max: int | None
    cond2_max: int | None
    cond3_max: int | None
    certified_max_n: int | None
    binding: str
    constants: dict
    details: dict
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        """The fields, with `certified_max_n` printed as `maxn`."""
        return {
            "group": self.group,
            "mode": self.mode,
            "cond1_max": self.cond1_max,
            "cond2_max": self.cond2_max,
            "cond3_max": self.cond3_max,
            "maxn": self.certified_max_n,
            "binding": self.binding,
            "constants": self.constants,
            "details": self.details,
            "notes": list(self.notes),
        }


def _constants(group: PermGroup, simple: bool | None, how: str) -> dict:
    """The group's order and degree, every cap, and how simplicity was decided."""
    return {
        "order": group.order,
        "degree": group.degree,
        "caps": {"enumeration": group.cap, **BUDGETS},
        "simplicity": {"value": simple, "method": how},
    }


def _literature(group: PermGroup, mode: str) -> FamilyConstants | None:
    """The family constants of a group that `build` made, in hybrid and
    paper_formula modes, else None: the one reader of literature constants."""
    if mode == COMPUTED or group.spec is None:
        return None
    return family_overrides(group.spec)


def decide_simplicity(group: PermGroup, mode: str) -> tuple[bool | None, str]:
    """Nonabelian simplicity with the mode's allowed means.

    Returns (verdict, how); verdict None means undecidable within caps.
    """
    constants = _literature(group, mode)
    if constants is not None and constants.simple_nonabelian is not None:
        return constants.simple_nonabelian, "literature_override"
    try:
        return group.is_simple_nonabelian(), "computed"
    except CapExceeded:
        return None, "cap_exceeded"


# -- condition 1: no proper subgroup of small index ----------------------------


def cond1_no_small_index(group: PermGroup, n: int | None, mode: str) -> ConditionReport:
    """Certify that every proper subgroup has index > n.

    The methods below rest on G being nonabelian simple, so a group that
    `decide_simplicity` does not decide simple gets `unknown`, with a note
    that says whether simplicity was undecided or false.  Methods, in
    order: divisibility (a simple group with an index-k subgroup embeds in
    the alternating group of degree k, so |G| must divide k!/2), then d(G):
    the literature constant (hybrid and paper_formula modes), else the
    brute-force search for a subgroup of index k0 =
    `first_embedding_degree(|G|)` (the oracle, for |G| within the
    subgroup-search cap).  The search runs only once divisibility has
    failed at n >= k0, so a subgroup it finds refutes.

    Without an n the range is d(G) - 1 from the literature constant, else
    k0 - 1 from divisibility alone: a search index counts only when it
    equals k0, so the search could only refute at k0.  Asked for the range,
    the search runs in paper_formula mode only, whose closed form prints
    d(G) itself.
    """
    simple, _ = decide_simplicity(group, mode)
    if not simple:
        note = ("simplicity undecided within caps" if simple is None
                else "the implemented index decider requires a nonabelian simple group")
        return ConditionReport(COND_INDEX, UNKNOWN, None, {"n": n, "note": note})
    order = group.order
    detail: dict = {"order": order, "n": n}

    # divisibility certificate: |G| divides no k!/2 for k = 2..n
    k0 = first_embedding_degree(order)
    if n is not None:
        detail["divisibility_checks"] = [
            {"k": k, "half_factorial": factorial(k) // 2, "divides": k == k0} for k in range(2, min(n, k0) + 1)
        ]
        if n < k0:
            return ConditionReport(COND_INDEX, CERTIFIED, "divisibility", detail)

    constants = _literature(group, mode)
    if constants is not None and constants.min_proper_index is not None:
        d = constants.min_proper_index
        if n is None:
            return ConditionReport(COND_INDEX, REFUTED, "literature_override", {"min_proper_index": d}, d - 1)
        detail.update(min_proper_index=d, provenance=constants.provenance)
        return ConditionReport(COND_INDEX, CERTIFIED if d > n else REFUTED, "literature_override", detail)

    found, why = None, "the k!/2 bound does not prove the searched index"
    if n is not None or mode == PAPER_FORMULA:
        try:
            found = embedding_degree_subgroup(group)
        except CapExceeded as exc:
            if exc.budget != "subgroup_search":
                raise
            why = "group exceeds the subgroup-search cap"
    if found is None:
        if n is None:
            detail = {"first_admissible_embedding_degree": k0}
            return ConditionReport(COND_INDEX, UNKNOWN, "divisibility", detail, k0 - 1)
        detail["note"] = f"divisibility inconclusive and {why}"
        return ConditionReport(COND_INDEX, UNKNOWN, None, detail)
    if n is None:
        return ConditionReport(COND_INDEX, REFUTED, "brute_force", {"min_proper_index": k0}, k0 - 1)
    best, witness = found
    detail.update(min_proper_index=k0, max_proper_subgroup_order=best, witness_subgroup={
        "index": k0, "order": best, "generators": [cycle_string(w) for w in witness]})
    return ConditionReport(COND_INDEX, REFUTED, "brute_force", detail)


# -- condition 2: a large Moebius subgroup -------------------------------------


def _witness(kind: str, order: int, *generators: Sequence[int]) -> dict:
    return {"type": kind, "order": order, "generators": [cycle_string(g) for g in generators]}


def _exceptional_pairs(kern: Kernel, involutions: Iterable[Element], threes: Iterable[Element]):
    """(order, kind, a, b), in loop order, for each involution a and
    order-3 element b, kernel elements of `kern`, that generate A4, S4 or A5.

    With a^2 = b^3 = 1, <a, b> is a quotient of the (2, 3, k) triangle
    group, k = ord(ab), in which a, b and ab keep their orders.  For
    k = 3, 4, 5 that group is A4, S4 or A5, and none of its proper
    quotients keeps those orders (von Dyck; Coxeter & Moser, Generators
    and Relations for Discrete Groups), so <a, b> is the triangle group
    itself.  k = 2 gives at most S3, and k >= 6 puts an element of order k
    in <a, b>, which none of A4, S4, A5 has.

    ab != 1, as a and b differ in order, so k is the least j in 2..5 with
    (ab)^j = 1, when there is one: at most five products, ab and its
    powers up to the fifth, decide a pair.
    """
    mul, table, identity = kern.mul, kern.table, kern.identity
    three_tables = [(b, table(b)) for b in threes]
    for a in involutions:
        for b, b_table in three_tables:
            x = y = mul(a, b_table)
            x_table = table(x)
            for j in (2, 3, 4, 5):
                y = mul(y, x_table)
                if y == identity:
                    found = _TRIANGLE_GROUPS.get(j)
                    if found is not None:
                        yield found[1], found[0], a, b
                    break


def _search_cyclic(group: PermGroup) -> tuple[int, dict]:
    orders = group.element_orders()
    m = max(orders)
    return m, _witness("cyclic", m, group.element(orders.index(m)))


def _search_dihedral(group: PermGroup) -> tuple[int, dict]:
    """Largest dihedral subgroup 2*ord(x) via an inverting involution:
    t^2 = 1, t x t^-1 = x^-1, t outside <x>.  Up to conjugacy it suffices
    to let x run over class representatives, largest order first (ties by
    image tuple); the classes of one order are partitioned only when the
    search reaches that order."""
    involutions = group.elements_of_order(2)
    for m in sorted(set(group.element_orders()) - {1}, reverse=True) if involutions else ():
        for x in sorted(cls[0] for cls in group.classes_of_order(m)):
            t = inverting_involution(x, m, involutions)
            if t is not None:
                return 2 * m, _witness("dihedral", 2 * m, x, t)
    return 0, {}


def _search_exceptional(group: PermGroup) -> tuple[int, dict]:
    """Largest of A4/S4/A5 inside the group, read off the (involution,
    order-3 element) pairs by `_exceptional_pairs` -- each of the three is
    generated by such a pair.  The involutions run over class
    representatives, the order-3 elements over the group, both as kernel
    elements in enumeration order; the witness is the first pair of the
    largest kind."""
    kern = kernel(group.degree)
    invol_reps = [kern.encode(cls[0]) for cls in group.classes_of_order(2)]
    best, witness = 0, {}
    for order, kind, a, b in _exceptional_pairs(kern, invol_reps, group.kernel_elements_of_order(3)):
        if order > best:
            best, witness = order, _witness(kind, order, a, b)
            if order == 60:
                break
    return best, witness


def _word_pool(kern: Kernel, generators: Sequence[tuple[int, ...]]) -> list[Element]:
    """The first `_WITNESS_WORDS` distinct nontrivial elements reached by a
    breadth-first walk over products of the generators and their inverses:
    the shortest words, ties in generator order.  The words are kernel
    elements of `kern`."""
    steps = [kern.table(s) for s in dict.fromkeys(map(kern.encode, [*generators, *map(invert, generators)]))]
    mul = kern.mul
    seen, pool, frontier = {kern.identity}, [], [kern.identity]
    while frontier:
        reached = []
        for w in frontier:
            for s in steps:
                y = mul(w, s)
                if y not in seen:
                    seen.add(y)
                    pool.append(y)
                    reached.append(y)
                    if len(pool) == _WITNESS_WORDS:
                        return pool
        frontier = reached
    return pool


def _search_words(group: PermGroup, bound: int | None) -> tuple[int, dict]:
    """Largest Moebius witness (order, witness) among short words, without
    enumerating the group; stops as soon as the order reaches `bound`, and
    with no bound runs every loop to its end.

    In order: the words themselves (cyclic); pairs of distinct involutions
    s != t among the words' powers, which generate a dihedral group of
    order 2 * ord(st), with witness [st, t] (t inverts st and lies outside
    <st>, as a cyclic group has one involution); and (involution, order-3)
    pairs whose kind `_exceptional_pairs` reads off ord(ab).  The last loop
    gives at most A5, of order 60, so it is skipped for a bound above 60.
    Every witness is checked by construction; the bound only ends the
    search.

    The search runs in the chain's kernel for the group's degree
    (`permgroup.kernel`) and builds no chain.  Each word's order m, and
    each dihedral candidate's, comes from `Kernel.order`: a walk over at
    most `permgroup.WALK` powers, else the lcm of the cycle lengths; and
    w^(m/2) and w^(m/3) from `Kernel.power`, by repeated squaring.  So
    neither time nor memory grows with m.  A dihedral candidate st is one
    product against t's table.  Only the witness's generators are written
    out, as cycle strings.
    """
    kern = kernel(group.degree)
    best, best_word, involutions, threes = 1, None, {}, {}  # the dicts are ordered sets
    order_of, power = kern.order, kern.power
    for w in _word_pool(kern, group.generators):
        m = order_of(w)
        if m > best:
            best, best_word = m, w
        if m % 2 == 0:
            involutions.setdefault(power(w, m // 2))
        if m % 3 == 0:
            threes.setdefault(power(w, m // 3))
    witness = {} if best_word is None else _witness("cyclic", best, best_word)
    involutions = list(involutions)

    def dihedral():
        mul, tables = kern.mul, [kern.table(t) for t in involutions]
        for i, s in enumerate(involutions):
            for t, t_table in zip(involutions[i + 1:], tables[i + 1:]):
                x = mul(s, t_table)
                yield 2 * order_of(x), "dihedral", x, t

    stop = inf if bound is None else bound
    if best >= stop:
        return best, witness
    loops = [dihedral()]
    if bound is None or bound <= 60:
        loops.append(_exceptional_pairs(kern, involutions, threes))
    for candidates in loops:
        for order, kind, *generators in candidates:
            if order > best:
                best, witness = order, _witness(kind, order, *generators)
                if best >= stop:
                    return best, witness
    return best, witness


def cond2_mobius_subgroup(group: PermGroup, n: int | None, mode: str) -> ConditionReport:
    """Certify a Moebius subgroup of order > n.

    One witness certifies, and only a refutation needs every element.  So
    with an n, in computed and hybrid mode, `_search_words` looks first
    for a word witness of order >= n + 1.  It builds no chain and
    enumerates no element, so the enumeration cap does not bind it.  A
    hit certifies with method `word_search`; a miss goes on to the stages
    below.  The search is skipped above `permgroup.BYTES_DEGREE`, where a
    word is an image tuple of the full degree and each product a
    `compose`.  Its time and memory do not grow with the order of a word,
    which may pass the cap by far (`_search_words`).

    The stages search cyclic, then dihedral, then the exceptional types
    A4/S4/A5, read off ord(ab) for an involution a and an order-3 element b
    (`_exceptional_pairs`), stopping at the first stage that certifies.
    Each stage returns its (order, witness), and a later stage wins a tie.
    Refutation is sound because each stage is exhaustive up to conjugacy
    for its subgroup type.  The paper-formula mode, and the hybrid fallback
    beyond the enumeration cap, consider cyclic subgroups only and so never
    refute.  Without an n all three stages run, and the range is the
    largest order found minus one.  With an n, the detail keys
    `cyclic_max`, `dihedral_max`, `exceptional_max` and `exceptional_kind`
    appear only when the stages ran; a `word_search` report has none of
    them, and a cyclic-only report has `cyclic_max` alone.

    Without an n in hybrid mode, within the enumeration cap, a group whose
    family constants give the largest Moebius order (Dickson's list for
    PSL2(p)) first tries `_search_words` with that order as the target,
    which enumerates no element: a witness that reaches it gives the range
    at once (method `witness_search`), and the three stages run only when
    none does.
    """
    detail: dict = {} if n is None else {"n": n, "required_order": n + 1}
    constants = _literature(group, mode)
    if n is not None:
        target = n + 1 if mode != PAPER_FORMULA and group.degree <= permgroup.BYTES_DEGREE else None
    elif mode == HYBRID and constants is not None and group.order <= group.cap:
        target = constants.max_mobius_order
    else:
        target = None
    if target is not None:
        best, witness = _search_words(group, target)
        if best >= target and n is None:
            detail = {"best_order": best, "witness": witness, "bound_provenance": MOBIUS_BOUND_PROVENANCE}
            return ConditionReport(COND_MOBIUS, REFUTED, "witness_search", detail, best - 1)
        if best >= target:
            detail.update(best_order=best, witness=witness)
            return ConditionReport(COND_MOBIUS, CERTIFIED, "word_search", detail)

    try:
        if mode == PAPER_FORMULA:
            return _cond2_cyclic_only(group, n, mode, detail)
        best, witness, found = 0, {}, []
        # the stages are looked up per call, so a tracer that wraps them sees them
        for stage in (_search_cyclic, _search_dihedral, _search_exceptional):
            if n is not None and best > n:
                break
            found.append(stage(group))
            if found[-1][0] >= best:  # a later stage wins a tie
                best, witness = found[-1]
    except CapExceeded:
        if mode == HYBRID and constants is not None and constants.max_element_order is not None:
            return _cond2_cyclic_only(group, n, mode, detail)
        detail["note"] = "group exceeds the enumeration cap; no literature fallback"
        return ConditionReport(COND_MOBIUS, UNKNOWN, None, detail)

    method = {"cyclic": "cyclic_search", "dihedral": "dihedral_search"}.get(witness.get("type"), "exceptional_search")
    if n is None:
        return ConditionReport(COND_MOBIUS, REFUTED, method, {"best_order": best, "witness": witness}, best - 1)
    (cyclic, _), (dihedral, _), (exceptional, exceptional_witness) = found + [(None, {})] * (3 - len(found))
    detail.update(cyclic_max=cyclic, dihedral_max=dihedral, exceptional_max=exceptional,
                  exceptional_kind=exceptional_witness.get("type"), best_order=best, witness=witness)
    if best > n:
        return ConditionReport(COND_MOBIUS, CERTIFIED, method, detail)
    # every stage ran before a refutation, so the deepest one is the method
    return ConditionReport(COND_MOBIUS, REFUTED, "exceptional_search", detail)


def _cond2_cyclic_only(group, n, mode, detail) -> ConditionReport:
    """Cyclic witness from family constants (paper-formula and hybrid fallback),
    else from the largest element order; raises CapExceeded beyond the cap.

    A cyclic subgroup of order m > n certifies.  m <= n refutes nothing: a
    dihedral or exceptional subgroup may still be larger (PSL2(7) has
    largest element order 7 but contains S4), so the answer is `unknown`.
    """
    constants = _literature(group, mode)
    if constants is None or constants.max_element_order is None:
        method, m = "cyclic_search", group.max_element_order()
    else:
        method, m = "literature_override", constants.max_element_order
        detail["provenance"] = constants.provenance
    detail.update(cyclic_max=m, best_order=m, witness={"type": "cyclic", "order": m})
    if n is None:  # the closed form prints the cyclic maximum; hybrid reads it as the best order
        summary = {"cyclic_max": m} if mode == PAPER_FORMULA else {"best_order": m, "witness": detail["witness"]}
        return ConditionReport(COND_MOBIUS, UNKNOWN, method, summary, m - 1)
    if m > n:
        return ConditionReport(COND_MOBIUS, CERTIFIED, method, detail)
    detail["note"] = "only cyclic subgroups were considered"
    return ConditionReport(COND_MOBIUS, UNKNOWN, method, detail)  # method: where cyclic_max came from


# -- condition 3: no action on curves of small genus ---------------------------


def cond3_no_small_genus_action(group: PermGroup, n: int | None, mode: str) -> ConditionReport:
    """Certify no nontrivial action on any smooth curve of genus <= (n-1)^2.

    (a) genus <= 1 is excluded for every nonabelian simple group other than
        the icosahedral group (order 60), by rhoracle.genus_le1_excluded.
    (b) each genus in [2, (n-1)^2] is excluded by the Hurwitz floor when
        (n-1)^2 < hurwitz_min_genus(|G|) (strict in computed/hybrid mode;
        the paper-formula mode certifies at equality, as printed); if the
        floor leaves a gap, the branch-data oracle decides it exactly when
        the group is within its caps.  Missing the floor refutes nothing:
        past its reading, paper-formula mode refutes only with the
        oracle's witness and otherwise answers `unknown`.

    Both rest on G being nonabelian simple, so a group that
    `decide_simplicity` does not decide simple gets `unknown`; the detail
    names how simplicity was tried (`simplicity_method`) only when it was
    undecided.

    Without an n the oracle is asked once, with no genus bound: its least
    genus g_min with an action gives the range, the largest n with
    (n-1)^2 < g_min.  Where it cannot answer, the Hurwitz floor does, and
    in paper-formula mode its non-strict reading; both read `unknown` past
    the range.
    """
    order = group.order
    detail: dict = {"n": n, "order": order}
    if n is not None:
        detail["genus_cap"] = cap_genus = riemann_genus_cap(n)

    simple, how = decide_simplicity(group, mode)
    if simple is None:
        detail.update(simplicity_method=how, note="simplicity undecided within caps")
        return ConditionReport(COND_GENUS, UNKNOWN, None, detail)
    if not simple:
        detail["note"] = "decider requires a nonabelian simple group"
        return ConditionReport(COND_GENUS, UNKNOWN, None, detail)

    is_icosahedral = not rhoracle.genus_le1_excluded(order)
    icosahedral_note = "order-60 simple group is the icosahedral Moebius group"
    floor = hurwitz_min_genus(order)
    if n is None:
        if is_icosahedral:
            return ConditionReport(COND_GENUS, REFUTED, "genus_le1_rule", {"note": icosahedral_note}, 1)
        if mode == PAPER_FORMULA:  # n <= 1 + floor(sqrt(1 + |G|/84)), non-strict as printed
            detail = {"reading": "non_strict", "hurwitz_floor": floor}
            return ConditionReport(COND_GENUS, UNKNOWN, "hurwitz", detail, 1 + isqrt((84 + order) // 84))
        verdict = rhoracle.acts_on_genus_le(group, None)
        if verdict.verdict == rhoracle.YES:
            detail = {"hurwitz_floor": floor, "min_genus": verdict.genus}
            return ConditionReport(COND_GENUS, REFUTED, "rh_oracle", detail, 1 + isqrt(verdict.genus - 1))
        detail = {"reading": "strict", "hurwitz_floor": floor}
        return ConditionReport(COND_GENUS, UNKNOWN, "hurwitz", detail, 1 + isqrt(floor - 1))

    detail["genus_le1_rule"] = {"simple_nonabelian": True, "excluded": not is_icosahedral}
    if is_icosahedral:
        verdict = rhoracle.acts_on_genus_le(group, 0)
        if verdict.verdict == rhoracle.YES:
            detail["witness"] = _genus_witness(verdict)
            return ConditionReport(COND_GENUS, REFUTED, "rh_oracle", detail)
        detail["note"] = icosahedral_note
        return ConditionReport(COND_GENUS, REFUTED, "genus_le1_rule", detail)

    detail["hurwitz_floor"] = floor
    if cap_genus < 2:
        return ConditionReport(COND_GENUS, CERTIFIED, "genus_le1_rule", detail)

    # non-strict reading: 84 * ((n-1)^2 - 1) <= |G| still certifies
    if mode == PAPER_FORMULA and 84 * (cap_genus - 1) <= order:
        detail["hurwitz_reading"] = "non_strict"
        return ConditionReport(COND_GENUS, CERTIFIED, "hurwitz", detail)
    if cap_genus < floor:
        return ConditionReport(COND_GENUS, CERTIFIED, "hurwitz", detail)

    # Hurwitz leaves the genus range [floor, (n-1)^2] open; ask the oracle.
    # Missing the floor refutes nothing, so only a witness refutes, and
    # paper_formula mode certifies from the printed reading alone.
    verdict = rhoracle.acts_on_genus_le(group, cap_genus)
    detail["oracle"] = {"verdict": verdict.verdict, "reason": verdict.reason}
    if verdict.verdict == rhoracle.YES:
        detail["witness"] = _genus_witness(verdict)
        return ConditionReport(COND_GENUS, REFUTED, "rh_oracle", detail)
    if mode == PAPER_FORMULA:
        detail["note"] = (f"the non-strict Hurwitz reading does not reach genus {cap_genus}, "
                          f"and the branch-data oracle answers {verdict.verdict}")
        return ConditionReport(COND_GENUS, UNKNOWN, None, detail)
    if verdict.verdict == rhoracle.NO:
        return ConditionReport(COND_GENUS, CERTIFIED, "rh_oracle", detail)
    detail["note"] = f"genera {floor}..{cap_genus} undecided within oracle caps"
    return ConditionReport(COND_GENUS, UNKNOWN, None, detail)


def _genus_witness(verdict: rhoracle.OracleVerdict) -> dict:
    return {"genus": verdict.genus, "signature": verdict.signature.label(), "vector": verdict.vector.to_json()}


# -- composition ----------------------------------------------------------------


def certify(group: PermGroup, n: int, mode: str = COMPUTED) -> Certificate:
    """Check all three hypotheses for (G, n) and compose the verdicts.

    Each decider checks simplicity itself; a group not decided simple
    gets condition 1's note as a "condition 1 skipped" note.  overall is
    `certified` iff all three conditions are certified; a `refuted`
    condition refutes only this certificate's hypotheses, never the
    underlying lower bound.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    if n < 2:
        raise ValidationError(f"certification needs n >= 2, got {n}")
    simple, how = decide_simplicity(group, mode)
    conditions = (cond1_no_small_index(group, n, mode), cond2_mobius_subgroup(group, n, mode),
                  cond3_no_small_genus_action(group, n, mode))
    notes = [] if simple else [f"condition 1 skipped: {conditions[0].detail['note']}"]
    if all(c.verdict == CERTIFIED for c in conditions):
        overall = CERTIFIED
    elif any(c.verdict == REFUTED for c in conditions):
        overall = REFUTED
        notes.append(
            "a refuted condition only defeats this certificate's hypotheses; "
            "it does not decide the underlying inequality"
        )
    else:
        overall = UNKNOWN

    return Certificate(group=group.name(), n=n, mode=mode, conditions=conditions, overall=overall,
                       constants=_constants(group, simple, how), notes=tuple(notes))


def max_certified_n(group: PermGroup, mode: str = COMPUTED) -> BoundReport:
    """Per-condition maxima and the largest n certified by all three.

    Each maximum is the range its decider certifies when asked without an
    n, so `certify` certifies a condition at n exactly when n is at most
    its maximum.  The one exception is the paper_formula reading of
    condition 1: the published closed form
    min{d(G), maxcyc - 1, 1 + floor(sqrt(1 + |G|/84))} counts index exactly
    d(G) as allowed, where the strict reading, which `certify` implements
    in every mode, stops at d(G) - 1.  A group whose simplicity is
    undecided within caps gets every maximum `unknown` from its decider; a
    group decided not simple raises ValidationError.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    simple, how = decide_simplicity(group, mode)
    if simple is False:
        raise ValidationError("max_certified_n requires a nonabelian simple group")

    notes = [
        "strict mode requires every proper subgroup index to exceed n; the "
        "paper_formula mode reproduces the published closed form, which "
        "admits n equal to the minimal degree itself"
    ]
    reports = {
        "cond1": cond1_no_small_index(group, None, mode),
        "cond2": cond2_mobius_subgroup(group, None, mode),
        "cond3": cond3_no_small_genus_action(group, None, mode),
    }
    known = {name: r.certified_up_to for name, r in reports.items()}
    if mode == PAPER_FORMULA:
        known["cond1"] = reports["cond1"].detail.get("min_proper_index")
    details = {name: {"method": r.method, **r.detail} for name, r in reports.items() if known[name] is not None}
    if any(v is None for v in known.values()):
        certified = None
        binding = "unknown"
        notes.append("a per-condition maximum is unknown within caps; no overall bound")
    else:
        certified = min(known.values())
        binding = "+".join(name for name, v in known.items() if v == certified)

    return BoundReport(group=group.name(), mode=mode, cond1_max=known["cond1"], cond2_max=known["cond2"],
                       cond3_max=known["cond3"], certified_max_n=certified, binding=binding,
                       constants=_constants(group, simple, how), details=details, notes=tuple(notes))
