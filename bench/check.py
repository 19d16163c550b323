"""Independent checks of edcert's outputs.

Every reference here is derived apart from edcert: closed formulas from the
literature (Galois, Dickson, Hurwitz, Riemann-Hurwitz), exact integer
arithmetic done here, and group computations redone with sympy on groups
this module builds from their textbook definitions.  Nothing is compared
with a saved copy of earlier output.

``check(op, rc, out, err)`` raises ``CheckFailed`` when an output is wrong,
missing or malformed.  An ``unknown`` verdict is never a failure; a
``certified`` or ``refuted`` verdict must agree with the references and its
witnesses must pass sympy's re-check.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt

from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup

from workloads import C2_4_C5, PERM_CATALOGUE, cycles_to_images

CERTIFIED, REFUTED, UNKNOWN = "certified", "refuted", "unknown"
CONDITIONS = ("no_small_index", "mobius_subgroup", "no_small_genus_action")
TABLE_HEADER = "p,order,cond1_max,cond2_max,cond3_max,maxn,binding"


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- literature references ------------------------------------------------------


def psl2_order(p: int) -> int:
    return p * (p * p - 1) // 2


def galois_min_index(p: int) -> int:
    """Galois: PSL2(p) has a subgroup of index p only for p in {5, 7, 11}."""
    return p if p in (5, 7, 11) else p + 1


def dickson_max_mobius(p: int) -> int:
    """Largest finite Moebius subgroup of PSL2(p), p >= 5, from Dickson's list:
    dihedral of order p+1, dihedral of order 2p when p = 1 mod 4, A5 when
    p = +-1 mod 10, S4 when p = +-1 mod 8, and A4 always."""
    return max(p + 1, 2 * p if p % 4 == 1 else 0, 60 if p % 10 in (1, 9) else 0,
               24 if p % 8 in (1, 7) else 0, 12)


def hurwitz_floor(order: int) -> int:
    """Least genus g >= 2 that the Hurwitz bound |G| <= 84(g-1) allows."""
    return max(2, 1 + -(-order // 84))


def largest_n_below_genus(genus: int) -> int:
    """Largest n with (n-1)^2 < genus, for genus >= 1."""
    return 1 + isqrt(genus - 1)


def triangle_genus(p: int) -> int:
    """Genus of the (2,3,p) triangle cover with group PSL2(p), p >= 7:
    1 + |G|(p-6)/(12p), an upper bound on the minimal genus."""
    g = 1 + Fraction(psl2_order(p) * (p - 6), 12 * p)
    require(g.denominator == 1, f"triangle genus of PSL2({p}) is not an integer")
    return int(g)


def first_divisibility_degree(order: int) -> int:
    """Least k with |G| dividing k!/2: a simple group with a subgroup of index
    k embeds in A_k, so no index below this k is possible."""
    k = 2
    while (factorial(k) // 2) % order:
        k += 1
    return k


def prime_factorisation(n: int) -> dict[int, int]:
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# Minimal genus of a faithful action.  A5: the icosahedral action on the
# sphere; PSL2(7): the Klein quartic; A6: Wiman's sextic, genus 10;
# PSL2(11): genus 26 (Conder's table of minimal genera); PSL2(13): a Hurwitz
# group (13 = -1 mod 7), genus 1 + 1092/84 = 14.
MIN_GENUS = {"A:5": 0, "PSL2:5": 0, "PSL2:7": 3, "A:6": 10, "PSL2:11": 26, "PSL2:13": 14}
# Minimal index of a proper subgroup, for the groups the oracles workload asks about.
MIN_INDEX_EXTRA = {C2_4_C5: 5}  # the translation subgroup C2^4


@dataclass(frozen=True)
class GroupRef:
    degree: int
    order: int
    simple: bool
    gens: tuple[tuple[int, ...], ...]
    min_index: int | None = None
    max_mobius: int | None = None
    min_genus: int | None = None
    genus_upper: int | None = None  # genus of some known faithful action


_CYCLE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Images of a permutation written as disjoint cycles, e.g. '(0 1 2)(3 4)'."""
    require(re.fullmatch(r"(\([0-9 ]*\))+", text) is not None, f"bad cycle string {text!r}")
    cycles = [[int(x) for x in body.split()] for body in _CYCLE.findall(text)]
    points = [x for c in cycles for x in c]
    require(len(points) == len(set(points)) and all(0 <= x < degree for x in points), f"bad cycles {text!r}")
    return cycles_to_images(cycles, degree)


@lru_cache(maxsize=None)
def reference(spec: str, catalogue: str | None = None) -> GroupRef:
    """Reference facts about the group a spec names, built from its textbook
    definition; the order is recomputed with sympy from the generators."""
    if catalogue is not None:
        e = PERM_CATALOGUE[catalogue]
        degree = e["degree"]
        gens = tuple(parse_cycles(part, degree) for part in spec.split(":", 2)[2].split(","))
        ref = GroupRef(degree, e["order"], e["simple"], gens, e.get("min_index"), e["max_mobius"],
                       e.get("min_genus"), e.get("min_genus"))
    elif spec.startswith("perm:"):
        degree = int(spec.split(":")[1])
        gens = tuple(parse_cycles(part, degree) for part in spec.split(":", 2)[2].split(","))
        require(spec in MIN_INDEX_EXTRA, f"no reference for {spec}")
        ref = GroupRef(degree, 80, False, gens, MIN_INDEX_EXTRA[spec])
    else:
        family, n = spec.split(":")
        n = int(n)
        if family == "A":
            gens = tuple(cycles_to_images([[0, 1, k]], n) for k in range(2, n))  # the 3-cycles (0 1 k)
            ref = GroupRef(n, factorial(n) // 2, n >= 5, gens, n if n >= 5 else None,
                           60 if 5 <= n <= 8 else None, MIN_GENUS.get(spec), MIN_GENUS.get(spec))
        elif family == "S":
            gens = (cycles_to_images([[0, 1]], n), cycles_to_images([list(range(n))], n))
            ref = GroupRef(n, factorial(n), False, gens, None, 60 if n in (5, 6) else None)
        elif family == "C":
            ref = GroupRef(n, n, False, (cycles_to_images([list(range(n))], n),), None, n)
        elif family == "D":
            rotation = cycles_to_images([list(range(n))], n)
            reflection = tuple((-i) % n for i in range(n))
            ref = GroupRef(n, 2 * n, False, (rotation, reflection), None, 2 * n)
        elif family == "PSL2":
            p = n
            shift = tuple([(z + 1) % p for z in range(p)] + [p])
            flip = [p] + [(-pow(z, p - 2, p)) % p for z in range(1, p)] + [0]
            upper = MIN_GENUS.get(spec, triangle_genus(p) if p >= 7 else None)
            ref = GroupRef(p + 1, psl2_order(p), True, (shift, tuple(flip)), galois_min_index(p),
                           dickson_max_mobius(p), MIN_GENUS.get(spec), upper)
        else:
            raise CheckFailed(f"no reference for {spec}")
    require(sym_group(ref.degree, ref.gens).order() == ref.order, f"reference order of {spec} disagrees with sympy")
    return ref


# -- sympy re-checks ---------------------------------------------------------------


@lru_cache(maxsize=None)
def sym_group(degree: int, gens: tuple[tuple[int, ...], ...]) -> PermutationGroup:
    if not gens:
        return PermutationGroup([SymPerm(list(range(degree)))])
    return PermutationGroup([SymPerm(list(g)) for g in gens])


def sym(images: tuple[int, ...]) -> SymPerm:
    return SymPerm(list(images))


def generated_order(degree: int, gens: list[tuple[int, ...]]) -> int:
    return sym_group(degree, tuple(gens)).order()


def check_members(ref: GroupRef, gens: list[tuple[int, ...]]) -> None:
    group = sym_group(ref.degree, ref.gens)
    for g in gens:
        require(group.contains(sym(g)), "witness element lies outside the group")


def check_mobius_witness(ref: GroupRef, witness: dict) -> int:
    """Re-check a Moebius subgroup witness; returns its order."""
    kind, order = witness["type"], witness["order"]
    require("generators" in witness, f"{kind} witness of order {order} carries no generators")
    gens = [parse_cycles(g, ref.degree) for g in witness["generators"]]
    check_members(ref, gens)
    perms = [sym(g) for g in gens]
    if kind == "cyclic":
        require(len(perms) == 1 and perms[0].order() == order, "cyclic witness has the wrong order")
    elif kind == "dihedral":
        require(len(perms) == 2, "dihedral witness needs two generators")
        x, t = perms
        require(2 * x.order() == order and t.order() == 2, "dihedral witness has wrong orders")
        require(t * x * t == x ** -1, "dihedral witness: t x t != x^-1")
        require(not PermutationGroup([x]).contains(t), "dihedral witness: t lies in <x>")
    elif kind in ("A4", "S4", "A5"):
        # <a, b | a^2, b^3, (ab)^k> is A4, S4, A5 for k = 3, 4, 5, of order 12, 24, 60
        k, expected = {"A4": (3, 12), "S4": (4, 24), "A5": (5, 60)}[kind]
        require(len(perms) == 2 and order == expected, f"{kind} witness malformed")
        a, b = perms
        require(a.order() == 2 and b.order() == 3 and (a * b).order() == k, f"{kind} witness fails its relations")
    else:
        raise CheckFailed(f"unknown Moebius type {kind!r}")
    require(generated_order(ref.degree, gens) == order, f"{kind} witness generates a group of the wrong order")
    return order


def parse_signature_label(label: str) -> tuple[int, tuple[int, ...]]:
    m = re.fullmatch(r"\((\d+); ([0-9,]+|-)\)", label)
    require(m is not None, f"bad signature label {label!r}")
    periods = () if m.group(2) == "-" else tuple(int(x) for x in m.group(2).split(","))
    return int(m.group(1)), tuple(sorted(periods))


def rh_genus(order: int, h: int, periods: tuple[int, ...]) -> Fraction:
    """Riemann-Hurwitz: 2g - 2 = |G| (2h - 2 + sum(1 - 1/m))."""
    return 1 + Fraction(order, 2) * (2 * h - 2 + sum(1 - Fraction(1, m) for m in periods))


def check_vector(ref: GroupRef, genus: int, h: int, periods: tuple[int, ...], vector: dict) -> None:
    """Generating vector: exact orders, product of commutators and elliptic
    elements equal to one, generation of the whole group, and the genus."""
    require(rh_genus(ref.order, h, periods) == genus, "Riemann-Hurwitz genus disagrees")
    hyper = [[parse_cycles(x, ref.degree) for x in pair] for pair in vector["hyperbolic"]]
    ell = [parse_cycles(x, ref.degree) for x in vector["elliptic"]]
    require(len(hyper) == h and all(len(p) == 2 for p in hyper), "wrong number of hyperbolic pairs")
    require(sorted(sym(c).order() for c in ell) == sorted(periods), "elliptic orders differ from the periods")
    everything = [x for pair in hyper for x in pair] + ell
    check_members(ref, everything)
    product = SymPerm(list(range(ref.degree)))
    for a, b in hyper:
        a, b = sym(a), sym(b)
        product = product * a * b * a ** -1 * b ** -1
    for c in ell:
        product = product * sym(c)
    require(product.is_Identity, "product of the generating vector is not one")
    require(generated_order(ref.degree, everything) == ref.order, "generating vector does not generate the group")


def admissible_signatures(ref: GroupRef, genus_max: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """All (genus, h, periods) with 0 <= genus <= genus_max and integral
    Riemann-Hurwitz genus, periods drawn from divisors >= 2 of element orders."""
    orders = {p.order() for p in sym_group(ref.degree, ref.gens).generate()}
    choices = sorted({d for o in orders for d in range(2, o + 1) if o % d == 0})
    out = []
    h = 0
    while 2 * h - 2 <= Fraction(2 * genus_max - 2, ref.order):
        budget = Fraction(2 * genus_max - 2, ref.order) + 2 - 2 * h

        def extend(periods, total, start):
            g = rh_genus(ref.order, h, periods)
            if g.denominator == 1 and 0 <= g <= genus_max:
                out.append((int(g), h, periods))
            for i in range(start, len(choices)):
                term = 1 - Fraction(1, choices[i])
                if total + term > budget:
                    break
                extend(periods + (choices[i],), total + term, i)

        extend((), Fraction(0), 0)
        h += 1
    return sorted(out)


def check_sylow(ref: GroupRef, sylow: dict, p: int, exponent: int, n: int, entry: dict) -> int | None:
    require(sylow["prime"] == p and sylow["exponent"] == exponent and sylow["order"] == p ** exponent,
            f"Sylow {p}-subgroup has the wrong order")
    gens = [parse_cycles(g, ref.degree) for g in sylow["generators"]]
    check_members(ref, gens)
    sub = sym_group(ref.degree, tuple(gens))
    require(sub.order() == p ** exponent, f"Sylow {p} generators generate the wrong order")
    elements = list(sub.generate())
    orders = [e.order() for e in elements]
    if max(orders) == sub.order():
        shape, rank = "cyclic", None
    elif max(orders) == p and sub.is_abelian:
        shape, rank = "elementary_abelian", exponent
    elif p == 2 and any(
        ox == sub.order() // 2 and any(
            ot == 2 and not PermutationGroup([x]).contains(t) and t * x * t == x ** -1
            for t, ot in zip(elements, orders))
        for x, ox in zip(elements, orders)
    ):
        shape, rank = "dihedral", None
    else:
        shape, rank = "other", None
    require(sylow["shape"] == shape and sylow["rank"] == rank, f"Sylow {p} shape is {shape}, not {sylow['shape']}")
    # the three classical rules of the prior-methods baseline
    if shape == "cyclic":
        rule = "cyclic_kummer"
    elif shape == "dihedral":
        rule = "dihedral_mobius"
    elif shape == "elementary_abelian" and rank == 2 and p == 2:
        rule = "klein_four_mobius"
    elif shape == "elementary_abelian" and rank == 2 and p <= n and n % p == 0:
        rule = "rank2_root_adjunction"
    else:
        rule = "none"
    bound = None if rule == "none" else 1
    require(entry["rule"] == rule and entry["bound"] == bound, f"p={p}: rule {entry['rule']} should be {rule}")
    require(entry["regime"] == ("p>n" if p > n else "p<=n"), f"p={p}: wrong regime")
    return bound


# -- per-operation checks -------------------------------------------------------


def _envelope(op, out: str) -> dict:
    require(out.strip() != "", "no payload printed")
    env = json.loads(out)
    require(env["command"] == list(op.argv), "envelope echoes a different command")
    return env["payload"]


def _csv_row(op, rc: int, out: str) -> dict:
    """The single CSV row, with integers parsed and `unknown` as None."""
    require(rc == 0, f"exit code {rc}")
    rows = list(csv.reader(io.StringIO(out)))
    require(len(rows) == 2 and ",".join(rows[0]) == TABLE_HEADER, "expected the CSV header and exactly one row")
    row = dict(zip(rows[0], rows[1]))
    for key in TABLE_HEADER.split(",")[:-1]:
        row[key] = None if row[key] == UNKNOWN and key not in ("p", "order") else int(row[key])
    p = op.meta["p"]
    require(row["p"] == p and row["order"] == psl2_order(p), "wrong p or group order")
    return row


def _check_min_and_binding(c1: int | None, c2: int | None, c3: int | None, maxn: int | None, binding: str) -> None:
    known = [v for v in (c1, c2, c3) if v is not None]
    if len(known) < 3:  # an unknown maximum leaves at most a lower bound on the minimum
        require(maxn is None or (known and maxn <= min(known)), f"maxn {maxn} exceeds a condition's maximum")
        return
    m = min(known)
    require(maxn == m, f"maxn {maxn} is not min({c1}, {c2}, {c3})")
    names = "+".join(name for name, v in (("cond1", c1), ("cond2", c2), ("cond3", c3)) if v == m)
    require(binding == names, f"binding {binding!r} should be {names!r}")


def _check_cond3_max(ref: GroupRef, c3: int | None) -> None:
    if c3 is None:
        return
    if ref.order == 60:
        require(c3 == 1, "the icosahedral group acts on the line: cond3 maximum must be 1")
        return
    require(c3 >= largest_n_below_genus(hurwitz_floor(ref.order)), "cond3 maximum is below the Hurwitz floor")
    if ref.genus_upper is not None:
        require((c3 - 1) ** 2 < ref.genus_upper, f"cond3 maximum {c3} reaches a genus where the group acts")


def check_hybrid_row(op, rc, out, err):
    row = _csv_row(op, rc, out)
    p = row["p"]
    ref = reference(f"PSL2:{p}")
    require(row["cond1_max"] in (None, galois_min_index(p) - 1), "cond1 is not Galois's minimal index - 1")
    best = dickson_max_mobius(p)
    c2 = row["cond2_max"]
    if c2 is not None:
        require(p <= c2 + 1 <= best, f"cond2+1 = {c2 + 1} outside [{p}, {best}]")
        if p <= 53:  # |G| <= 74412, within the enumeration cap: the search is exhaustive
            require(c2 + 1 == best, f"cond2+1 = {c2 + 1}, Dickson's maximum is {best}")
    _check_cond3_max(ref, row["cond3_max"])
    _check_min_and_binding(row["cond1_max"], c2, row["cond3_max"], row["maxn"], row["binding"])


def check_closed_form_row(op, rc, out, err):
    row = _csv_row(op, rc, out)
    p, order = row["p"], row["order"]
    c3 = 1 + isqrt((84 + order) // 84)  # 1 + floor(sqrt(1 + |G|/84)), exactly
    require((row["cond1_max"], row["cond2_max"], row["cond3_max"]) == (galois_min_index(p), p - 1, c3),
            "row differs from min{d(G), p-1, 1+floor(sqrt(1+|G|/84))}")
    _check_min_and_binding(row["cond1_max"], row["cond2_max"], c3, row["maxn"], row["binding"])


def check_computed_row(op, rc, out, err):
    row = _csv_row(op, rc, out)
    p = row["p"]
    ref = reference(f"PSL2:{p}")
    c1, c2 = row["cond1_max"], row["cond2_max"]
    require(c1 is None or first_divisibility_degree(ref.order) - 1 <= c1 <= galois_min_index(p) - 1,
            f"cond1 {c1} out of range")
    require(c2 is None or c2 + 1 == dickson_max_mobius(p), "cond2+1 is not Dickson's maximum")
    _check_cond3_max(ref, row["cond3_max"])
    _check_min_and_binding(c1, row["cond2_max"], row["cond3_max"], row["maxn"], row["binding"])


def _check_divisibility_table(checks: list[dict], order: int, n: int) -> bool:
    """Recompute k!/2 for each listed k; True when the table proves index > n."""
    for i, c in enumerate(checks):
        k = i + 2
        half = factorial(k) // 2
        require(c["k"] == k and c["half_factorial"] == half and c["divides"] == (half % order == 0),
                f"divisibility entry for k={k} is wrong")
        require(k <= n and (not c["divides"] or i == len(checks) - 1), "divisibility table has extra entries")
    return len(checks) == n - 1 and not any(c["divides"] for c in checks)


def check_certify(op, rc, out, err):
    payload = _envelope(op, out)
    n = op.meta["n"]
    ref = reference(op.meta["group"], op.meta.get("catalogue"))
    require(payload["n"] == n and payload["mode"] == "computed", "wrong n or mode")
    require(payload["constants"]["order"] == ref.order, "wrong group order")
    simple = payload["constants"]["simplicity"]["value"]
    require(simple is None or simple == ref.simple, "wrong simplicity verdict")
    conds = payload["conditions"]
    require([c["condition"] for c in conds] == list(CONDITIONS), "conditions missing or out of order")
    verdicts = [c["verdict"] for c in conds]
    require(all(v in (CERTIFIED, REFUTED, UNKNOWN) for v in verdicts), "unknown verdict value")
    overall = CERTIFIED if all(v == CERTIFIED for v in verdicts) else REFUTED if REFUTED in verdicts else UNKNOWN
    require(payload["overall"] == overall, f"overall {payload['overall']} does not compose to {overall}")
    require(rc == (0 if overall == CERTIFIED else 1), f"exit code {rc} for overall {overall}")

    c1, c2, c3 = conds
    d1 = c1["detail"]
    proven_by_divisibility = False
    if "divisibility_checks" in d1:
        proven_by_divisibility = _check_divisibility_table(d1["divisibility_checks"], ref.order, n)
    if c1["verdict"] == CERTIFIED:
        require(ref.simple, "condition 1 certified on a group that is not simple")
        require(ref.min_index > n if ref.min_index else proven_by_divisibility, "condition 1 certified wrongly")
    elif c1["verdict"] == REFUTED:
        require(ref.min_index is not None and ref.min_index <= n, "condition 1 refuted wrongly")
        w = d1["witness_subgroup"]
        gens = [parse_cycles(g, ref.degree) for g in w["generators"]]
        check_members(ref, gens)
        require(w["index"] <= n and w["index"] * w["order"] == ref.order, "index witness is inconsistent")
        require(generated_order(ref.degree, gens) == w["order"], "index witness generates the wrong order")

    d2 = c2["detail"]
    if c2["verdict"] == CERTIFIED:
        order = check_mobius_witness(ref, d2["witness"])
        require(order > n, "Moebius witness is not larger than n")
    elif c2["verdict"] == REFUTED:
        require(ref.max_mobius is not None and ref.max_mobius <= n, "condition 2 refuted wrongly")

    d3 = c3["detail"]
    cap = (n - 1) ** 2
    require(d3["genus_cap"] == cap, "wrong genus cap")
    if c3["verdict"] == CERTIFIED:
        require(ref.simple and ref.order != 60, "condition 3 certified on a group acting on the line")
        if ref.min_genus is not None:
            require(ref.min_genus > cap, "condition 3 certified but the group acts on a genus within the cap")
        else:
            require(cap < 2 or cap < hurwitz_floor(ref.order), "condition 3 certified without a checkable reason")
    elif c3["verdict"] == REFUTED:
        if "witness" in d3:
            w = d3["witness"]
            h, periods = parse_signature_label(w["signature"])
            require(w["genus"] <= cap, "genus witness lies above the cap")
            check_vector(ref, w["genus"], h, periods, w["vector"])
        else:
            require(ref.simple and ref.order == 60 and ref.min_genus == 0, "condition 3 refuted without a witness")


def check_maxn(op, rc, out, err):
    require(rc == 0, f"exit code {rc}")
    payload = _envelope(op, out)
    ref = reference(op.meta["group"])
    c1, c2, c3 = payload["cond1_max"], payload["cond2_max"], payload["cond3_max"]
    require(c1 is None or first_divisibility_degree(ref.order) - 1 <= c1 <= ref.min_index - 1,
            f"cond1 maximum {c1} out of range")
    require(c2 is None or c2 == ref.max_mobius - 1, f"cond2 maximum {c2}, expected {ref.max_mobius - 1}")
    _check_cond3_max(ref, c3)
    _check_min_and_binding(c1, c2, c3, payload["maxn"], payload["binding"])
    witness = payload["details"].get("cond2", {}).get("witness")
    if witness:
        require(check_mobius_witness(ref, witness) == c2 + 1, "cond2 witness order differs from the maximum")


def check_compare(op, rc, out, err):
    require(rc == 0, f"exit code {rc}")
    payload = _envelope(op, out)
    n = op.meta["n"]
    ref = reference(op.meta["group"])
    factors = prime_factorisation(ref.order)
    entries = payload["entries"]
    require([e["prime"] for e in entries] == sorted(factors), "primes differ from the factorisation of |G|")
    bounds = [check_sylow(ref, e["sylow"], e["prime"], factors[e["prime"]], n, e) for e in entries]
    rhs = max(bounds) if all(b is not None for b in bounds) else None
    require(payload["rhs_upper_bound"] == rhs, "aggregate baseline bound is wrong")
    # the four showcase pairs certify in computed mode, where the baseline stays at 1
    require(payload["certificate_overall"] == CERTIFIED and payload["strict"] is True and rhs == 1,
            "showcase pair is not a strict improvement over the baseline")


def check_oracle_rh(op, rc, out, err):
    require(rc == 0, f"exit code {rc}")
    payload = _envelope(op, out)
    ref = reference(op.meta["group"])
    require(payload["verdict"] == "yes" and payload["genus"] == ref.min_genus,
            f"minimal genus {payload.get('genus')}, literature value {ref.min_genus}")
    sig = payload["signature"]
    check_vector(ref, payload["genus"], sig["orbit_genus"], tuple(sorted(sig["periods"])), payload["vector"])


def check_rh_table(op, rc, out, err):
    require(rc == 0, f"exit code {rc}")
    payload = _envelope(op, out)
    ref = reference(op.meta["group"])
    listed = [(e["genus"], e["signature"]["orbit_genus"], tuple(e["signature"]["periods"])) for e in payload]
    require(listed == admissible_signatures(ref, op.meta["genus_max"]), "branch data differ from the reference list")
    found = []
    for e, (g, h, periods) in zip(payload, listed):
        require(e["label"] == f"({h}; {','.join(map(str, periods)) or '-'})", "label does not match the signature")
        if e["vector"] is not None:
            check_vector(ref, g, h, periods, e["vector"])
            found.append(g)
    require(found and min(found) == ref.min_genus, f"least genus with a vector is not {ref.min_genus}")


def check_min_index(op, rc, out, err):
    require(rc == 0, f"exit code {rc}")
    payload = _envelope(op, out)
    ref = reference(op.meta["group"])
    require(payload["min_index"] == ref.min_index, f"min index {payload['min_index']}, known value {ref.min_index}")


CHECKS = {
    "hybrid_row": check_hybrid_row,
    "closed_form_row": check_closed_form_row,
    "computed_row": check_computed_row,
    "certify": check_certify,
    "maxn": check_maxn,
    "compare": check_compare,
    "oracle_rh": check_oracle_rh,
    "rh_table": check_rh_table,
    "min_index": check_min_index,
}


def check(op, rc: int, out: str, err: str) -> str | None:
    """None when the output passes; otherwise the reason it fails."""
    try:
        CHECKS[op.kind](op, rc, out, err)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc})"
    return None
