"""Named group families: spec grammar, builders, and family-level constants.

The stable public grammar, used by every CLI command:

    A:<n> | S:<n> | C:<n> | D:<n> | PSL2:<p> | perm:<deg>:<cycles>[,<cycles>]*

where <cycles> is a product of disjoint cycles such as ``(0 1 2)(3 4)``.
Whitespace is ignored everywhere except that spaces separate the points of
a cycle.  ``D:n`` denotes the dihedral group of order 2n.
"""

from __future__ import annotations

import re
from math import factorial
from typing import NamedTuple

from .errors import ParseError, ValidationError
from .permgroup import DEFAULT_CAP, PermGroup, _is_prime
from .permutation import Permutation

ALTERNATING = "alternating"
SYMMETRIC = "symmetric"
CYCLIC = "cyclic"
DIHEDRAL = "dihedral"
PSL2 = "psl2"
EXPLICIT = "explicit"

_FAMILY_PREFIXES = {"A": ALTERNATING, "S": SYMMETRIC, "C": CYCLIC, "D": DIHEDRAL, "PSL2": PSL2}
_FAMILY_LETTER = {v: k for k, v in _FAMILY_PREFIXES.items()}


class GroupSpec(NamedTuple):
    """Parsed description of a group: a family with parameter, or explicit
    generators given as cycle strings of a fixed degree."""

    kind: str
    n: int | None = None
    degree: int | None = None
    cycles: tuple[str, ...] = ()

    def canonical(self) -> str:
        if self.kind == EXPLICIT:
            return f"perm:{self.degree}:" + ",".join(self.cycles)
        return f"{_FAMILY_LETTER[self.kind]}:{self.n}"


def _parse_cycles(text: str, base: int, degree: int) -> Permutation:
    """Parse one generator, a product of disjoint cycles.  `base` is the
    offset of `text` in the full spec string, for error positions."""
    pos = 0
    cycles: list[list[int]] = []
    seen: set[int] = set()
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch != "(":
            raise ParseError(f"expected '(' in cycle list, found {ch!r}", base + pos)
        end = text.find(")", pos)
        if end < 0:
            raise ParseError("unclosed cycle", base + pos)
        body = text[pos + 1:end].strip()
        points: list[int] = []
        if body:
            for token in re.split(r"\s+", body):
                if not token.isdigit():
                    raise ParseError(f"cycle point {token!r} is not a number", base + pos)
                points.append(int(token))
        for pt in points:
            if pt >= degree:
                raise ValidationError(f"cycle point {pt} outside degree {degree}")
            if pt in seen:
                raise ValidationError(f"point {pt} repeated; cycles must be disjoint")
            seen.add(pt)
        cycles.append(points)
        pos = end + 1
    return Permutation.from_cycles(cycles, degree)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a group spec string; ParseError carries the failing position."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty group spec", 0)
    head, sep, rest = stripped.partition(":")
    head_clean = head.strip()
    if not sep:
        raise ParseError("missing ':' in group spec", len(text.rstrip()))
    offset = text.index(":") + 1

    if head_clean in _FAMILY_PREFIXES:
        body = rest.strip()
        if not body.isdigit():
            raise ParseError(f"family parameter must be a number, got {body!r}", offset)
        n = int(body)
        kind = _FAMILY_PREFIXES[head_clean]
        _validate_family(kind, n)
        return GroupSpec(kind=kind, n=n)

    if head_clean == "perm":
        deg_text, sep2, gens_text = rest.partition(":")
        if not sep2:
            raise ParseError("perm spec needs 'perm:<deg>:<cycles>'", offset + len(deg_text))
        deg_clean = deg_text.strip()
        if not deg_clean.isdigit():
            raise ParseError(f"degree must be a number, got {deg_clean!r}", offset)
        degree = int(deg_clean)
        if degree < 1:
            raise ValidationError("degree must be at least 1")
        gen_base = text.index(":", text.index(":") + 1) + 1
        gen_parts = gens_text.split(",")
        running = gen_base
        canon: list[str] = []
        for part in gen_parts:
            if not part.strip():
                raise ParseError("empty generator", running)
            p = _parse_cycles(part, running, degree)
            canon.append(p.cycle_string())
            running += len(part) + 1
        return GroupSpec(kind=EXPLICIT, degree=degree, cycles=tuple(canon))

    raise ParseError(f"unknown group family {head_clean!r}", 0)


def _validate_family(kind: str, n: int) -> None:
    if kind in (ALTERNATING, SYMMETRIC, CYCLIC) and n < 1:
        raise ValidationError(f"{kind} requires n >= 1, got {n}")
    if kind == DIHEDRAL and n < 2:
        raise ValidationError(f"dihedral requires n >= 2 (order 2n), got {n}")
    if kind == PSL2:
        if n < 5:
            raise ValidationError(f"PSL2 requires p >= 5, got {n}")
        if not _is_prime(n):
            raise ValidationError(f"PSL2 parameter must be prime, got {n}")


def _cycle(points: list[int], degree: int) -> Permutation:
    return Permutation.from_cycles([points], degree)


# The order of the group each family's generators lie in and generate, so
# that a family group answers its order with no stabilizer chain.  z -> z + 1
# and z -> -1/z have determinant 1, so they lie in PSL2(p); a 3-cycle and an
# even cycle lie in A_n.
_FAMILY_ORDERS = {
    ALTERNATING: lambda n: max(factorial(n) // 2, 1),
    SYMMETRIC: factorial,
    CYCLIC: lambda n: n,
    DIHEDRAL: lambda n: 2 * n,
    PSL2: lambda p: p * (p * p - 1) // 2,
}


def build(spec: GroupSpec, cap: int = DEFAULT_CAP) -> PermGroup:
    """Construct the permutation group a spec describes, with enumeration cap
    `cap`; the group carries the spec as its `spec`, and a family group its
    order from `_FAMILY_ORDERS`, which its chain checks when built.

    Families use their standard actions: A(n)/S(n) on n points, C(n) as an
    n-cycle, D(n) as rotation plus reflection on n points (n >= 3; the
    order-4 group D:2 acts on 4 points), and PSL2(p) on the projective line
    over F_p, degree p+1, generated by z -> z+1 and z -> -1/z.
    """
    kind, n = spec.kind, spec.n
    degree = n
    if kind == EXPLICIT:
        gens, degree = [_parse_cycles(c, 0, spec.degree) for c in spec.cycles], spec.degree
    elif kind == CYCLIC:
        gens = [_cycle(list(range(n)), n)] if n > 1 else []
    elif kind == SYMMETRIC and n <= 2:
        gens = [_cycle([0, 1], 2)] if n == 2 else []
    elif kind == SYMMETRIC:
        gens = [_cycle([0, 1], n), _cycle(list(range(n)), n)]
    elif kind == ALTERNATING and n <= 3:
        gens = [_cycle([0, 1, 2], 3)] if n == 3 else []
    elif kind == ALTERNATING:  # a 3-cycle and an (n or n-1)-cycle, both even
        gens = [_cycle([0, 1, 2], n), _cycle(list(range(0 if n % 2 else 1, n)), n)]
    elif kind == DIHEDRAL and n == 2:
        gens, degree = [_cycle([0, 1], 4), _cycle([2, 3], 4)], 4
    elif kind == DIHEDRAL:
        gens = [_cycle(list(range(n)), n), Permutation([(n - i) % n for i in range(n)])]
    elif kind == PSL2:  # F_p is 0..p-1 and infinity is the point p
        shift = [*range(1, n), 0, n]  # z -> z + 1
        flip = [n, *((-pow(z, n - 2, n)) % n for z in range(1, n)), 0]  # z -> -1/z
        gens, degree = [Permutation(shift), Permutation(flip)], n + 1
    else:
        raise ValidationError(f"unknown spec kind {kind!r}")
    order = _FAMILY_ORDERS[kind](n) if kind in _FAMILY_ORDERS else None
    group = PermGroup(gens, degree=degree, cap=cap, order=order)
    group.spec = spec
    return group


class FamilyConstants(NamedTuple):
    """Family-level constants from the classical literature.

    Only hybrid and paper-formula certification modes consult these; the
    computed mode stays fully self-contained.  min_proper_index for PSL2(p)
    is Galois's minimal-degree result (p for p in {5,7,11}, else p+1);
    max_element_order p is the classical element-order list of PSL2(p).
    max_mobius_order is the largest finite Moebius subgroup of PSL2(p) by
    Dickson's list of its subgroups (Huppert, Endliche Gruppen I, II.8.27;
    see `_psl2_max_mobius_order`).  Hybrid mode uses it only to stop the
    condition-2 witness search: the order it prints is always the order of
    a witness it has checked, never this constant.
    """

    min_proper_index: int | None = None
    max_element_order: int | None = None
    max_mobius_order: int | None = None
    simple_nonabelian: bool | None = None
    provenance: str = "literature"


MOBIUS_BOUND_PROVENANCE = "literature: Dickson's list of the subgroups of PSL2(q) (Huppert, Endliche Gruppen I, II.8.27)"


def _psl2_max_mobius_order(p: int) -> int:
    """Order of the largest finite Moebius subgroup of PSL2(p), p >= 5 prime.

    Dickson's list: the dihedral groups of order p + 1 (always) and 2p
    (p = 1 mod 4), A5 (p = +-1 mod 10, and PSL2(5) = A5 itself), S4
    (p = +-1 mod 8) and A4 (always); the cyclic subgroups, of order at
    most p, never beat the dihedral group of order p + 1.
    """
    candidates = [p + 1, 12]
    if p % 4 == 1:
        candidates.append(2 * p)
    if p % 10 in (1, 9) or p == 5:
        candidates.append(60)
    if p % 8 in (1, 7):
        candidates.append(24)
    return max(candidates)


def family_overrides(spec: GroupSpec) -> FamilyConstants | None:
    """Exact family constants where the classical literature provides them;
    None for specs outside the covered families."""
    if spec.kind == PSL2:
        p = spec.n
        return FamilyConstants(
            min_proper_index=p if p in (5, 7, 11) else p + 1,
            max_element_order=p,
            max_mobius_order=_psl2_max_mobius_order(p),
            simple_nonabelian=True,
            provenance="literature: Galois's minimal-degree theorem; element orders of PSL2(p)",
        )
    if spec.kind == ALTERNATING and spec.n >= 5:
        return FamilyConstants(
            min_proper_index=spec.n,
            max_element_order=None,
            simple_nonabelian=True,
            provenance="literature: minimal degree and simplicity of alternating groups",
        )
    return None
