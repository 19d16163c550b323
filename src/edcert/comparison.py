"""Baseline upper bounds from prior per-prime methods, for strictness checks.

Earlier lower-bound techniques only see, for each prime p dividing |G|,
either the essential dimension at p (for p > n) or the Sylow p-subgroup
with covers of degree <= n (for p <= n).  For three Sylow shapes those
quantities are classically at most 1:

  cyclic                 -- adjoining a root kills a cyclic extension;
  dihedral (p = 2)       -- dihedral groups act faithfully on the line,
                            in particular the order-4 Klein four group;
  elementary abelian of rank 2 with p <= n and p | n
                         -- adjoining an n-th root kills one factor and a
                            further root the rest.

The report aggregates the per-prime bounds into an upper bound for the
whole baseline; when a certificate for (G, n) exists and that baseline is
<= 1, the certified bound is strictly stronger than every prior method.
"""

from __future__ import annotations

from typing import NamedTuple

from .certifier import CERTIFIED, COMPUTED, certify
from .permgroup import PermGroup, SylowReport, prime_factors, sylow_report
from .permutation import record_json

RULE_CYCLIC = "cyclic_kummer"
RULE_DIHEDRAL = "dihedral_mobius"
RULE_KLEIN_FOUR = "klein_four_mobius"
RULE_RANK2 = "rank2_root_adjunction"
RULE_NONE = "none"


class PrimeEntry(NamedTuple):
    prime: int
    regime: str  # "p>n" or "p<=n"
    sylow: SylowReport
    rule: str
    bound: int | None

    to_json = record_json


class CompareReport(NamedTuple):
    group: str
    n: int
    entries: tuple[PrimeEntry, ...]
    rhs_upper_bound: int | None
    strict: bool
    certificate_overall: str
    notes: tuple[str, ...]

    to_json = record_json


def _rule_for(sylow: SylowReport, p: int, n: int) -> tuple[str, int | None]:
    if sylow.shape == "cyclic":
        return RULE_CYCLIC, 1
    if sylow.shape == "dihedral":
        return RULE_DIHEDRAL, 1
    if sylow.shape == "elementary_abelian" and sylow.rank == 2:
        if p == 2:
            # the order-4 group is the dihedral Moebius group of order 4
            return RULE_KLEIN_FOUR, 1
        if p <= n and n % p == 0:
            return RULE_RANK2, 1
    return RULE_NONE, None


def compare_rhs(group: PermGroup, n: int) -> CompareReport:
    """Per-prime baseline bounds, their aggregate, and the strictness flag.

    Every Sylow shape is recomputed from scratch; rules never fire on
    family assumptions.  The strictness flag is set when a computed-mode
    certificate for (G, n) exists and the aggregate baseline is <= 1.
    """
    notes: list[str] = []
    entries: list[PrimeEntry] = []
    for p in prime_factors(group.order):
        sylow = sylow_report(group, p)  # CapExceeded propagates
        rule, bound = _rule_for(sylow, p, n)
        if rule == RULE_DIHEDRAL and p == 2:
            notes.append(
                f"p=2: the computed Sylow subgroup has order {sylow.order} and is "
                "dihedral; the line action of dihedral groups gives the bound"
            )
        entries.append(PrimeEntry(prime=p, regime="p>n" if p > n else "p<=n", sylow=sylow, rule=rule, bound=bound))
    bounds = [e.bound for e in entries]
    rhs = max(bounds) if bounds and all(b is not None for b in bounds) else None
    if rhs is None and bounds:
        notes.append("some Sylow shape is outside the three rules; baseline unknown")

    certificate = certify(group, n, COMPUTED)
    strict = certificate.overall == CERTIFIED and rhs is not None and rhs <= 1
    return CompareReport(group=group.name(), n=n, entries=tuple(entries), rhs_upper_bound=rhs, strict=strict,
                         certificate_overall=certificate.overall, notes=tuple(notes))
