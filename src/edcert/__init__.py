"""Certified lower-bound conditions for reducing equations to one parameter.

Given a finite group G and n >= 2, the package checks three hypotheses --
no proper subgroup of index <= n, a Moebius subgroup of order > n, and no
nontrivial action on a curve of genus <= (n-1)^2 -- whose conjunction
certifies that equations with group G cannot be compressed to a
one-parameter family even after an accessory cover of degree <= n.
"""

__version__ = "0.1.0"

from .catalogue import GroupSpec, build, family_overrides, parse_group_spec
from .certifier import (
    BoundReport,
    Certificate,
    ConditionReport,
    certify,
    max_certified_n,
)
from .comparison import CompareReport, compare_rhs
from .curvebounds import (
    CastelnuovoInput,
    castelnuovo_bound,
    hurwitz_min_genus,
    riemann_genus_cap,
    tower_genus_bound,
)
from .permgroup import PermGroup, SylowReport, min_proper_subgroup_index, sylow_report
from .permutation import Permutation
from .rhoracle import (
    GeneratingVector,
    OracleVerdict,
    Signature,
    acts_on_genus_le,
    enumerate_signatures,
    find_generating_vector,
    validate_vector,
)

__all__ = [
    "BoundReport",
    "CastelnuovoInput",
    "Certificate",
    "CompareReport",
    "ConditionReport",
    "GeneratingVector",
    "GroupSpec",
    "OracleVerdict",
    "PermGroup",
    "Permutation",
    "Signature",
    "SylowReport",
    "acts_on_genus_le",
    "build",
    "castelnuovo_bound",
    "certify",
    "compare_rhs",
    "enumerate_signatures",
    "family_overrides",
    "find_generating_vector",
    "hurwitz_min_genus",
    "max_certified_n",
    "min_proper_subgroup_index",
    "parse_group_spec",
    "riemann_genus_cap",
    "sylow_report",
    "tower_genus_bound",
    "validate_vector",
]
