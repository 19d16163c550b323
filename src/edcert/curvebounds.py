"""Numeric genus and gonality bounds for curves with many maps to the line.

Everything here is exact integer or rational arithmetic; no floats enter
any certificate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ValidationError

OBSTRUCTED = "obstructed"
NOT_OBSTRUCTED = "not_obstructed"
UNKNOWN = "unknown"

# verdicts an action predicate may return
ACTS = "yes"
NO_ACTION = "no"


class _CastelnuovoFields(NamedTuple):
    n1: int
    g1: int
    n2: int
    g2: int


class CastelnuovoInput(_CastelnuovoFields):
    """Degrees and genera of two maps out of one curve: f_i: C -> D_i of
    degree n_i with g(D_i) = g_i, where (f_1, f_2) is birational onto its
    image."""

    __slots__ = ()

    def __new__(cls, n1: int, g1: int, n2: int, g2: int) -> CastelnuovoInput:
        if n1 < 1 or n2 < 1:
            raise ValidationError("map degrees must be at least 1")
        if g1 < 0 or g2 < 0:
            raise ValidationError("genera must be nonnegative")
        return super().__new__(cls, n1, g1, n2, g2)

    @classmethod
    def _make(cls, iterable) -> CastelnuovoInput:
        """Validate, as the constructor does; `_replace` builds through here."""
        return cls(*iterable)


def castelnuovo_bound(inp: CastelnuovoInput) -> int:
    """Castelnuovo's inequality: g(C) <= n1*g1 + n2*g2 + (n1-1)(n2-1)."""
    return inp.n1 * inp.g1 + inp.n2 * inp.g2 + (inp.n1 - 1) * (inp.n2 - 1)


def tower_genus_bound(n: int, m: int) -> Fraction:
    """The bound n^2/m - 3n + nm + 1 on the genus of a curve whose function
    field is generated by degree-n functions through an index-m subfield.

    Requires m | n; the value is then an integer, returned as an exact
    Fraction.  Its maximum over divisors is (n-1)^2, attained at m in {1, n}.
    """
    if n < 2:
        raise ValidationError(f"defined for n >= 2, got {n}")
    if m < 1 or n % m != 0:
        raise ValidationError(f"{m} does not divide {n}")
    return Fraction(n * n, m) - 3 * n + n * m + 1


def riemann_genus_cap(n: int) -> int:
    """(n-1)^2: the genus cap for a curve generated by degree-n functions."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    return (n - 1) ** 2


def hurwitz_min_genus(order: int) -> int:
    """Least genus g >= 2 *not* excluded by the Hurwitz bound, i.e. the least
    g >= 2 with order <= 84(g-1).

    A group of the given order acting faithfully on a curve of genus >= 2
    forces the Hurwitz inequality, so every genus in [2, result) is excluded.
    """
    if order < 2:
        raise ValidationError(f"need order >= 2, got {order}")
    return max(2, -(-(order + 84) // 84))  # ceil((order + 84) / 84)


def gonality_obstruction(order: int, n: int, verdict: str) -> str:
    """Whether a faithful curve for a group of this order can be barred from
    having a degree-n map to the line.

    `verdict` answers whether the group acts nontrivially on some curve of
    genus <= (n-1)^2 (`riemann_genus_cap(n)`): "yes", "no" or "unknown",
    from whichever decider the caller trusts (genus <= 1 rule, Hurwitz
    floor, exhaustive branch-data search).  Returns "obstructed" when order
    does not divide n and the verdict is "no"; "not_obstructed" when the
    divisibility or action hypothesis fails; "unknown" otherwise.
    """
    if order < 1:
        raise ValidationError(f"need order >= 1, got {order}")
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if n % order == 0:
        return NOT_OBSTRUCTED
    if verdict == NO_ACTION:
        return OBSTRUCTED
    if verdict == ACTS:
        return NOT_OBSTRUCTED
    return UNKNOWN
