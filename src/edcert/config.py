"""Run-wide configuration: the caps shared by all exhaustive searches."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import ValidationError


@dataclass(frozen=True)
class Caps:
    """Size limits for exhaustive computations.

    enumeration        -- shared cap on |G| for element-by-element work
    subgroup_search    -- cap on |G| for the brute-force minimal-index oracle
    oracle_enumeration -- cap on |G| for branch-data (signature) enumeration,
                          and on the number of branch data listed or searched
    oracle_search      -- cap on |G| for generating-vector searches
                          (their slot count is fixed: rhoracle.VECTOR_WIDTH)

    Exceeding a cap raises CapExceeded in low-level operations; the
    certifier converts that into an `unknown` verdict, never a wrong one.
    """

    enumeration: int = 100_000
    subgroup_search: int = 400
    oracle_enumeration: int = 10_000
    oracle_search: int = 1_000

    def with_enumeration(self, cap: int) -> "Caps":
        if cap < 1:
            raise ValidationError(f"enumeration cap must be positive, got {cap}")
        return replace(self, enumeration=cap)


DEFAULT_CAPS = Caps()


def caps_from_environment() -> Caps:
    """Default caps, honouring the EDCERT_CAP environment override."""
    raw = os.environ.get("EDCERT_CAP")
    if raw is None:
        return DEFAULT_CAPS
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"EDCERT_CAP must be an integer, got {raw!r}") from None
    return DEFAULT_CAPS.with_enumeration(cap)
