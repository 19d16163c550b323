"""Run-wide configuration: the enumeration cap, the one limit a user can set."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import ValidationError


@dataclass(frozen=True)
class Caps:
    """The one settable size limit: `enumeration`, the cap on |G| for
    element-by-element work (`--cap`, `EDCERT_CAP`).

    The searches' fixed budgets live beside them as constants:
    `permgroup.SUBGROUP_SEARCH`, `rhoracle.ORACLE_ENUMERATION`,
    `rhoracle.ORACLE_SEARCH` and `rhoracle.VECTOR_WIDTH`.  Certificates
    print all five under `constants.caps`.

    Exceeding a cap raises CapExceeded in low-level operations; the
    certifier converts that into an `unknown` verdict, never a wrong one.
    """

    enumeration: int = 100_000

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
