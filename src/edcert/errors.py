"""Exception types and the fixed budgets shared across the package.

Every refusal raises exactly one of four types: `ParseError` and
`ValidationError` for bad input (the CLI exits 2), `CapExceeded` for work
past a budget (exit 1), and `EdcertInternalError` for a bug.

The fixed budgets are declared once, in `BUDGETS`, and every overrun of a
budget, the enumeration cap included, is raised by `check_budget`.
"""

# The fixed budgets, under the keys certificates print in ``constants.caps``
# beside the enumeration cap, which each group carries (``PermGroup.cap``).
BUDGETS = {
    # Largest |G| the pair search of `permgroup.max_proper_subgroup` takes on.
    "subgroup_search": 400,
    # Largest |G| whose branch data are listed, and most data listed or walked.
    "oracle_enumeration": 10_000,
    # Largest |G| a generating-vector search takes on.
    "oracle_search": 1_000,
    # Most slots r + 2h one vector search fills.  The oracle never reaches it:
    # a simple group is 2-generated, so some triangle datum of genus
    # < 1 + |G|/2 has a witness, and every datum searched up to the first
    # witness has 2h - 2 + sum(1 - 1/m_i) < 1, so r + 2h <= 5.
    "vector_width": 12,
}


class EdcertError(Exception):
    """Base class for the errors this package raises on input or budgets."""


class CapExceeded(EdcertError):
    """A computation was refused because it exceeds a budget.

    `budget` names the budget that stopped it, one of the keys that
    certificates print under ``constants.caps``; `needed` is the work asked
    for and `cap` that budget's limit.
    """

    def __init__(self, message, *, budget, needed, cap):
        super().__init__(message)
        self.budget = budget
        self.needed = needed
        self.cap = cap


class ParseError(EdcertError):
    """A group spec string could not be parsed.

    `position` indexes the offending character in the original string.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ValidationError(EdcertError):
    """Structurally well-formed input with inadmissible values."""


class EdcertInternalError(AssertionError):
    """Invariant violation inside the engine; indicates a bug, not bad input."""


def check_budget(budget: str, needed: int, message: str, cap: int | None = None) -> None:
    """Raise CapExceeded when `needed` exceeds the budget's limit: `cap` for
    the enumeration cap, else ``BUDGETS[budget]`` (an undeclared name is a
    KeyError).  `message` is formatted with `needed` and `cap`."""
    if cap is None:
        cap = BUDGETS[budget]
    if needed > cap:
        raise CapExceeded(message.format(needed=needed, cap=cap), budget=budget, needed=needed, cap=cap)
