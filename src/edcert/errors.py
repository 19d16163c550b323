"""Exception types shared across the package.

Every refusal raises exactly one of four types: `ParseError` and
`ValidationError` for bad input (the CLI exits 2), `CapExceeded` for work
past a budget (exit 1), and `EdcertInternalError` for a bug.
"""


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
