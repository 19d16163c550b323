"""Exception types shared across the package."""


class EdcertError(Exception):
    """Base class for all errors raised by this package."""


class CapExceeded(EdcertError):
    """An exhaustive computation was refused because the group is too large.

    `budget` names the budget that stopped it, one of the keys that
    certificates print under ``constants.caps``; `needed` is the work asked
    for and `cap` that budget's limit.
    """

    def __init__(self, message, *, budget, needed, cap):
        super().__init__(message)
        self.budget = budget
        self.needed = needed
        self.cap = cap


class NotDividing(EdcertError):
    """The given prime does not divide the group order."""


class NotSimple(EdcertError):
    """`max_certified_n` got a group decided not nonabelian simple.

    The condition deciders answer `unknown` for such a group instead.
    """


class DomainError(EdcertError):
    """An argument lies outside the mathematical domain of the operation."""


class WidthExceeded(EdcertError):
    """A generating-vector search has more slots than the width cap allows."""


class ParseError(EdcertError):
    """A group spec string could not be parsed.

    `position` indexes the offending character in the original string.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ValidationError(EdcertError):
    """Structurally well-formed input with inadmissible values."""
