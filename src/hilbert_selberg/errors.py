"""Error taxonomy shared across the package.

Exit-code mapping used by the command line front end (cli.main):
    0  success
    1  validation failure (bad input, unsupported field, domain error)
    2  computational budget exceeded (bound exhausted, enumeration incomplete)
    3  internal invariant violation (dual algorithms disagree, census mismatch)
"""


class HilbertSelbergError(Exception):
    """Base of every error the package raises."""


class ValidationError(HilbertSelbergError):
    """Bad input, unsupported field or domain error."""


class BudgetExceededError(HilbertSelbergError):
    """A search bound ran out before the computation was complete."""


class InvariantViolation(HilbertSelbergError):
    """Two independent routes disagree, or a certified result fails."""
