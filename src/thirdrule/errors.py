"""Exception types and the input checks shared across the package."""

import math


class ValidationError(ValueError):
    """Raised when an input, a config field, or a file fails validation."""


class DomainError(ValueError):
    """Raised when a value lies outside an operation's mathematical domain."""


class DebtNeverClearsError(DomainError):
    """Raised when a payment schedule can never amortize the balance."""


def is_int(value) -> bool:
    """Whether value is an int and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def finite_number(value, name: str):
    """Return value if it is a finite int or float (not a bool) within
    the float range; raise ``ValidationError`` naming it otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past the float range
        raise ValidationError(f"{name} must be within the float range") from None
    if not finite:
        raise ValidationError(f"{name} must be finite")
    return value
