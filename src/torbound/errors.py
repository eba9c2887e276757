"""Exception types shared across the package, and its one integer rule.

Validation failures and internal consistency failures are kept distinct so
callers (and the CLI exit-code mapping) can tell bad input apart from a bug
in the arithmetic itself.
"""


class ValidationError(ValueError):
    """An input violates a documented precondition."""


def check_int(value, message, low=None, high=None):
    """The package's integer rule: value is an int, never a bool, in [low, high].

    Returns value, or raises ValidationError(message). Nothing is coerced: a
    float, a string or a Fraction is refused even when it holds an integer.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or (low is not None and value < low)
        or (high is not None and value > high)
    ):
        raise ValidationError(message)
    return value


class CapacityError(ValidationError):
    """An input is beyond the range this implementation certifies.

    Raised instead of silently degrading (e.g. primality testing past the
    deterministic witness range).
    """


class InternalConsistencyError(RuntimeError):
    """Two independent computation paths disagreed.

    This is never caught and resolved silently; it means the library itself
    is wrong and the result cannot be trusted.
    """
