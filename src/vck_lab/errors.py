"""Exception hierarchy shared by the library and the CLI.

Every error carries the process exit code the CLI maps it to:
2 = invalid input, 3 = resource limit, 4 = numerical failure.
"""

import operator


class VckLabError(Exception):
    exit_code = 1


class InvalidArgumentError(VckLabError):
    """A precondition on arguments was violated."""

    exit_code = 2


class ResourceLimitError(VckLabError):
    """An explicit search/size cap was exceeded; never silently truncated."""

    exit_code = 3


class NumericalFailureError(VckLabError):
    """A numerical identity that must hold failed beyond tolerance."""

    exit_code = 4


class DiagnosticFailureError(NumericalFailureError):
    """A diagnostic scan that is guaranteed to succeed did not; carries the trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


def indices(values, what: str) -> tuple:
    """The values as ints by ``operator.index``: numpy integers pass, and a
    float is refused, where ``int()`` would truncate it."""
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise InvalidArgumentError(f"{what} must be integers: {exc}") from None
