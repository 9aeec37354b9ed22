"""Exception hierarchy shared by the library and the CLI, and the instance
rules that the function model (``space``) and the checker (``check``) both
apply, so that each refusal has one message everywhere.

Every error carries the process exit code the CLI maps it to:
2 = invalid input, 3 = resource limit, 4 = numerical failure.
"""

import math
import operator
from numbers import Real

from .defaults import POINTWISE_TOL, WEIGHT_SUM_TOL


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


def indices(values, what: str, low=None, high=None) -> tuple:
    """The values as ints by ``operator.index``, refused unless each lies in
    ``[low, high)`` (a bound left None is open): numpy integers pass, and a
    float or a bool is refused, where ``int()`` would truncate the one and
    ``operator.index`` reads the other as 0 or 1."""
    values = tuple(values)
    try:
        if bool in map(type, values):
            raise TypeError("'bool' object is not read as an integer")
        ints = tuple(map(operator.index, values))
    except TypeError as exc:
        raise InvalidArgumentError(f"{what} must be integers: {exc}") from None
    lo = -math.inf if low is None else low
    hi = math.inf if high is None else high
    if ints and not lo <= min(ints) <= max(ints) < hi:
        bound = (f">= {low}" if high is None else f"< {high}" if low is None
                 else f"in [{low}, {high})")
        bad = next(v for v in ints if not lo <= v < hi)
        raise InvalidArgumentError(f"{what} must be {bound}, got {bad}")
    return ints


def positions_in(positions, arity: int) -> tuple:
    """Factor positions on an ``arity``-coordinate grid as ints, refused
    unless strictly increasing in ``range(arity)``."""
    positions = indices(positions, "factor positions", 0, arity)
    if sorted(set(positions)) != list(positions):
        raise InvalidArgumentError(f"factor positions {positions} are not strictly increasing")
    return positions


def real_numbers(values, what: str, error=InvalidArgumentError) -> None:
    """Refuse the values unless each is a real number and no bool (Python or
    numpy): ``True`` or ``"1"`` is never read as 1, a ``Fraction`` or a numpy
    float passes.  Loaders raise TypeError, reported with the record."""
    if set(map(type, values)) <= {int, float}:  # the common case, at C speed
        return
    for v in values:
        if isinstance(v, bool) or not isinstance(v, Real):
            raise error(f"{what} must be numbers, got {v!r:.40}")


def probability(p) -> None:
    """Refuse a probability p that is no number or lies outside [0, 1]."""
    real_numbers([p], "probabilities")
    if not 0.0 <= p <= 1.0:
        raise InvalidArgumentError(f"p={p} outside [0, 1]")


def part_weights(name, size: int, weights: tuple) -> list:
    """A part's weights as floats: one per vertex, at least one, real numbers,
    finite, non-negative, and summing (``math.fsum``) to 1 within ``WEIGHT_SUM_TOL``."""
    size, = indices((size,), f"part {name!r}: size", 1)
    if len(weights) != size:
        raise InvalidArgumentError(f"part {name!r}: {len(weights)} weights for size {size}")
    real_numbers(weights, f"part {name!r}: weights")
    try:  # Part.uniform's vertices share one weight, converted once
        floats = ([float(weights[0])] * size if weights.count(weights[0]) == size
                  else list(map(float, weights)))
    except OverflowError:  # an exact weight beyond the float range
        floats = [math.inf]
    # a negative weight too small for a float rounds to -0.0, so a zero
    # float takes its sign from the original values
    if (not all(map(math.isfinite, floats)) or min(floats) < 0
            or (0.0 in floats and any(w < 0 for w in weights))):
        raise InvalidArgumentError(f"part {name!r}: negative or non-finite weight")
    total = math.fsum(floats)
    if abs(total - 1) > WEIGHT_SUM_TOL:
        raise InvalidArgumentError(f"part {name!r}: weights sum to {total}, not 1")
    return floats


def distinct_names(names: list) -> None:
    """Refuse parts that share a name."""
    if len(set(names)) != len(names):
        raise InvalidArgumentError(f"duplicate part names: {names}")


def value_bounds(name, finite: bool, low, high, signed: bool) -> tuple:
    """The range (lo, hi), [0, 1] or [-1, 1] if signed, that a function's
    values are clipped to: they must be finite, with min and max in range up to
    ``POINTWISE_TOL``."""
    if not finite:
        raise InvalidArgumentError(f"{name}: non-finite values")
    lo, hi = (-1.0, 1.0) if signed else (0.0, 1.0)
    if low < lo - POINTWISE_TOL or high > hi + POINTWISE_TOL:
        raise InvalidArgumentError(f"{name}: values outside [{lo}, {hi}] beyond tolerance "
                                   f"(min {low}, max {high})")
    return lo, hi
