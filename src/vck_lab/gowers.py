"""Partite box (uniformity) norms, dual functions, and cylinder correlations.

The norm of an n-coordinate function is the 2**n-th root of the integral,
over two independent copies of the grid, of the product of f over all 2**n
ways to pick each coordinate from either copy.  Cauchy-Schwarz on the last
coordinate y (the "head" is the other n - 1) writes that integral as

    raw = sum over head points x0, x1 of w(x0) w(x1) inner[x0, x1]**2,
    inner[x0, x1] = sum_y w_y prod over head corners beta of f(x^beta, y),

so only the doubled head grid is ever built.  ``inner`` is one batched
matrix product over the last head coordinate (a weighted Gram matrix for
two coordinates); the outer sums over the head grid are compensated
(``math.fsum``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import (InvalidArgumentError, NumericalFailureError, ResourceLimitError,
                     positions_in)
from .space import (MeasuredFunction, check_array_cap, cylinder_product, integrate,
                    weighted_sum, weighted_sum_rows)


@dataclass(frozen=True)
class BoxNormReport:
    signature: tuple
    degree: int           # total number of coordinates n
    raw: float            # the 2**n-power integral
    norm: float           # raw ** (1 / 2**n)
    clamp_flag: bool      # raw fell in (-tol, 0) and was clamped to zero

    def to_doc(self) -> dict:
        return {"signature": list(self.signature), "degree": self.degree,
                "raw": self.raw, "norm": self.norm, "clamp_flag": self.clamp_flag}


def _check_work(f: MeasuredFunction, dual: bool) -> None:
    """Refuse, before allocating, an empty signature, a degree over the cap,
    or a largest array (the doubled head grid, the corner product feeding
    the matrix product, or the dual's integrand) over the array cap."""
    n = f.arity
    if n == 0:
        raise InvalidArgumentError("box norms need at least one coordinate")
    if n > defaults.DEGREE_CAP:
        raise ResourceLimitError(
            f"degree {n} exceeds the cap {defaults.DEGREE_CAP} (2**n factor growth)")
    head, y = math.prod(f.shape[:-1]), f.shape[-1]
    entries = head * head * y if dual else head * max(head, math.prod(f.shape[:-2]) * y)
    check_array_cap(entries, "box norm")


def _inner(f: MeasuredFunction) -> np.ndarray:
    """inner[x0, x1] as a (head cells, head cells) matrix, x0 and x1 each
    flattened row-major over the head coordinates."""
    n = f.arity
    w_y = f.space.weight_vector(f.signature[-1])
    if n == 1:
        return np.array([[weighted_sum(f.values, w_y)]])
    # corners of the other n - 2 head coordinates on their doubled grid;
    # the last head coordinate and y stay single, as the matrix axes
    m = n - 2
    other = f.shape[:m]
    corners = cylinder_product(
        (([i + m * g for i, g in enumerate(gamma)] + [2 * m, 2 * m + 1], f.values)
         for gamma in itertools.product((0, 1), repeat=m)),
        other + other + f.shape[m:])
    gram = np.matmul(corners * w_y, corners.swapaxes(-1, -2))
    cells = math.prod(f.shape[:-1])
    return gram.transpose([*range(m), 2 * m, *range(m, 2 * m), 2 * m + 1]) \
        .reshape(cells, cells)


def box_norm(f: MeasuredFunction) -> BoxNormReport:
    """Box norm of f; signed input in [-1, 1] is accepted.

    The raw integral is a weighted sum of squares, so a value below
    -tolerance indicates a bug and raises; a tiny negative value is clamped
    to zero and flagged.
    """
    _check_work(f, dual=False)
    n = f.arity
    inner = _inner(f)
    w = f.space.weight_tensor(f.signature[:-1]).ravel()
    raw = weighted_sum(inner, inner, w[:, None], w[None, :])
    clamped = False
    if raw < 0.0:
        if raw < -defaults.BOX_NORM_CLAMP:
            raise NumericalFailureError(
                f"box-norm integral {raw} below -{defaults.BOX_NORM_CLAMP}")
        raw, clamped = 0.0, True
    norm = raw ** (1.0 / (1 << n))
    return BoxNormReport(f.signature, n, raw, norm, clamped)


def dual_function(f: MeasuredFunction) -> MeasuredFunction:
    """Average over the second copy of the product over all nonzero corners:

        dual(x0, y) = sum_x1 w(x1) inner[x0, x1] prod_{beta != 0} f(x^beta, y).

    Pairs with f under the measure inner product to give the raw norm power:
    <f, dual(f)> equals box_norm(f).raw.
    """
    _check_work(f, dual=True)
    n = f.arity
    head = f.shape[:-1]
    cells = math.prod(head)
    # grid axes (x0 head, y, x1 head); the all-zero corner comes first
    corners = itertools.product((0, 1), repeat=n - 1)
    next(corners)
    prod = cylinder_product(
        (([i + n * b for i, b in enumerate(beta)] + [n - 1], f.values) for beta in corners),
        f.shape + head, _inner(f).reshape(head + (1,) + head))
    w = f.space.weight_tensor(f.signature[:-1]).ravel()
    vals = weighted_sum_rows(prod.reshape(cells, f.shape[-1], cells), w).reshape(f.shape)
    return MeasuredFunction(f.space, f.signature, np.clip(vals, -1.0, 1.0),
                            name=f"dual({f.name})", signed=True)


def cylinder_correlation(f: MeasuredFunction, cylinders) -> float:
    """|integral of f times a product of cylinder indicators|; see
    :func:`multiply_cylinders` for the form of ``cylinders``."""
    return abs(integrate(multiply_cylinders(f, cylinders)))


def multiply_cylinders(f: MeasuredFunction, cylinders) -> MeasuredFunction:
    """f times the product of cylinder indicators, as a function.

    ``cylinders`` is a sequence of (relation, positions) pairs: the relation
    lives on the sub-signature of f at ``positions`` (strictly increasing,
    in ``range(f.arity)``) and is extended cylindrically over the omitted
    coordinates.  Each element must omit at least one coordinate.
    """
    factors = []
    for rel, positions in cylinders:
        positions = positions_in(positions, f.arity)
        if len(positions) >= f.arity:
            raise InvalidArgumentError(
                "cylinder element must depend on a strict subset of coordinates")
        expected = tuple(f.signature[p] for p in positions)
        if rel.signature != expected:
            raise InvalidArgumentError(
                f"cylinder factor signature {rel.signature} != {expected}")
        factors.append((positions, rel.values))
    return MeasuredFunction(f.space, f.signature,
                            cylinder_product(factors, f.shape, f.values),
                            name=f"{f.name}*cyl", signed=f.signed)
