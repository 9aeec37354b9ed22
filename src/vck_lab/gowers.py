"""Partite box (uniformity) norms, dual functions, and cylinder correlations.

The norm of an n-coordinate function is the 2**n-th root of the integral,
over two independent copies of the grid, of the product of f over all 2**n
ways to pick each coordinate from either copy.  Iteration is ordered with
the first copy outer and the second inner, row-major, and the final
reduction is compensated, so results are bit-reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import InvalidArgumentError, NumericalFailureError, ResourceLimitError
from .space import (MeasuredFunction, cylinder_product, integrate, weighted_sum,
                    weighted_sum_rows)


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


def _corner_product(f: MeasuredFunction, skip_zero_corner: bool) -> np.ndarray:
    """Product over corner patterns on the doubled grid.

    Axes are ordered (x1^0 .. xn^0, x1^1 .. xn^1); pattern alpha picks axis
    i or n+i for coordinate i.  Skipping the all-zero corner yields the
    integrand of the dual function.
    """
    n = f.arity
    if n == 0:
        raise InvalidArgumentError("box norms need at least one coordinate")
    if n > defaults.DEGREE_CAP:
        raise ResourceLimitError(
            f"degree {n} exceeds the cap {defaults.DEGREE_CAP} (2**n factor growth)")
    cells = int(np.prod(f.shape, dtype=np.int64))
    if cells * cells > defaults.DOUBLED_CELL_CAP:
        raise ResourceLimitError(
            f"doubled grid would hold {cells * cells} cells "
            f"(cap {defaults.DOUBLED_CELL_CAP})")
    corners = itertools.product((0, 1), repeat=n)
    if skip_zero_corner:
        next(corners)  # the all-zero corner comes first
    return cylinder_product((([i + n * a for i, a in enumerate(alpha)], f.values)
                             for alpha in corners), f.shape + f.shape)


def box_norm(f: MeasuredFunction) -> BoxNormReport:
    """Box norm of f; signed input in [-1, 1] is accepted.

    The raw integral is a sum of squares after fibering, so a value below
    -tolerance indicates a bug and raises; a tiny negative value is clamped
    to zero and flagged.
    """
    n = f.arity
    prod = _corner_product(f, skip_zero_corner=False)
    wflat = f.space.weight_tensor(f.signature).ravel()
    cells = wflat.size
    raw = weighted_sum(prod.reshape(cells, cells), wflat[:, None], wflat[None, :])
    clamped = False
    if raw < 0.0:
        if raw < -defaults.BOX_NORM_CLAMP:
            raise NumericalFailureError(
                f"box-norm integral {raw} below -{defaults.BOX_NORM_CLAMP}")
        raw, clamped = 0.0, True
    norm = raw ** (1.0 / (1 << n))
    return BoxNormReport(f.signature, n, raw, norm, clamped)


def dual_function(f: MeasuredFunction) -> MeasuredFunction:
    """Average over the second copy of the product over all nonzero corners.

    Pairs with f under the measure inner product to give the raw norm power:
    <f, dual(f)> equals box_norm(f).raw.
    """
    prod = _corner_product(f, skip_zero_corner=True)
    wflat = f.space.weight_tensor(f.signature).ravel()
    cells = wflat.size
    vals = weighted_sum_rows(prod.reshape(cells, cells), wflat).reshape(f.shape)
    return MeasuredFunction(f.space, f.signature, np.clip(vals, -1.0, 1.0),
                            name=f"dual({f.name})", signed=True)


def cylinder_correlation(f: MeasuredFunction, cylinders) -> float:
    """|integral of f times a product of cylinder indicators|; see
    :func:`multiply_cylinders` for the form of ``cylinders``."""
    return abs(integrate(multiply_cylinders(f, cylinders)))


def multiply_cylinders(f: MeasuredFunction, cylinders) -> MeasuredFunction:
    """f times the product of cylinder indicators, as a function.

    ``cylinders`` is a sequence of (relation, positions) pairs: the relation
    lives on the sub-signature of f at ``positions`` (strictly increasing)
    and is extended cylindrically over the omitted coordinates.  Each element
    must omit at least one coordinate.
    """
    factors = []
    for rel, positions in cylinders:
        positions = tuple(int(p) for p in positions)
        if len(positions) >= f.arity:
            raise InvalidArgumentError(
                "cylinder element must depend on a strict subset of coordinates")
        if sorted(set(positions)) != list(positions):
            raise InvalidArgumentError(f"positions {positions} must be strictly increasing")
        expected = tuple(f.signature[p] for p in positions)
        if rel.signature != expected:
            raise InvalidArgumentError(
                f"cylinder factor signature {rel.signature} != {expected}")
        factors.append((positions, rel.values))
    return MeasuredFunction(f.space, f.signature,
                            cylinder_product(factors, f.shape, f.values),
                            name=f"{f.name}*cyl", signed=f.signed)
