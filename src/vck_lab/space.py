"""Finite measured multipartite ground sets and tensor-valued functions.

A :class:`PartiteSpace` is a list of named parts, each carrying an atomic
probability measure on its vertices.  Product measures on any signature
(a tuple of part indices, repetition allowed) are derived lazily from the
per-part weights, which is lossless for the finite atomic model.

Functions on a product are dense float64 tensors; all integrals use
compensated summation (:func:`weighted_sum`) so results are independent of
reduction order.  The package's shared kernels live here, one copy each.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import defaults
from .defaults import GRID_CAP_MAX, POINTWISE_TOL
from .errors import (InvalidArgumentError, ResourceLimitError, distinct_names, indices,
                     part_weights, value_bounds)


@dataclass(frozen=True, eq=False)
class Part:
    """One vertex class with an atomic probability measure on it."""

    name: str
    size: int
    weights: tuple

    def __eq__(self, other):
        # Weights compare as float64 so Fraction-weighted parts equal their
        # serialized round-trip.
        if not isinstance(other, Part):
            return NotImplemented
        return (self.name == other.name and self.size == other.size
                and np.array_equal(self.weight_array, other.weight_array))

    def __hash__(self):
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.name, self.size, tuple(self.weight_array.tolist())))

    def __getstate__(self):
        # the cached array and hash are rebuilt on first use: string hashes
        # differ between processes, and an unpickled array is writeable
        return {key: self.__dict__[key] for key in ("name", "size", "weights")}

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        self.weight_array  # the part rule checks the weights as it converts them

    @functools.cached_property
    def weight_array(self) -> np.ndarray:
        """The weights as float64 (read-only), as the part rule converts them:
        built with the part, and on first use where a pickled part is loaded."""
        array = np.array(part_weights(self.name, self.size, self.weights), dtype=np.float64)
        array.flags.writeable = False
        return array

    @staticmethod
    def uniform(name: str, size: int) -> "Part":
        return Part(name, size, (Fraction(1, size),) * size if size > 0 else ())


@dataclass(frozen=True)
class PartiteSpace:
    """Finite vertex parts, each with an atomic probability measure."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        distinct_names([p.name for p in self.parts])
        object.__setattr__(self, "_weight_cache", {})

    @staticmethod
    def uniform(sizes: Sequence[int], names: Sequence[str] | None = None) -> "PartiteSpace":
        sizes = indices(sizes, "part sizes")
        names = names or [f"V{i + 1}" for i in range(len(sizes))]
        return PartiteSpace(tuple(Part.uniform(n, s) for n, s in zip(names, sizes)))

    def validate_signature(self, signature) -> tuple:
        return indices(signature, "signature entries", 0, len(self.parts))

    def sizes(self, signature) -> tuple:
        return tuple(self.parts[i].size for i in signature)

    def weight_vector(self, part_index: int) -> np.ndarray:
        return self.parts[part_index].weight_array

    def weight_tensor(self, signature) -> np.ndarray:
        """Dense product-measure tensor on the given signature (cached)."""
        sig = self.validate_signature(signature)
        cache = self._weight_cache
        if sig not in cache:
            w = cylinder_product((((axis,), self.weight_vector(i))
                                  for axis, i in enumerate(sig)), self.sizes(sig))
            w.flags.writeable = False
            cache[sig] = w
        return cache[sig]


@dataclass(frozen=True, eq=False)
class MeasuredFunction:
    """Dense tensor over a signature; values in [0, 1] (or [-1, 1] if signed)."""

    space: PartiteSpace
    signature: tuple
    values: np.ndarray
    name: str = "f"
    signed: bool = False

    def __eq__(self, other):
        if not isinstance(other, MeasuredFunction):
            return NotImplemented
        return (self.space == other.space and self.signature == other.signature
                and self.name == other.name
                and np.array_equal(self.values, other.values))

    def __post_init__(self):
        sig = self.space.validate_signature(self.signature)
        object.__setattr__(self, "signature", sig)
        vals = np.asarray(self.values, dtype=np.float64)
        expected = self.space.sizes(sig)
        if vals.shape != expected:
            raise InvalidArgumentError(
                f"{self.name}: tensor shape {vals.shape} != signature extents {expected}")
        vals = self._checked(vals)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def _checked(self, vals: np.ndarray) -> np.ndarray:
        """The values as float64, finite and in range up to tolerance, clipped."""
        vals = np.asarray(vals, dtype=np.float64)
        lo, hi = value_bounds(self.name, bool(np.all(np.isfinite(vals))), vals.min(),
                              vals.max(), self.signed)
        return np.asarray(np.clip(vals, lo, hi), dtype=np.float64)

    @property
    def arity(self) -> int:
        return len(self.signature)

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def is_boolean(self) -> bool:
        v = self.values
        return bool(np.all((v == 0.0) | (v == 1.0)))

    @staticmethod
    def constant(space, signature, c, name="const", signed=False) -> "MeasuredFunction":
        sig = space.validate_signature(signature)
        vals = np.full(space.sizes(sig), float(c), dtype=np.float64)
        return MeasuredFunction(space, sig, vals, name=name, signed=signed)


class Relation(MeasuredFunction):
    """A MeasuredFunction whose values are exactly 0 or 1: they are checked
    and clipped as any function's, then snapped to 0/1 within tolerance."""

    def _checked(self, vals: np.ndarray) -> np.ndarray:
        vals = super()._checked(vals)
        snapped = np.asarray(np.where(np.abs(vals - 1.0) <= POINTWISE_TOL, 1.0,
                                      np.where(np.abs(vals) <= POINTWISE_TOL, 0.0, vals)),
                             dtype=np.float64)
        if not np.all((snapped == 0.0) | (snapped == 1.0)):
            raise InvalidArgumentError(f"{self.name}: relation values must be 0/1")
        return snapped

    @property
    def bool_values(self) -> np.ndarray:
        return self.values.astype(bool)

    @staticmethod
    def from_bool(space, signature, mask, name="E") -> "Relation":
        return Relation(space, signature, np.asarray(mask), name=name)


# --------------------------------------------------------------------------
# kernels


def weighted_sum(*factors) -> float:
    """Compensated sum of the elementwise product of the factors, which
    multiply left to right under broadcasting: the package's one summation
    policy (``math.fsum``, one final rounding, independent of order)."""
    prod = factors[0]
    for factor in factors[1:]:
        prod = prod * factor
    return math.fsum(np.ravel(prod).tolist())


def weighted_sum_rows(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``weighted_sum(row, weights)`` for every row along the last axis."""
    prods = values * weights
    rows = prods.reshape(-1, prods.shape[-1])
    return np.array([weighted_sum(row) for row in rows],
                    dtype=np.float64).reshape(prods.shape[:-1])


def weighted_l2(weights: np.ndarray, diff: np.ndarray) -> float:
    """sqrt(max(0, sum of weights * diff**2)): every L2 norm, distance and error."""
    return math.sqrt(max(weighted_sum(weights, diff, diff), 0.0))


def cylinder(values: np.ndarray, positions, ndim: int) -> np.ndarray:
    """View a tensor as a cylinder on an ndim-coordinate grid: axis i goes to
    ``positions[i]`` and every other axis has length 1, to broadcast."""
    shape = [1] * ndim
    for axis, pos in enumerate(positions):
        shape[pos] = values.shape[axis]
    return values.transpose(sorted(range(values.ndim), key=positions.__getitem__)).reshape(shape)


def cylinder_product(factors, shape, start=1.0) -> np.ndarray:
    """``start`` times the cylinders of ``factors``, (positions, values)
    pairs, on a grid of the given shape, multiplied onto ``start`` left to
    right: the one product of cylinders.  ``start`` is a scalar or a tensor
    that broadcasts to that shape; a shape of ones gives the product on the
    factors' broadcast shape.  Axes no factor covers are a read-only view."""
    shape, prod = tuple(shape), np.asarray(start, dtype=np.float64)
    for positions, values in factors:
        prod = prod * cylinder(values, positions, len(shape))
    return prod if prod.shape == shape else np.broadcast_to(
        prod, np.broadcast_shapes(prod.shape, shape))


def check_array_cap(entries: int, what: str) -> None:
    """Refuse, before anything is allocated, work that would build more
    than ARRAY_CAP array entries."""
    if entries > defaults.ARRAY_CAP:
        raise ResourceLimitError(
            f"{what} would build {entries} entries (cap {defaults.ARRAY_CAP})")


def check_grid(sizes, arrays: int = 1) -> None:
    """Refuse, before any part or tensor is built, a grid with a part size
    that is no integer or below 1, with more than ``MAX_AXES`` coordinates,
    or whose ``arrays`` full-grid arrays would pass the array cap."""
    sizes = indices(sizes, "part sizes", 1)
    if len(sizes) > defaults.MAX_AXES:
        raise ResourceLimitError(f"a grid of {len(sizes)} coordinates has more axes "
                                 f"than arrays may have ({defaults.MAX_AXES})")
    check_array_cap(arrays * math.prod(sizes), "generated instance")


def grid_masks(hits: np.ndarray) -> list:
    """Per column of a (grid point, column) boolean table, its true rows as a
    bitmask: bit i is grid point i, the one encoding of box-grid subsets."""
    if hits.shape[0] > GRID_CAP_MAX:
        raise ResourceLimitError(f"{hits.shape[0]} grid points overflow an int64 "
                                 f"bitmask (at most {GRID_CAP_MAX})")
    bits = 1 << np.arange(hits.shape[0], dtype=np.int64)
    return (hits.T @ bits).astype(np.int64).tolist()


def row_labels(rows: np.ndarray) -> list:
    """Per row of a 2-D boolean table, the label of its distinct value: one
    packed row per row, as bytes, numbered in order of first occurrence."""
    table = np.ascontiguousarray(np.packbits(rows, axis=1))
    keys = table.view(np.dtype((np.void, table.shape[1]))).ravel().tolist()
    first = dict(zip(dict.fromkeys(keys), itertools.count()))
    return list(map(first.__getitem__, keys))


def index_sets(n: int, k: int) -> list:
    """Non-empty subsets of range(n) of size at most k, by size, then lexicographic."""
    n, k = indices((n, k), "n and k")
    return [I for size in range(1, k + 1) for I in itertools.combinations(range(n), size)]


def dyadics(height: int) -> list:
    """All dyadic rationals of the given height in [0, 1], ascending."""
    height, = indices((height,), "dyadic height")
    return [Fraction(i, 2 ** height) for i in range(2 ** height + 1)]


# --------------------------------------------------------------------------
# integration


def integrate(f: MeasuredFunction) -> float:
    """∫ f dμ over the full product measure, compensated."""
    return weighted_sum(f.space.weight_tensor(f.signature), f.values)


def inner(f: MeasuredFunction, g: MeasuredFunction) -> float:
    _check_same_grid(f, g)
    return weighted_sum(f.space.weight_tensor(f.signature), f.values, g.values)


def l2_distance(f: MeasuredFunction, g: MeasuredFunction) -> float:
    _check_same_grid(f, g)
    return weighted_l2(f.space.weight_tensor(f.signature), f.values - g.values)


def _same_kind(f: MeasuredFunction, signature, values, name: str) -> MeasuredFunction:
    """A function of f's class (and signedness) with new values."""
    if isinstance(f, Relation):
        return Relation(f.space, signature, values, name=name)
    return MeasuredFunction(f.space, signature, values, name=name, signed=f.signed)


def _check_same_grid(f, g):
    if f.space is not g.space and f.space != g.space:
        raise InvalidArgumentError("functions live on different spaces")
    if f.signature != g.signature:
        raise InvalidArgumentError(
            f"signature mismatch: {f.signature} vs {g.signature}")


# --------------------------------------------------------------------------
# elementary transforms


def level_set(f: MeasuredFunction, r: float, *, name: str | None = None) -> Relation:
    """Threshold relation {f < r}."""
    return Relation.from_bool(f.space, f.signature, f.values < r, name=name or f"{f.name}<{r}")


def fiber(f: MeasuredFunction, fixed: Mapping[int, int]) -> MeasuredFunction:
    """Restrict f by pinning coordinate positions to vertices.

    The result lives on the residual signature, original coordinate order.
    """
    arity = f.arity
    fixed = {pos: indices((v,), f"fiber vertices at coordinate {pos}", 0, f.shape[pos])[0]
             for pos, v in zip(indices(fixed, "fiber positions", 0, arity), fixed.values())}
    index = tuple(fixed.get(pos, slice(None)) for pos in range(arity))
    residual = tuple(f.signature[pos] for pos in range(arity) if pos not in fixed)
    label = ",".join(f"{p}:{v}" for p, v in sorted(fixed.items()))
    return _same_kind(f, residual, np.array(f.values[index]), f"{f.name}[{label}]")


def average_out(f: MeasuredFunction, position: int) -> MeasuredFunction:
    """Weighted average over one coordinate; range stays within [min f, max f]."""
    position, = indices((position,), "averaged position", 0, f.arity)
    w = f.space.weight_vector(f.signature[position])
    out = weighted_sum_rows(np.moveaxis(f.values, position, -1), w)
    lo, hi = float(f.values.min()), float(f.values.max())
    out = np.clip(out, lo, hi)
    residual = tuple(p for i, p in enumerate(f.signature) if i != position)
    return MeasuredFunction(f.space, residual, out, name=f"avg({f.name},{position})",
                            signed=f.signed)


def all_traversals(f: MeasuredFunction, counts: Sequence[int],
                   name: str | None = None) -> MeasuredFunction:
    """Relation of complete column traversals: coordinate i is replicated
    counts[i] times, and the value is the product of f over every way of
    picking one replica per coordinate.

    For a relation R this is the set of grids all of whose cells lie in R.
    """
    counts = indices(counts, "counts", 1)
    if len(counts) != f.arity:
        raise InvalidArgumentError(f"need one count per coordinate, got {counts}")
    new_sig = tuple(p for p, c in zip(f.signature, counts) for _ in range(c))
    offsets = np.concatenate([[0], np.cumsum(counts)])[:-1]
    out = cylinder_product(
        (([offsets[coord] + j for coord, j in enumerate(combo)], f.values)
         for combo in itertools.product(*[range(c) for c in counts])),
        f.space.sizes(new_sig))
    return _same_kind(f, new_sig, out, name or f"traversals({f.name})")
