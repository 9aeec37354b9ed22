"""Fiber-generated Boolean algebras, atom partitions, and L2 projections.

The generating sets are dyadic level sets of a (k+1)-ary function with a
distinguished last coordinate pinned to an anchor and some of the remaining
coordinates substituted by parameters, i.e. lower-arity cylinder fibers.
Conditional expectation exists only as projection onto an explicit finite
atom partition.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import defaults
from .errors import InvalidArgumentError, ResourceLimitError, indices, real_numbers
from .space import (MeasuredFunction, Relation, check_array_cap, dyadics, fiber,
                    index_sets, l2_distance, row_labels)


@dataclass(frozen=True)
class FiberFamilySpec:
    """Recipe for the generating family of cylinder fibers.

    height: dyadic threshold height; anchors: vertices of the distinguished
    (last) coordinate; params: per searched coordinate, the vertex list the
    substitutions a_i are drawn from.  Index sets range over non-empty
    subsets of the searched coordinates of size at most k-1.
    """

    height: int
    anchors: tuple
    params: tuple

    def __post_init__(self):
        object.__setattr__(self, "height", indices((self.height,), "dyadic height", 1)[0])
        object.__setattr__(self, "anchors", indices(self.anchors, "anchors"))
        object.__setattr__(self, "params",
                           tuple(indices(row, "parameter vertices") for row in self.params))


def fiber_family(f: MeasuredFunction, spec: FiberFamilySpec) -> FiberFamily:
    """One named relation on the searched grid per (threshold, index set,
    substitution, anchor), stacked; names encode the full provenance."""
    if not spec.anchors:
        raise InvalidArgumentError("fiber family needs at least one anchor")
    dist = k = f.arity - 1
    if k < 1:
        raise InvalidArgumentError("function must have arity >= 2")
    if len(spec.params) != k:
        raise InvalidArgumentError(
            f"{len(spec.params)} parameter rows for {k} searched coordinates")
    if () in spec.params:
        raise InvalidArgumentError(f"parameter row {spec.params.index(())} is empty")
    indices(spec.anchors, "anchors", 0, f.shape[dist])
    # the 2**height + 1 thresholds are scanned even when no relation is
    # built; the clamp keeps an absurd height from forming a huge integer
    if 2 ** min(spec.height, defaults.ARRAY_CAP.bit_length()) + 1 > defaults.ARRAY_CAP:
        raise ResourceLimitError(f"dyadic height {spec.height} makes 2**{spec.height} + 1 "
                                 f"thresholds (cap {defaults.ARRAY_CAP})")
    searched, cells = f.shape[:k], math.prod(f.shape[:k])
    check_array_cap(family_size(spec, k) * cells, "fiber family")
    # for k > 1 each row is pinned alone by an index set: refused as fiber refuses
    for i, row in enumerate(spec.params if k > 1 else ()):
        indices(row, f"fiber vertices at coordinate {i}", 0, f.shape[i])
    # each fiber is cut once, in (index set, substitution, anchor) order, as
    # one row over the searched grid, then all are thresholded at every q
    rows, labels = [np.empty((0, cells))], []
    for I in index_sets(k, k - 1):
        cut = np.moveaxis(f.values, [*I, dist], range(len(I) + 1))[
            np.ix_(*(spec.params[i] for i in I), spec.anchors)]
        cut = cut.reshape(-1, *(1 if p in I else n for p, n in enumerate(searched)))
        rows.append(np.broadcast_to(cut, (len(cut), *searched)).reshape(-1, cells))
        labels += [f"|I={','.join(map(str, I))}|a={','.join(map(str, a))}|b={b}"
                   for a in itertools.product(*(spec.params[i] for i in I))
                   for b in spec.anchors]
    qs = dyadics(spec.height)
    masks = np.concatenate(rows) < np.array([float(q) for q in qs])[:, None, None]
    masks = masks.reshape(-1, cells)
    masks.flags.writeable = False
    return FiberFamily(f.space, f.signature[:k], tuple(
        f"{f.name}<{q.numerator}/{q.denominator}{label}" for q in qs for label in labels), masks)


@dataclass(frozen=True, eq=False)
class FiberFamily:
    """Generators stacked, one read-only 0/1 row and one name each, over the
    flat grid of ``signature``; its length is the number of generators."""

    space: object
    signature: tuple
    names: tuple
    masks: np.ndarray                 # (generators, cells) bool

    def __len__(self) -> int:
        return len(self.names)


def family_size(spec: FiberFamilySpec, k: int) -> int:
    """Cardinality bookkeeping for the generated family."""
    per_q = sum(math.prod(len(spec.params[i]) for i in I) for I in index_sets(k, k - 1))
    return (2 ** spec.height + 1) * per_q * len(spec.anchors)


@dataclass(frozen=True)
class AtomPartition:
    """Disjoint cells covering the grid, generated by membership sign vectors."""

    space: object
    signature: tuple
    labels: np.ndarray                # cell per flat index, numbered by smallest index
    generator_names: tuple = ()

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def cell_count(self) -> int:
        return int(self.labels.max()) + 1

    @cached_property
    def cell_order(self) -> tuple:
        """The flat indices by cell, sorted within each (read-only), and the cell sizes."""
        order = np.argsort(self.labels, kind="stable")
        order.flags.writeable = False
        return order, np.bincount(self.labels)

    @cached_property
    def cells(self) -> tuple:
        """Per cell, its sorted flat indices (read-only)."""
        return tuple(np.split(self.cell_order[0], np.cumsum(self.cell_order[1])[:-1]))

    def covers(self, shape) -> bool:
        return self.labels.size == int(np.prod(shape, dtype=np.int64))

    def to_doc(self) -> dict:
        return {"signature": list(self.signature),
                "generator_names": list(self.generator_names),
                "cells": [c.tolist() for c in self.cells]}


def atoms(generators, space=None, signature=None) -> AtomPartition:
    """Partition of the grid into distinct sign-vectors of generator membership.

    Cells are ordered by their minimal flat index; with no generators the
    whole grid is a single cell.  A :class:`FiberFamily` is read from its
    stacked masks; a list of relations is stacked into one first.
    """
    if not isinstance(generators, FiberFamily):
        generators = list(generators)
        if generators:
            space, signature = generators[0].space, generators[0].signature
            if any(g.signature != signature for g in generators):
                raise InvalidArgumentError("generators must share a signature")
        elif space is None or signature is None:
            raise InvalidArgumentError("atoms with no generators needs space and signature")
        generators = FiberFamily(space, tuple(signature), tuple(g.name for g in generators),
                                 np.array([g.values.ravel() == 1.0 for g in generators]))
    return _partition(generators.space, generators.signature, generators.masks,
                      generators.names)


def _partition(space, signature, masks: np.ndarray, names=()) -> AtomPartition:
    """The atoms of a (generators, cells) bool array: with no rows, one cell."""
    if not len(masks):
        total = int(np.prod(space.sizes(signature), dtype=np.int64))
        return AtomPartition(space, signature, np.zeros(total, dtype=np.int64), names)
    # one membership row per grid point: distinct rows numbered by their
    # smallest flat index, so the row order of masks does not matter
    return AtomPartition(space, signature, row_labels(masks.T), names)


def project_simple(f: MeasuredFunction, partition: AtomPartition):
    """L2-optimal partition-measurable approximant and its error: on each cell
    the measure-weighted mean of f there (0 on cells of measure zero)."""
    if partition.signature != f.signature or not partition.covers(f.shape):
        raise InvalidArgumentError("partition does not cover the function grid")
    wflat = f.space.weight_tensor(f.signature).ravel()
    means = conditional_means(f.values.ravel(), partition, wflat)
    g = MeasuredFunction(f.space, f.signature, means[partition.labels].reshape(f.shape),
                         name=f"proj({f.name})", signed=f.signed)
    return g, l2_distance(f, g)


def conditional_means(indicator: np.ndarray, partition: AtomPartition,
                      wflat: np.ndarray) -> np.ndarray:
    """Per-cell weighted mean of a flat array (0 on null cells): each cell's
    two ``math.fsum``s read its consecutive run of the cell order."""
    order, sizes = partition.cell_order
    w = wflat[order]
    weights, products = iter(w.tolist()), iter((w * indicator[order]).tolist())
    sums = [(math.fsum(itertools.islice(weights, n)), math.fsum(itertools.islice(products, n)))
            for n in sizes.tolist()]
    return np.array([total / wsum if wsum > 0.0 else 0.0 for wsum, total in sums])


def round_to_cells(f: MeasuredFunction, partition: AtomPartition,
                   threshold: float) -> Relation:
    """Union of the cells whose conditional mean of f exceeds the threshold."""
    wflat = f.space.weight_tensor(f.signature).ravel()
    means = conditional_means(f.values.ravel(), partition, wflat)
    return Relation.from_bool(f.space, f.signature,
                              (means > threshold)[partition.labels].reshape(f.shape),
                              name=f"cells({f.name}>{threshold})")


# --------------------------------------------------------------------------
# anchor selection for fiber approximation


@dataclass(frozen=True)
class FiberApproxReport:
    anchors: tuple
    max_error: float
    met_epsilon: bool
    per_fiber: tuple  # (vertex, error) pairs for the final anchor set


def approx_by_fibers(f: MeasuredFunction, eps: float, anchors_budget: int,
                     height: int, params: tuple) -> FiberApproxReport:
    """Greedy anchor selection until every fiber projects within eps.

    For each candidate vertex x of the distinguished (last) coordinate, the
    fiber of f at x is projected onto the algebra generated by the cylinder
    fiber family (dyadic ``height``, substitutions from ``params``) at
    (anchors + x) together with the dyadic level sets of the anchors' own
    fibers.  The worst x joins the anchors, whose rows are built once per
    round.  The search stops within eps, at the budget (flagged), or when
    the worst x is already an anchor and so would add no generator.
    """
    real_numbers([eps], "eps")
    if not 0 <= eps < math.inf:
        raise InvalidArgumentError(f"eps must be finite and >= 0, got {eps}")
    budget, = indices((anchors_budget,), "anchors budget", 0)
    spec = FiberFamilySpec(height, (), params)
    dist = k = f.arity - 1
    cells = math.prod(f.shape[:k])
    anchors: list = []
    while True:
        common = np.empty((0, cells), dtype=bool)
        if anchors:
            # refused where the family at (anchors + x) would be
            check_array_cap(family_size(replace(spec, anchors=(*anchors, 0)), k) * cells,
                            "fiber family")
            qs = np.array([float(q) for q in dyadics(spec.height)])[:, None, None]
            levels = np.moveaxis(f.values, dist, 0)[anchors].reshape(-1, cells) < qs
            common = np.concatenate([fiber_family(f, replace(spec, anchors=tuple(anchors))).masks,
                                     levels.reshape(-1, cells)])
        errors = []
        # at arity 0 the one candidate is refused by fiber_family
        for x in range(math.prod(f.shape[dist:])):
            own = fiber_family(f, replace(spec, anchors=(x,))).masks
            partition = _partition(f.space, f.signature[:k], np.concatenate([common, own]))
            errors.append((project_simple(fiber(f, {dist: x}), partition)[1], x))
        worst_err, worst_x = max(errors, key=lambda t: (t[0], -t[1]))
        if worst_err <= eps or len(anchors) >= budget or worst_x in anchors:
            return FiberApproxReport(tuple(anchors), worst_err, worst_err <= eps,
                                     tuple((x, e) for e, x in errors))
        anchors.append(worst_x)
