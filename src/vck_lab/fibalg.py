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
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import defaults
from .errors import (DiagnosticFailureError, InvalidArgumentError, ResourceLimitError,
                     indices)
from .space import (MeasuredFunction, Relation, check_array_cap, dyadics, fiber,
                    index_sets, l2_distance, level_set, row_labels, weighted_sum)


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
    k = f.arity - 1
    if k < 1:
        raise InvalidArgumentError("function must have arity >= 2")
    if len(spec.params) != k:
        raise InvalidArgumentError(
            f"{len(spec.params)} parameter rows for {k} searched coordinates")
    dist = f.arity - 1
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
class FiberFamily(Sequence):
    """Generators stacked, one read-only 0/1 row and one name each, over the
    flat grid of ``signature``; as a sequence, the relations, built on demand."""

    space: object
    signature: tuple
    names: tuple
    masks: np.ndarray                 # (generators, cells) bool

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FiberFamily(self.space, self.signature, self.names[i], self.masks[i])
        return Relation.from_bool(self.space, self.signature,
                                  self.masks[i].reshape(self.space.sizes(self.signature)),
                                  name=self.names[i])


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
    def cells(self) -> tuple:
        """Per cell, its sorted flat indices (read-only)."""
        order = np.argsort(self.labels, kind="stable")
        order.flags.writeable = False
        return tuple(np.split(order, np.cumsum(np.bincount(self.labels))[:-1]))

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
    stacked masks.
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
    space, signature = generators.space, generators.signature
    if not generators:
        total = int(np.prod(space.sizes(signature), dtype=np.int64))
        return AtomPartition(space, signature, np.zeros(total, dtype=np.int64), ())
    # one membership row per grid point: distinct rows numbered by their
    # smallest flat index
    return AtomPartition(space, signature, row_labels(generators.masks.T), generators.names)


def project_simple(f: MeasuredFunction, partition: AtomPartition):
    """L2-optimal partition-measurable approximant and its error.

    The value on each cell is the measure-weighted mean of f there (cells of
    measure zero get 0).
    """
    if partition.signature != f.signature or not partition.covers(f.shape):
        raise InvalidArgumentError("partition does not cover the function grid")
    wflat = f.space.weight_tensor(f.signature).ravel()
    means = conditional_means(f.values.ravel(), partition, wflat)
    g = MeasuredFunction(f.space, f.signature, means[partition.labels].reshape(f.shape),
                         name=f"proj({f.name})")
    return g, l2_distance(f, g)


def conditional_means(indicator: np.ndarray, partition: AtomPartition,
                      wflat: np.ndarray) -> np.ndarray:
    """Per-cell weighted mean of a flat array (0 on null cells)."""
    out = np.zeros(len(partition.cells))
    for j, cell in enumerate(partition.cells):
        wsum = weighted_sum(wflat[cell])
        if wsum > 0.0:
            out[j] = weighted_sum(wflat[cell], indicator[cell]) / wsum
    return out


@dataclass(frozen=True)
class FuzzinessWitness:
    height: int
    r: Fraction
    s: Fraction
    delta: float
    fuzzy_measure: float


def fuzziness(f: MeasuredFunction, partition: AtomPartition, eps: float,
              height_cap: int = defaults.FUZZINESS_HEIGHT_CAP):
    """Search for thresholds r < s where the partition is genuinely uncertain.

    Returns None when the projection error is below eps (f is measurable
    enough, nothing to find).  Otherwise scans dyadic heights upward and, at
    each height, maximizes delta over threshold pairs, breaking ties toward
    the wider pair; the witness is re-verified before returning.  The scan
    cannot fail for a grid function when the precondition holds, so
    exhausting the cap raises with the trace attached.
    """
    _, err = project_simple(f, partition)
    if err < eps:
        return None
    wflat = f.space.weight_tensor(f.signature).ravel()
    cell_meas = np.array([weighted_sum(wflat[c]) for c in partition.cells])
    fflat = f.values.ravel()
    trace = []
    for height in range(1, height_cap + 1):
        qs = dyadics(height)
        e_low = {q: conditional_means((fflat < float(q)).astype(np.float64),
                                      partition, wflat) for q in qs}
        e_high = {q: conditional_means((fflat >= float(q)).astype(np.float64),
                                       partition, wflat) for q in qs}
        best = None
        for i, r in enumerate(qs):
            for s in qs[i + 1:]:
                m = np.minimum(e_low[r], e_high[s])
                delta = 0.0
                for tau in sorted(set(m[m > 0].tolist()), reverse=True):
                    covered = weighted_sum(cell_meas[m >= tau])
                    delta = max(delta, min(tau, covered))
                cand = (delta, float(s - r), -float(r), r, s)
                if delta > 0 and (best is None or cand[:3] > best[:3]):
                    best = cand
        trace.append((height, None if best is None else (best[3], best[4], best[0])))
        if best is not None:
            delta, _, _, r, s = best
            fuzzy_measure = weighted_sum(cell_meas[np.minimum(e_low[r], e_high[s]) >= delta])
            if fuzzy_measure < delta:
                raise DiagnosticFailureError(
                    "fuzziness witness failed re-verification", trace)
            return FuzzinessWitness(height, r, s, delta, fuzzy_measure)
    raise DiagnosticFailureError(
        f"no fuzziness witness up to height {height_cap} despite projection "
        f"error {err} >= {eps}", trace)


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
                     spec: FiberFamilySpec) -> FiberApproxReport:
    """Greedy anchor selection until every fiber projects within eps.

    For each candidate vertex x of the distinguished (last) coordinate, the
    fiber of f at x is projected onto the algebra generated by the cylinder
    fiber family at (anchors + x) together with the dyadic level sets of the
    anchors' own fibers.  The worst-approximated x joins the anchor list;
    the report is flagged when the budget runs out above eps.
    """
    dist = k = f.arity - 1
    if k < 1:
        raise InvalidArgumentError("need arity >= 2")
    part_size = f.shape[dist]
    anchors: list = []

    def projection_error(x, current):
        generators = list(fiber_family(
            f, FiberFamilySpec(spec.height, tuple(current) + (x,), spec.params)))
        for a in current:
            fa = fiber(f, {dist: a})
            for q in dyadics(spec.height):
                generators.append(level_set(fa, float(q), name=f"{f.name}[b={a}]<{q}"))
        partition = atoms(generators, f.space, f.signature[:k])
        fx = fiber(f, {dist: x})
        _, err = project_simple(fx, partition)
        return err

    while True:
        errors = [(projection_error(x, anchors), x) for x in range(part_size)]
        worst_err, worst_x = max(errors, key=lambda t: (t[0], -t[1]))
        if worst_err <= eps:
            return FiberApproxReport(tuple(anchors), worst_err, True,
                                     tuple((x, e) for e, x in errors))
        if len(anchors) >= anchors_budget:
            return FiberApproxReport(tuple(anchors), worst_err, False,
                                     tuple((x, e) for e, x in errors))
        anchors.append(worst_x)
