"""Shattering search and exact higher-arity VC dimension with certificates.

A (k+1)-ary function f threshold-shatters a k-dimensional box A1 x ... x Ak
at (r, s) when for every subset S of the box grid some witness vertex b in
the distinguished coordinate has f <= r on S and f >= s off S.  The search
iterates box size d upward, enumerating boxes lexicographically; a batched
count of each box's distinct witness masks skips boxes that cannot be
shattered, and check_shattered decides the rest: witnesses are located
through per-vertex trace bitmaps over the grid, so the subset-cover test is
set membership over integer masks.  Certificates are of ``check``'s type,
which that module writes, reads and rules on without the search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import defaults
from .check import ShatteringCertificate, box_side, shatters, thresholds
from .errors import InvalidArgumentError, ResourceLimitError, indices
from .space import MeasuredFunction, cylinder, fiber, grid_masks


@dataclass(frozen=True)
class Box:
    """Per searched coordinate, the vertex subset forming one box side."""

    subsets: tuple

    def __post_init__(self):
        object.__setattr__(self, "subsets", tuple(map(box_side, self.subsets)))

    @property
    def grid_size(self) -> int:
        return math.prod(len(side) for side in self.subsets)


@dataclass(frozen=True)
class VcResult:
    dimension: int
    certificate: ShatteringCertificate | None
    complete: bool = True
    levels: tuple = ()  # LevelStats per box size tried, in order


def _box_positions(arity: int, distinguished: int) -> list:
    indices((distinguished,), "distinguished coordinate", 0, arity)
    return [p for p in range(arity) if p != distinguished]


def _grid_value_table(f: MeasuredFunction, box: Box, distinguished: int) -> np.ndarray:
    """(grid_size, witness_count) array of f over box grid x witness vertex."""
    positions = _box_positions(f.arity, distinguished)
    if len(box.subsets) != len(positions):
        raise InvalidArgumentError(
            f"box has {len(box.subsets)} sides for {len(positions)} searched coordinates")
    for side, pos in zip(box.subsets, positions):
        indices(side, f"box vertices at coordinate {pos}", 0, f.shape[pos])
    moved = np.moveaxis(f.values, distinguished, -1)
    sub = moved[np.ix_(*[list(side) for side in box.subsets])]
    return sub.reshape(-1, f.shape[distinguished])


def _check_search_args(r: float, s: float, cap: int) -> None:
    thresholds(r, s)
    indices((cap,), "cap (grid points of an int64 bitmask)", 1, defaults.GRID_CAP_MAX + 1)


def check_shattered(f: MeasuredFunction, box: Box, distinguished: int,
                    r: float, s: float,
                    cap: int = defaults.GRID_CAP) -> ShatteringCertificate | None:
    """Full certificate if every subset of the box grid has a witness, else None."""
    distinguished, = indices((distinguished,), "distinguished coordinate")
    _check_search_args(r, s, cap)
    g = box.grid_size
    if g > cap:
        raise ResourceLimitError(
            f"box grid has {g} points, exceeding the cap of {cap} "
            f"(2**{g} subsets would need witnesses)")
    table = _grid_value_table(f, box, distinguished)
    lo_masks = grid_masks(table <= r)
    hi_masks = grid_masks(table >= s)
    full = (1 << g) - 1
    needed = 1 << g
    witnesses: dict = {}
    for b in range(table.shape[1]):
        lo, hi = lo_masks[b], hi_masks[b]
        if lo | hi != full:
            continue  # some grid value falls strictly inside (r, s)
        base = full & ~hi
        free = lo & hi
        sub = free
        while True:
            witnesses.setdefault(base | sub, b)
            if sub == 0:
                break
            sub = (sub - 1) & free
        if len(witnesses) == needed:
            return ShatteringCertificate(box.subsets, distinguished, r, s, witnesses.items())
    return None


def verify_certificate(f: MeasuredFunction, cert: ShatteringCertificate) -> bool:
    """Recompute every witness condition; exact comparisons, no tolerance.
    A box or witness vertex out of range makes the certificate invalid.
    The test is ``check.shatters``, the one ``vck-lab verify`` runs."""
    return shatters(f.values.ravel().tolist(), f.shape, cert)


# Box x witness keys held per batch of a level scan: bounds its memory.
_BATCH_ENTRIES = 1 << 14
# A level scan's first batch; later batches double up to the entry cap, so a
# level whose first box is shattered stays cheap.
_FIRST_BATCH = 8


class _LevelScan:
    """Witness table of one (f, distinguished, r, s) over the whole searched
    grid, and the count filter that keeps check_shattered off boxes which
    cannot be shattered.

    Rows are searched-grid cells in row-major order, columns are witnesses;
    ``lo`` holds the f <= r bits.  ``ties`` tells whether some cell equals
    r = s: such a witness covers a subset with or without that cell, so
    neither the count bound nor the filter applies and every box is checked.
    The filter runs only when there are at least 2**g witnesses for a g-point
    box grid (else the log-size bound ends the search), so the per-box
    seen-bitmap of 2**g flags it counts with is never larger than the box's
    row of witness keys.
    """

    def __init__(self, f: MeasuredFunction, distinguished: int, r: float, s: float):
        self.sizes = [f.shape[p] for p in _box_positions(f.arity, distinguished)]
        self.strides = [math.prod(self.sizes[j + 1:]) for j in range(len(self.sizes))]
        whole = Box(tuple(tuple(range(n)) for n in self.sizes))
        values = _grid_value_table(f, whole, distinguished)
        self.lo = values <= r
        self.ties = bool(np.any(self.lo & (values >= s)))
        self.witnesses = values.shape[1]

    def covered_bound(self, combos: np.ndarray) -> np.ndarray:
        """Per box of a (boxes, k, d) batch, the number of distinct <= r
        masks of its witnesses over the box grid.  Without ties a witness
        covers at most its own mask (none if a value lies inside (r, s)), so
        this bounds the grid subsets covered.  Each box's masks are keys in
        the narrowest unsigned dtype, counted by the flags they set."""
        n, k, d = combos.shape
        cells = sum(cylinder(combos[:, j, :] * self.strides[j], (0, j + 1), k + 1)
                    for j in range(k)).reshape(n, -1)
        g = cells.shape[1]
        # keys stop below bit 62, so a 64-bit key is signed: it adds to the
        # int64 row offsets without promotion to float
        dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.int64)
                     if g <= 8 * np.dtype(t).itemsize)
        bits = (np.ones(1, dtype=dtype) << np.arange(g, dtype=dtype))[:, None]
        keys = (self.lo[cells] * bits).sum(axis=1, dtype=dtype)
        seen = np.zeros(n << g, dtype=bool)
        seen[keys + (np.arange(n, dtype=np.int64) << g)[:, None]] = True
        return np.count_nonzero(seen.reshape(n, 1 << g), axis=1)


@dataclass(frozen=True)
class LevelStats:
    """Search counters of one box size d."""

    d: int
    boxes: int         # boxes enumerated
    checked: int       # boxes passed on to check_shattered
    count_bound: bool  # too few witnesses for any d-box: the search ended here

    def to_doc(self) -> dict:
        return asdict(self)


def vc_k(f: MeasuredFunction, k: int, distinguished: int,
         r: float = 0.5, s: float = 0.5,
         cap: int = defaults.GRID_CAP) -> VcResult:
    """Largest d with a certified square d-box, searched d = 1, 2, ...

    Box enumeration is lexicographic over sorted vertex combinations, so the
    returned certificate sits on the lexicographically least maximal box.
    Each level is scanned in batches: a box goes to check_shattered, the
    only decider, unless its witnesses provably cover fewer than all grid
    subsets, and the search ends early when no d-box can have enough
    witnesses (the log-size bound).  When some value equals r = s neither
    shortcut applies and every box is checked.  Shattered boxes are downward closed, so
    a level without one ends the search.  When the grid cap stops the search
    before candidates are exhausted the result carries ``complete=False``
    and is a certified lower bound.
    """
    k, = indices((k,), "k", 1)
    distinguished, = indices((distinguished,), "distinguished coordinate")
    if f.arity != k + 1:
        raise InvalidArgumentError(f"vc_k needs arity k+1, got k={k} and arity {f.arity}")
    _check_search_args(r, s, cap)
    scan = _LevelScan(f, distinguished, r, s)
    max_batch = max(1, _BATCH_ENTRIES // scan.witnesses)
    dimension, certificate, levels = 0, None, []
    for d in range(1, min(scan.sizes) + 1):
        g = d ** k
        if g > cap:
            return VcResult(dimension, certificate, False, tuple(levels))
        if not scan.ties and scan.witnesses < 1 << g:
            levels.append(LevelStats(d, 0, 0, True))
            break
        boxes = itertools.product(*[itertools.combinations(range(n), d)
                                    for n in scan.sizes])
        found, scanned, checked, batch = None, 0, 0, _FIRST_BATCH
        while found is None:
            chunk = list(itertools.islice(boxes, min(batch, max_batch)))
            if not chunk:
                break
            scanned += len(chunk)
            if scan.ties:
                candidates = range(len(chunk))
            else:
                bound = scan.covered_bound(np.array(chunk, dtype=np.int64))
                candidates = np.flatnonzero(bound >= 1 << g)
            for j in candidates:
                checked += 1
                found = check_shattered(f, Box(chunk[j]), distinguished, r, s, cap=cap)
                if found is not None:
                    break
            batch *= 2
        levels.append(LevelStats(d, scanned, checked, False))
        if found is None:
            break
        dimension, certificate = d, found
    return VcResult(dimension, certificate, True, tuple(levels))


def vc_k_slicewise(f: MeasuredFunction, k: int, r: float = 0.5, s: float = 0.5,
                   cap: int = defaults.GRID_CAP) -> int:
    """Supremum of vc_k over all (k+1)-ary fibers and distinguished choices."""
    arity = f.arity
    k, = indices((k,), "k", 1, arity)
    best = 0
    for fixed_positions in itertools.combinations(range(arity), arity - (k + 1)):
        ranges = [range(f.shape[p]) for p in fixed_positions]
        for assignment in itertools.product(*ranges):
            sub = fiber(f, dict(zip(fixed_positions, assignment)))
            for dist in range(k + 1):
                best = max(best, vc_k(sub, k, dist, r, s, cap=cap).dimension)
    return best


def trace_count(E: MeasuredFunction, box: Box, distinguished: int) -> int:
    """Number of distinct intersections of the box grid with fibers of E."""
    if not E.is_boolean():
        raise InvalidArgumentError("trace_count needs a Boolean relation")
    return len(set(grid_masks(_grid_value_table(E, box, distinguished) == 1.0)))


def sauer_shelah_bound(m: int, k: int, z: int) -> int:
    """Sum of binomials C(m**k, i) for i < z, exact integer arithmetic."""
    m, k, z = indices((m,), "m", 1) + indices((k,), "k", 0) + indices((z,), "z", 1)
    cells = m ** k
    return sum(math.comb(cells, i) for i in range(z))
