"""Shattering certificates and their checker, on the standard library alone.

The certificate type lives here: the search (``vck``) builds it, and this
module writes it (``to_doc``), reads it (:func:`read_certificate`) and rules
on it (:func:`shatters`).  ``vck-lab verify`` runs this module and nothing
of the search it checks: it imports no numpy, no ``space`` and no ``vck``.
The instance is read by the library loader's own parse
(``serialize.parse_instance``) and checked by the instance rules the
function model applies (``errors.part_weights``, ``distinct_names`` and
``value_bounds``), shared, not restated: both refuse alike, with one message,
and clip values within tolerance alike.  A certificate's integer fields must
be JSON integers, its sides and thresholds obey :func:`box_side` and
:func:`thresholds`, its grid has at most ``GRID_CAP_MAX`` points, and its
subset points lie in the box.  Each witness condition is the same float test,
f <= r on the subset and f >= s off it; anything else wrong makes it invalid.
"""

from __future__ import annotations

import collections
import itertools
import math
from fractions import Fraction

from .defaults import GRID_CAP_MAX
from .errors import (InvalidArgumentError, distinct_names, indices, part_weights,
                     value_bounds)
from .serialize import check_keys, json_int, parse_fraction, parse_instance, reading


class ShatteringCertificate:
    """Claim that a box is (r, s)-shattered: the box sides as vertex tuples,
    the distinguished coordinate, the thresholds and one (subset mask,
    witness) pair per subset in mask order, bit i of a mask being grid point
    i in row-major order.  Its sides obey :func:`box_side` and its
    thresholds :func:`thresholds`; :func:`shatters` rules on the claim."""

    __slots__ = ("box", "distinguished", "r", "s", "witnesses")

    def __init__(self, box, distinguished, r, s, witnesses):
        self.box = tuple(map(box_side, box))
        self.distinguished = distinguished
        self.r, self.s = thresholds(r, s)
        self.witnesses = tuple(sorted(witnesses))

    def to_doc(self) -> dict:
        grid = list(itertools.product(*self.box))
        return {"box": [list(side) for side in self.box],
                "distinguished": self.distinguished,
                "r": Fraction(self.r), "s": Fraction(self.s),
                "witnesses": [{"subset": [list(point) for i, point in enumerate(grid)
                                          if mask >> i & 1],
                               "witness": b} for mask, b in self.witnesses]}


def box_side(side) -> tuple:
    """A box side as a tuple of vertices, refused if empty or repeating one."""
    side = indices(side, "box vertices")
    if not side:
        raise InvalidArgumentError("box sides must be non-empty")
    if len(set(side)) != len(side):
        raise InvalidArgumentError(f"duplicate vertices in box side {side}")
    return side


def thresholds(r, s) -> tuple:
    """(r, s) as floats, refused unless both are finite and r <= s."""
    if not (math.isfinite(r) and math.isfinite(s) and r <= s):
        raise InvalidArgumentError(f"thresholds must be finite with r <= s, got r={r}, s={s}")
    return float(r), float(s)


# a function record as read: its row-major values, clipped to range
Function = collections.namedtuple("Function", "name signature shape values")


@reading("certificate document")
def read_certificate(doc) -> ShatteringCertificate:
    check_keys(doc, {"box", "distinguished", "r", "s", "witnesses"}, "certificate document")
    box = tuple(box_side([json_int(v, "box vertex") for v in side]) for side in doc["box"])
    g = math.prod(len(side) for side in box)
    if g > GRID_CAP_MAX:
        raise InvalidArgumentError(f"certificate box has {g} grid "
                                   f"points (at most {GRID_CAP_MAX})")
    grid_index = {point: i for i, point in enumerate(itertools.product(*box))}
    witnesses = []
    for j, rec in enumerate(doc["witnesses"]):
        check_keys(rec, {"subset", "witness"}, f"certificate document: witness record {j}")
        mask = 0
        for pt in rec["subset"]:
            point = tuple(json_int(v, "subset point coordinate") for v in pt)
            if point not in grid_index:
                raise InvalidArgumentError(f"subset point {pt} lies outside the box")
            mask |= 1 << grid_index[point]
        witnesses.append((mask, json_int(rec["witness"], "witness")))
    return ShatteringCertificate(box, json_int(doc["distinguished"], "distinguished"),
                                 parse_fraction(doc["r"]), parse_fraction(doc["s"]),
                                 witnesses)


def read_instance(doc) -> list:
    """Every function of an instance document, each checked."""
    return parse_instance(doc, _check_parts, _checked_function)[1]


def _check_parts(parts) -> None:
    for part in parts:
        part_weights(*part)
    distinct_names([name for name, _, _ in parts])


def _checked_function(_space, name, signature, shape, values, signed) -> Function:
    """The function with its values clipped to range, as the function model clips them."""
    low, high = min(values), max(values)
    lo, hi = value_bounds(name, all(map(math.isfinite, values)), low, high, signed)
    if low < lo or high > hi:
        values = [min(max(v, lo), hi) for v in values]
    return Function(name, signature, shape, values)


def shatters(values, shape, cert: ShatteringCertificate) -> bool:
    """True when the certificate's (mask, witness) pairs list every subset
    of its box grid once and each witness b has f <= r on its subset and
    f >= s off it, where f is read from its row-major ``values`` of the
    given shape.  A box, distinguished coordinate or witness out of range
    makes it false."""
    box, distinguished, r, s = cert.box, cert.distinguished, cert.r, cert.s
    g = math.prod(len(side) for side in box)
    masks = [mask for mask, _ in cert.witnesses]
    if len(masks) != 1 << g or set(masks) != set(range(1 << g)):
        return False
    arity = len(shape)
    if not 0 <= distinguished < arity:
        return False
    positions = [p for p in range(arity) if p != distinguished]
    if len(box) != len(positions):
        return False
    if any(not 0 <= v < shape[p] for side, p in zip(box, positions) for v in side):
        return False
    strides = [math.prod(shape[p + 1:]) for p in range(arity)]
    offsets = [sum(v * strides[p] for v, p in zip(point, positions))
               for point in itertools.product(*box)]
    for mask, b in cert.witnesses:
        if not 0 <= b < shape[distinguished]:
            return False
        base = b * strides[distinguished]
        for i, offset in enumerate(offsets):
            value = values[base + offset]
            if not (value <= r if mask >> i & 1 else value >= s):
                return False
    return True
