"""Seeded generators for structured and adversarial test instances.

All randomness flows from one 64-bit seed through the counter-based streams
in :mod:`vck_lab.rng`, so identical configuration yields bit-identical
instances on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults, rng
from .errors import InvalidArgumentError, ResourceLimitError, indices, probability
from .space import PartiteSpace, Relation, check_grid, cylinder, index_sets


def membership_gadget(d: int, k: int) -> Relation:
    """Relation on [d]^k x P([d]^k) relating a grid point to the subsets
    containing it; shatters the full k-dimensional d-box by construction.

    The witness part enumerates subsets by bitmask over the row-major grid,
    so vertex j contains grid point i exactly when bit i of j is set.
    """
    d, k = indices((d, k), "d and k")
    if d < 1 or k < 1:
        raise InvalidArgumentError("need d >= 1 and k >= 1")
    # 2**g > cap iff g reaches the cap's bit length; d**k (d > 1) does once k does
    cap = defaults.GADGET_SIZE_CAP
    grid_points = d ** min(k, cap.bit_length())
    if grid_points >= cap.bit_length():
        raise ResourceLimitError(
            f"witness part would hold 2**({d}**{k}) vertices (cap {cap})")
    n_subsets = 1 << grid_points
    check_grid([d] * k + [n_subsets])
    parts = [f"V{i + 1}" for i in range(k)] + ["W"]
    space = PartiteSpace.uniform([d] * k + [n_subsets], parts)
    vals = np.arange(n_subsets) >> np.arange(grid_points)[:, None] & 1
    return Relation(space, tuple(range(k + 1)), vals.reshape((d,) * k + (n_subsets,)),
                    name=f"membership{d}x{k}")


@dataclass(frozen=True)
class GeneratedBoolean:
    relation: Relation
    leaves: tuple          # (positions, Relation) pairs, generation order
    expression: str        # printable form of the combining expression


def boolean_of_lower_arity(k_prime: int, k: int, m: int, sizes,
                           seed: int = 0) -> GeneratedBoolean:
    """Random Boolean combination of m cylinder-relation leaf occurrences.

    Each leaf is a Bernoulli(1/2) relation on a random coordinate set of
    size <= k, extended cylindrically; the combining tree splits the leaf
    budget in two at random, level by level, with random and/or connectives
    and leaf-level negations.  m = 0 yields a constant relation.  The
    generating leaves are returned for oracle use.

    Stream layout: counter 3*i for leaf i's coordinate set, 3*i+1 for its
    tensor, 3*i+2 for tree shaping bits.
    """
    k_prime, k, m = indices((k_prime, k, m), "k', k and m")
    if k < 1 or m < 0:
        raise InvalidArgumentError(f"need k >= 1 and m >= 0, got k={k}, m={m}")
    if k_prime <= k:
        raise InvalidArgumentError(f"k'={k_prime} must exceed k={k}")
    sizes = indices(sizes, "part sizes")
    if len(sizes) != k_prime:
        raise InvalidArgumentError(f"need {k_prime} part sizes, got {len(sizes)}")
    # a full-grid mask per node of the combining tree (2m - 1 of them, or
    # one constant), and the relation
    check_grid(sizes, max(2 * m, 2))
    space = PartiteSpace.uniform(sizes)
    all_I = index_sets(k_prime, k)

    picks = rng.integers(seed, rng.STREAM_BOOLCOMB, 1, len(all_I), range(0, 3 * m, 3))[:, 0]
    tensors = {}  # leaf -> its tensor, drawn in one call per coordinate set
    for pick in set(picks.tolist()):
        same = np.flatnonzero(picks == pick).tolist()
        shape = tuple(sizes[p] for p in all_I[pick])
        tensors.update(zip(same, rng.bernoulli(seed, rng.STREAM_BOOLCOMB, shape, 0.5,
                                               [3 * i + 1 for i in same])))
    leaves = []
    leaf_tensors = []
    for i, pick in enumerate(picks.tolist()):
        positions = all_I[pick]
        rel = Relation(space, positions, tensors[i], name=f"g{i}")
        leaves.append((positions, rel))
        leaf_tensors.append(np.broadcast_to(cylinder(rel.bool_values, positions, k_prime),
                                            sizes))

    shape_bits = rng.integers(seed, rng.STREAM_BOOLCOMB, max(1, 8 * m), 2, 2)

    bit_pos = 0

    def next_bit() -> int:
        nonlocal bit_pos
        b = int(shape_bits[bit_pos % len(shape_bits)])
        bit_pos += 1
        return b

    # The tree, built without recursion (a split peels one leaf off, so it
    # can be m deep): a leaf range splits at 1 + bit * (size - 2), its two
    # halves are built in order and then joined by an and/or bit, which is
    # the order the bits are drawn in.  A bare leaf draws its negation bit;
    # only m = 0 reaches the empty range, a constant.
    built = []        # (mask, text) of finished subtrees, left to right
    todo = [(0, m)]   # leaf ranges to build, and None for a pending join
    while todo:
        job = todo.pop()
        if job is None:
            (left, ltext), (right, rtext) = built[-2:]
            del built[-2:]
            if next_bit():
                built.append((left & right, f"({ltext}&{rtext})"))
            else:
                built.append((left | right, f"({ltext}|{rtext})"))
            continue
        lo, hi = job
        if lo == hi:
            value = bool(next_bit())
            built.append((np.full(sizes, value), "1" if value else "0"))
        elif hi - lo == 1:
            mask, text = leaf_tensors[lo], f"g{lo}"
            built.append((~mask, f"~{text}") if next_bit() else (mask, text))
        else:
            split = lo + 1 + (next_bit() * (hi - lo - 2) if hi - lo > 2 else 0)
            todo += [None, (split, hi), (lo, split)]

    (mask, text), = built
    rel = Relation.from_bool(space, tuple(range(k_prime)), mask, name="boolcomb")
    return GeneratedBoolean(rel, tuple(leaves), text)


@dataclass(frozen=True)
class ParityTriple:
    relation: Relation     # ternary: odd number of the three pair relations hold
    F: Relation            # on coordinates (0, 1)
    G: Relation            # on coordinates (0, 2)
    H: Relation            # on coordinates (1, 2)


def parity_relation(F: Relation, G: Relation, H: Relation,
                    name: str = "parity") -> Relation:
    """Triples where an odd number of (x,y) in F, (x,z) in G, (y,z) in H hold."""
    total = (cylinder(F.values, (0, 1), 3) + cylinder(G.values, (0, 2), 3)
             + cylinder(H.values, (1, 2), 3))
    return Relation(F.space, (0, 1, 2), np.mod(total, 2.0), name=name)


def parity_triple(n: int, seed: int = 0) -> ParityTriple:
    """Ternary parity of three Bernoulli(1/2) binary relations on [n]^3.

    Stream layout: counters 0, 1, 2 for F, G, H."""
    check_grid([n, n, n])
    space = PartiteSpace.uniform([n, n, n])
    F, G, H = (Relation(space, positions, vals, name=name) for positions, vals, name in zip(
        ((0, 1), (0, 2), (1, 2)), rng.bernoulli(seed, rng.STREAM_PARITY, (n, n), 0.5, [0, 1, 2]),
        "FGH"))
    return ParityTriple(parity_relation(F, G, H, name=f"parity{n}"), F, G, H)


def quasirandom(space: PartiteSpace, signature, p: float, seed: int = 0,
                name: str = "R") -> Relation:
    """I.i.d. Bernoulli(p) relation on the given signature."""
    probability(p)
    sig = space.validate_signature(signature)
    check_grid(space.sizes(sig))
    vals = rng.bernoulli(seed, rng.STREAM_QUASIRANDOM, space.sizes(sig), p)
    return Relation(space, sig, vals, name=name)
