"""Fiber families, atom partitions, projections, rounding, and anchor search."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vck_lab import (FiberFamilySpec, MeasuredFunction, Part, PartiteSpace, Relation,
                     approx_by_fibers, atoms, fiber_family, integrate, l2_distance,
                     membership_gadget, project_simple, quasirandom, round_to_cells)
from vck_lab import defaults
from vck_lab import space as space_module
from vck_lab.fibalg import AtomPartition, conditional_means, family_size
from vck_lab.errors import InvalidArgumentError, ResourceLimitError

from oracles import (approx_by_fibers_oracle, atom_cells_oracle, conditional_means_oracle,
                     fiber_family_oracle)


def random_function(sizes, seed):
    space = PartiteSpace.uniform(sizes)
    sig = tuple(range(len(sizes)))
    return MeasuredFunction(space, sig, np.random.default_rng(seed).random(space.sizes(sig)))


def random_relation(sizes, seed, p=0.5):
    space = PartiteSpace.uniform(sizes)
    sig = tuple(range(len(sizes)))
    return Relation.from_bool(space, sig,
                              np.random.default_rng(seed).random(space.sizes(sig)) < p)


# -- fiber families ---------------------------------------------------------------

def test_family_count_matches_formula():
    f = random_function([3, 3, 4], 0)  # k = 2, distinguished last
    spec = FiberFamilySpec(1, anchors=(0,), params=((0, 1), (2,)))
    fam = fiber_family(f, spec)
    # |Q_1| = 3 thresholds; I in {{0},{1}}: 2 + 1 substitution choices; 1 anchor
    assert len(fam) == 3 * (2 + 1) * 1 == family_size(spec, 2)


def test_family_of_zero_function_collapses():
    space = PartiteSpace.uniform([3, 3, 2])
    f = MeasuredFunction.constant(space, (0, 1, 2), 0.0)
    fam = fiber_family(f, FiberFamilySpec(2, (0, 1), ((0, 1, 2), (0, 1, 2))))
    distinct = {row.tobytes() for row in fam.masks}
    assert len(distinct) <= 2


def test_family_empty_anchors_rejected():
    f = random_function([3, 3, 4], 1)
    with pytest.raises(InvalidArgumentError):
        fiber_family(f, FiberFamilySpec(1, (), ((0,), (0,))))


def test_membership_gadget_fibers_reproduce_column_indicators():
    # direct construction: substituting the first grid coordinate of the
    # 2-dimensional gadget yields every column indicator of every subset
    g = membership_gadget(2, 2)  # parts [2], [2], [16]
    spec = FiberFamilySpec(1, anchors=tuple(range(16)), params=((0, 1), (0, 1)))
    fam = fiber_family(g, spec)
    got = {row.tobytes() for row in fam.masks}
    for b in range(16):
        for a in (0, 1):
            # level set chi < 1/2 is the complement of membership: the
            # indicator of {y : (a, y) not in subset b}, constant along axis 0
            col = np.array([not b >> (2 * a + y) & 1 for y in (0, 1)])
            assert np.broadcast_to(col[None, :], (2, 2)).tobytes() in got


def _draw_function(draw, sizes):
    """A function on the grid with values on and off the dyadic thresholds."""
    values = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.3, 0.5, 0.75, 1.0]),
                                    min_size=math.prod(sizes), max_size=math.prod(sizes))))
    return MeasuredFunction(PartiteSpace.uniform(sizes), tuple(range(len(sizes))),
                            values.reshape(sizes), name="h")


@st.composite
def _family_cases(draw):
    """A small function, values on and off the dyadic thresholds, and a spec
    whose anchors and substitutions may fall outside their coordinates."""
    arity = draw(st.sampled_from([2, 3, 3, 4]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=arity, max_size=arity))
    f = _draw_function(draw, sizes)
    k = len(sizes) - 1
    rows = [draw(st.lists(st.integers(0, sizes[i] - 1), min_size=1, max_size=3))
            for i in range(k)]
    anchors = draw(st.lists(st.integers(0, sizes[-1] - 1), min_size=1, max_size=3))
    # at most one fault: a vertex just outside its coordinate, a row too
    # many, or an empty row
    fault = draw(st.sampled_from([None, None, None, "anchor", "param", "rows", "empty"]))
    if fault == "anchor":
        anchors[draw(st.integers(0, len(anchors) - 1))] = draw(
            st.sampled_from([-1, sizes[-1]]))
    elif fault == "param":
        i = draw(st.integers(0, k - 1))
        rows[i].insert(draw(st.integers(0, len(rows[i]))),
                       draw(st.sampled_from([-1, sizes[i]])))
    elif fault == "rows":
        rows.append([0])
    elif fault == "empty":
        rows[draw(st.integers(0, k - 1))] = []
    return f, FiberFamilySpec(draw(st.integers(1, 2)), anchors, rows)


def _outcome(build, f, spec):
    """Per generator its name, signature and flat 0/1 row, or the refusal."""
    try:
        family = build(f, spec)
    except InvalidArgumentError as exc:
        return ("refused", str(exc))
    if isinstance(family, list):  # the oracle's relations
        assert all(type(g) is Relation for g in family)
        return [(g.name, g.signature, (g.values.ravel() == 1.0).tobytes()) for g in family]
    return [(name, family.signature, row.tobytes())
            for name, row in zip(family.names, family.masks)]


@given(_family_cases())
@settings(max_examples=150, deadline=None)
def test_family_matches_per_threshold_oracle(case):
    f, spec = case
    assert _outcome(fiber_family, f, spec) == _outcome(fiber_family_oracle, f, spec)


@given(_family_cases())
@settings(max_examples=100, deadline=None)
def test_stacked_family_atoms_match_the_oracle_relations(case):
    # atoms read the stacked masks; the oracle's relations go through the list path
    f, spec = case
    try:
        family = fiber_family(f, spec)
    except InvalidArgumentError:
        return
    expected = atoms(fiber_family_oracle(f, spec), f.space, f.signature[:-1])
    got = atoms(family)
    assert (got.signature, got.generator_names) == (expected.signature,
                                                    expected.generator_names)
    assert np.array_equal(got.labels, expected.labels)
    assert not family.masks.flags.writeable
    assert family.masks.shape == (len(family), math.prod(f.shape[:-1]))


# -- atoms --------------------------------------------------------------------------

def test_atoms_no_generators_single_cell():
    space = PartiteSpace.uniform([3, 2])
    part = atoms([], space=space, signature=(0, 1))
    assert part.cell_count == 1
    assert part.covers((3, 2))


def test_atoms_single_generator_two_cells():
    A = random_relation([4], 3)
    part = atoms([A])
    assert part.cell_count == (2 if 0 < A.values.sum() < 4 else 1)
    for cell in part.cells:
        vals = A.values.ravel()[cell]
        assert len(set(vals.tolist())) == 1


def test_atoms_singleton_generators_give_singletons():
    space = PartiteSpace.uniform([4])
    gens = [Relation.from_bool(space, (0,), np.arange(4) == i, name=f"s{i}")
            for i in range(4)]
    part = atoms(gens)
    assert part.cell_count == 4
    assert all(len(c) == 1 for c in part.cells)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_label_partition_matches_per_point_oracle(data):
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    space = PartiteSpace.uniform(sizes)
    sig = tuple(range(len(sizes)))
    total = math.prod(sizes)
    gens = []
    for kind in data.draw(st.lists(st.sampled_from(["random", "zero", "one", "duplicate"]),
                                   max_size=6)):
        if kind == "duplicate" and gens:
            vals = data.draw(st.sampled_from(gens)).values
        elif kind == "random":
            vals = np.array(data.draw(st.lists(st.booleans(), min_size=total,
                                               max_size=total))).reshape(sizes)
        else:
            vals = np.full(sizes, kind == "one")
        gens.append(Relation.from_bool(space, sig, vals, name=f"g{len(gens)}"))
    part = atoms(gens, space=space, signature=sig)
    cells = atom_cells_oracle(gens, total)
    assert [c.tolist() for c in part.cells] == cells
    assert part.cell_count == len(cells) and part.covers(tuple(sizes))

    # projection and rounding spread the cell means as a per-cell loop does
    f = MeasuredFunction(space, sig, np.random.default_rng(
        data.draw(st.integers(0, 2 ** 32 - 1))).random(sizes))
    means = conditional_means(f.values.ravel(), part,
                              space.weight_tensor(sig).ravel())
    threshold = data.draw(st.floats(0.0, 1.0))
    spread = np.zeros(total)
    above = np.zeros(total, dtype=bool)
    for mean, cell in zip(means, cells):
        spread[cell] = mean
        above[cell] = mean > threshold
    assert np.array_equal(project_simple(f, part)[0].values.ravel(), spread)
    assert np.array_equal(round_to_cells(f, part, threshold).values.ravel(), above)


def test_generators_are_unions_of_atoms():
    gens = [random_relation([4, 4], s) for s in range(3)]
    part = atoms(gens)
    for g in gens:
        flat = g.values.ravel()
        for cell in part.cells:
            assert len(set(flat[cell].tolist())) == 1


# -- projection -----------------------------------------------------------------------

def test_project_on_singletons_is_identity():
    f = random_function([4], 5)
    space = f.space
    gens = [Relation.from_bool(space, (0,), np.arange(4) == i) for i in range(4)]
    g, err = project_simple(f, atoms(gens))
    assert np.array_equal(g.values, f.values)
    assert err == 0.0


def test_project_on_whole_grid_is_mean():
    f = random_function([4, 3], 6)
    part = atoms([], space=f.space, signature=f.signature)
    g, err = project_simple(f, part)
    assert np.allclose(g.values, integrate(f), atol=1e-14)
    assert err == pytest.approx(l2_distance(f, g), abs=0)


def test_project_matches_naive_cell_mean_oracle():
    f = random_function([4, 4], 7)
    gens = [random_relation([4, 4], 70 + s) for s in range(3)]
    part = atoms(gens)
    g, err = project_simple(f, part)
    wflat = f.space.weight_tensor(f.signature).ravel()
    fflat = f.values.ravel()
    for cell in part.cells:
        wsum = math.fsum(wflat[cell].tolist())
        mean = math.fsum((wflat[cell] * fflat[cell]).tolist()) / wsum
        assert np.allclose(g.values.ravel()[cell], mean, atol=1e-12)


@st.composite
def _weighted_partitions(draw):
    """A signed function on 1-2 parts of 1-4 vertices, each part's weights
    rational (some zero) or random floats, and cell labels over its grid
    that may skip numbers; one cell may be made all zero weight."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    parts = []
    for i, n in enumerate(sizes):
        if draw(st.booleans()):
            counts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
            weights = tuple(Fraction(c, sum(counts)) for c in counts)
        else:
            raw = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).random(n) + 1e-3
            weights = tuple((raw / math.fsum(raw.tolist())).tolist())
        parts.append(Part(f"V{i}", n, weights))
    space = PartiteSpace(tuple(parts))
    sig = tuple(range(len(sizes)))
    total = math.prod(sizes)
    values = draw(st.lists(st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0]),
                                     st.floats(-1.0, 1.0)), min_size=total, max_size=total))
    f = MeasuredFunction(space, sig, np.reshape(values, sizes), name="s", signed=True)
    labels = np.array(draw(st.lists(st.integers(0, 2 * total), min_size=total,
                                    max_size=total)))
    wflat = space.weight_tensor(sig).ravel()
    null = draw(st.integers(0, total - 1))
    if draw(st.booleans()) and np.any(wflat[labels != labels[null]] > 0):
        wflat = np.where(labels == labels[null], 0.0, wflat)
    return f, AtomPartition(space, sig, labels), wflat, draw(st.floats(-1.0, 1.0))


@given(_weighted_partitions())
@settings(max_examples=200, deadline=None)
def test_cell_means_match_the_per_cell_loop_bit_for_bit(case):
    f, part, wflat, threshold = case
    flat = f.values.ravel()
    assert (conditional_means(flat, part, wflat).tobytes()
            == conditional_means_oracle(flat, part, wflat).tobytes())
    means = conditional_means_oracle(flat, part, f.space.weight_tensor(f.signature).ravel())
    assert (project_simple(f, part)[0].values.ravel().tobytes()
            == means[part.labels].tobytes())
    assert np.array_equal(round_to_cells(f, part, threshold).values.ravel(),
                          means[part.labels] > threshold)


def test_cell_means_take_no_weighted_sum_and_no_cell_arrays(monkeypatch):
    f = random_function([6, 6], 8)
    part = atoms([random_relation([6, 6], 80 + s) for s in range(3)])
    calls = []
    real = space_module.weighted_sum
    monkeypatch.setattr(space_module, "weighted_sum",
                        lambda *factors: calls.append(1) or real(*factors))
    conditional_means(f.values.ravel(), part, f.space.weight_tensor(f.signature).ravel())
    round_to_cells(f, part, 0.5)
    assert not calls
    project_simple(f, part)
    assert len(calls) == 1  # its L2 error
    order = part.cell_order
    round_to_cells(f, part, 0.25)
    assert part.cell_order is order and "cells" not in vars(part)


def test_projection_first_order_optimality():
    for seed in range(10):
        f = random_function([4, 4], seed)
        gens = [random_relation([4, 4], 200 + seed * 3 + s) for s in range(2)]
        part = atoms(gens)
        g, err = project_simple(f, part)
        for ci in range(part.cell_count):
            for delta in (1e-3, -1e-3):
                perturbed = np.array(g.values.ravel())
                cell = part.cells[ci]
                perturbed[cell] = np.clip(perturbed[cell] + delta, 0.0, 1.0)
                h = MeasuredFunction(f.space, f.signature,
                                     perturbed.reshape(f.shape))
                if not np.array_equal(h.values, g.values):
                    assert l2_distance(f, h) > err


# -- union-of-cells rounding ---------------------------------------------------------------

def test_round_to_cells_three_eps_bound():
    rng = np.random.default_rng(2)
    for trial in range(20):
        space = PartiteSpace.uniform([5, 5])
        gens = [Relation.from_bool(space, (0, 1), rng.random((5, 5)) < 0.5)
                for _ in range(2)]
        part = atoms(gens)
        # X = union of cells plus a small flip
        base = np.zeros(25, dtype=bool)
        for cell in part.cells:
            if rng.random() < 0.5:
                base[cell] = True
        flip = rng.integers(0, 25)
        base[flip] = ~base[flip]
        X = Relation.from_bool(space, (0, 1), base.reshape(5, 5))
        proj, h = project_simple(X, part)
        eps = math.sqrt(2 * h) if h > 0 else 0.05
        Y = round_to_cells(X, part, eps)
        assert l2_distance(X, Y) <= 3 * eps + 1e-12


# -- anchor search ----------------------------------------------------------------------

def _approx_outcome(search, f, eps, budget, height, params):
    try:
        rep = search(f, eps, budget, height, params)
    except (InvalidArgumentError, ResourceLimitError) as exc:
        return type(exc), str(exc)
    return rep.anchors, rep.max_error.hex(), rep.met_epsilon, tuple(
        (x, e.hex()) for x, e in rep.per_fiber)


@st.composite
def _approx_cases(draw):
    """A 2- or 3-ary function, values on and off the dyadic thresholds, eps,
    a budget, a dyadic height and parameter rows; at most one is refused."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
    f = _draw_function(draw, sizes)
    rows = [draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)) for n in sizes[:-1]]
    eps = draw(st.sampled_from([0.0, 0.0, 0.0, 0.01, 0.1]))
    budget = draw(st.sampled_from([0, 1, 2, 3, 3, 4]))
    height = draw(st.integers(1, 2))
    fault = draw(st.sampled_from([None] * 8 + ["param", "empty", "eps", "budget", "height"]))
    if fault == "param":
        rows[-1].append(sizes[len(rows) - 1])
    elif fault == "empty":
        rows[-1] = []
    elif fault == "eps":
        eps = draw(st.sampled_from([math.nan, math.inf, -0.1, True, "0.1"]))
    elif fault == "budget":
        budget = draw(st.sampled_from([-1, 2.5, True]))
    elif fault == "height":
        height = draw(st.sampled_from([0, -1, 1.0, True]))
    return f, eps, budget, height, rows


@given(_approx_cases())
@settings(max_examples=100, deadline=None)
def test_approx_by_fibers_matches_the_relation_oracle(case):
    assert (_approx_outcome(approx_by_fibers, *case)
            == _approx_outcome(approx_by_fibers_oracle, *case))


def test_approx_by_fibers_refuses_the_family_where_the_oracle_does(monkeypatch):
    # 6 rows of 16 cells per anchor: a cap of 192 entries admits the family
    # at (one anchor + x) and refuses it at (two anchors + x), in round 2,
    # the last round a budget of 2 allows; unrefused, the search would
    # end there with eps 0 unmet
    space = PartiteSpace.uniform([4, 4, 6])
    E = quasirandom(space, (0, 1, 2), 0.5, seed=4)
    monkeypatch.setattr(defaults, "ARRAY_CAP", 192)
    got = _approx_outcome(approx_by_fibers, E, 0.0, 2, 1, ((0,), (0,)))
    assert got == (ResourceLimitError, "fiber family would build 288 entries (cap 192)")
    assert got == _approx_outcome(approx_by_fibers_oracle, E, 0.0, 2, 1, ((0,), (0,)))


@pytest.mark.parametrize("budget", [2, 4])
def test_approx_by_fibers_stops_when_the_worst_vertex_is_an_anchor(budget):
    # column 0 = (0.3, 0.4) sits inside one dyadic bin of height 2, so its
    # level sets split nothing; picking vertex 0 again would add no generator
    values = np.full((2, 3), 0.5)
    values[:, 0] = (0.3, 0.4)
    f = MeasuredFunction(PartiteSpace.uniform([2, 3]), (0, 1), values)
    once = approx_by_fibers(f, 0.01, 1, 2, ((0,),))
    rep = approx_by_fibers(f, 0.01, budget, 2, ((0,),))
    assert once.anchors == rep.anchors == (0,)
    assert rep.max_error == once.max_error == pytest.approx(0.05)
    assert not rep.met_epsilon and rep.per_fiber == once.per_fiber
    assert (_approx_outcome(approx_by_fibers, f, 0.01, budget, 2, ((0,),))
            == _approx_outcome(approx_by_fibers_oracle, f, 0.01, budget, 2, ((0,),)))
