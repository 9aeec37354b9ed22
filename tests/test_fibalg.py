"""Fiber families, atom partitions, projections, and the diagnostic lemmas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vck_lab import (FiberFamilySpec, MeasuredFunction, PartiteSpace, Relation,
                     atoms, fiber_family, fuzziness, integrate,
                     l2_distance, membership_gadget, project_simple,
                     round_to_cells)
from vck_lab.fibalg import conditional_means, family_size
from vck_lab.errors import InvalidArgumentError

from oracles import atom_cells_oracle, fiber_family_oracle


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
    distinct = {rel.values.tobytes() for rel in fam}
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
    got = {rel.values.tobytes() for rel in fam}
    for b in range(16):
        for a in (0, 1):
            # indicator of {y : (a, y) in subset b}, constant along axis 0
            col = np.array([1.0 - float(b >> (2 * a + y) & 1) for y in (0, 1)])
            # level set chi < 1/2 is the complement of membership
            expected = np.broadcast_to(col[None, :], (2, 2)).copy()
            assert expected.tobytes() in got


@st.composite
def _family_cases(draw):
    """A small function, values on and off the dyadic thresholds, and a spec
    whose anchors and substitutions may fall outside their coordinates."""
    arity = draw(st.sampled_from([2, 3, 3, 4]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=arity, max_size=arity))
    values = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.3, 0.5, 0.75, 1.0]),
                                    min_size=math.prod(sizes), max_size=math.prod(sizes))))
    space = PartiteSpace.uniform(sizes)
    f = MeasuredFunction(space, tuple(range(len(sizes))), values.reshape(sizes), name="h")
    k = len(sizes) - 1
    rows = [draw(st.lists(st.integers(0, sizes[i] - 1), min_size=1, max_size=3))
            for i in range(k)]
    anchors = draw(st.lists(st.integers(0, sizes[-1] - 1), min_size=1, max_size=3))
    # at most one fault: a vertex just outside its coordinate, or a row too many
    fault = draw(st.sampled_from([None, None, None, "anchor", "param", "rows"]))
    if fault == "anchor":
        anchors[draw(st.integers(0, len(anchors) - 1))] = draw(
            st.sampled_from([-1, sizes[-1]]))
    elif fault == "param":
        i = draw(st.integers(0, k - 1))
        rows[i].insert(draw(st.integers(0, len(rows[i]))),
                       draw(st.sampled_from([-1, sizes[i]])))
    elif fault == "rows":
        rows.append([0])
    return f, FiberFamilySpec(draw(st.integers(1, 2)), anchors, rows)


def _outcome(build, f, spec):
    try:
        return [(g.name, g.signature, g.values.tobytes(), type(g)) for g in build(f, spec)]
    except InvalidArgumentError as exc:
        return ("refused", str(exc))


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
    # a slice is a family too, as a list's slice is a list
    assert [g.values.tobytes() for g in family[1::2]] == [g.values.tobytes()
                                                          for g in list(family)[1::2]]


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


# -- fuzziness --------------------------------------------------------------------------

def test_fuzziness_none_when_measurable():
    space = PartiteSpace.uniform([4])
    A = Relation.from_bool(space, (0,), np.array([1, 1, 0, 0]) == 1)
    part = atoms([A])
    assert fuzziness(A, part, 0.05) is None


def test_fuzziness_none_for_constant():
    f = MeasuredFunction.constant(PartiteSpace.uniform([4]), (0,), 0.5)
    part = atoms([], space=f.space, signature=(0,))
    assert fuzziness(f, part, 0.01) is None


def test_fuzziness_half_half_witness():
    space = PartiteSpace.uniform([4])
    f = MeasuredFunction(space, (0,), np.array([0.0, 0.0, 1.0, 1.0]))
    part = atoms([], space=space, signature=(0,))
    w = fuzziness(f, part, 0.1)
    assert w is not None
    assert float(w.r) <= 0.5 < float(w.s)
    assert w.delta >= 0.5
    assert w.fuzzy_measure == 1.0


def test_fuzziness_witness_verifies():
    for seed in range(5):
        f = random_function([5, 3], seed)
        part = atoms([random_relation([5, 3], 300 + seed)])
        w = fuzziness(f, part, 0.05)
        if w is None:
            continue
        # recompute the displayed inequality exactly
        wflat = f.space.weight_tensor(f.signature).ravel()
        fflat = f.values.ravel()
        fuzzy_mass = 0.0
        for cell in part.cells:
            wsum = math.fsum(wflat[cell].tolist())
            if wsum == 0:
                continue
            lo = math.fsum((wflat[cell] * (fflat[cell] < float(w.r))).tolist()) / wsum
            hi = math.fsum((wflat[cell] * (fflat[cell] >= float(w.s))).tolist()) / wsum
            if min(lo, hi) >= w.delta:
                fuzzy_mass += wsum
        assert fuzzy_mass >= w.delta


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
