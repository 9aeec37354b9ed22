"""Ground-set, measure, and elementary-transform tests."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vck_lab import (MeasuredFunction, PartiteSpace, Relation, all_traversals,
                     average_out, fiber, integrate, l2_distance, level_set)
from vck_lab.errors import InvalidArgumentError


def random_function(sizes, seed, signature=None):
    space = PartiteSpace.uniform(sizes)
    sig = tuple(signature) if signature else tuple(range(len(sizes)))
    vals = np.random.default_rng(seed).random(space.sizes(sig))
    return MeasuredFunction(space, sig, vals)


# -- construction invariants -------------------------------------------------

def test_weights_must_sum_to_one():
    with pytest.raises(InvalidArgumentError):
        PartiteSpace((__import__("vck_lab").Part("V1", 2, (0.5, 0.6)),))


def test_duplicate_part_names_rejected():
    from vck_lab import Part
    with pytest.raises(InvalidArgumentError):
        PartiteSpace((Part.uniform("V", 2), Part.uniform("V", 3)))


def test_uniform_part_of_size_zero_is_refused_by_the_part_rule():
    with pytest.raises(InvalidArgumentError, match="part 'V1': size must be >= 1"):
        PartiteSpace.uniform([0, 2])


def test_values_out_of_range_rejected():
    space = PartiteSpace.uniform([2])
    with pytest.raises(InvalidArgumentError):
        MeasuredFunction(space, (0,), np.array([0.5, 1.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weights_rejected(bad):
    from vck_lab import Part
    with pytest.raises(InvalidArgumentError):
        Part("a", 2, (bad, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_rejected(bad):
    space = PartiteSpace.uniform([2])
    with pytest.raises(InvalidArgumentError):
        MeasuredFunction(space, (0,), np.array([0.5, bad]))


def test_signature_entries_must_be_integers():
    # int() would truncate (0.7, 1.9) to (0, 1); numpy integers still pass
    space = PartiteSpace.uniform([2, 3])
    for bad in ((0.7, 1.9), (0, 1.0), ("0", 1)):
        with pytest.raises(InvalidArgumentError, match="integers"):
            MeasuredFunction(space, bad, np.zeros((2, 3)))
    f = MeasuredFunction(space, (np.int64(0), np.uint8(1)), np.zeros((2, 3)))
    assert f.signature == (0, 1) and all(type(i) is int for i in f.signature)
    with pytest.raises(InvalidArgumentError, match=r"must be in \[0, 2\), got 2"):
        space.validate_signature([np.int32(2)])


def test_parts_and_spaces_hash_like_their_json_round_trip():
    from fractions import Fraction
    from vck_lab import Part
    from vck_lab.serialize import functions_from_doc, space_to_doc
    exact = PartiteSpace((Part("a", 3, (Fraction(1, 3), Fraction(1, 6), Fraction(1, 2))),
                          Part.uniform("b", 2)))
    loaded, _ = functions_from_doc(space_to_doc(exact))
    assert loaded == exact and hash(loaded) == hash(exact)
    assert hash(Part("a", 2, (0.5, 0.5))) == hash(Part.uniform("a", 2))
    assert len({exact, loaded, PartiteSpace.uniform([3, 2])}) == 2


def test_fraction_weights_sum_exactly():
    from fractions import Fraction
    from vck_lab import Part
    third = Fraction(1, 3)
    # within the tolerance, and just beyond it, of 1
    Part("a", 3, (third, third, third + Fraction(1, 10 ** 15)))
    with pytest.raises(InvalidArgumentError):
        Part("a", 3, (third, third, third + Fraction(1, 10 ** 11)))
    with pytest.raises(InvalidArgumentError, match="negative"):
        Part("a", 3, (Fraction(1, 2), Fraction(-1, 6), Fraction(2, 3)))
    mixed = Part("a", 4, (Fraction(1, 6), Fraction(1, 6), Fraction(1, 3), Fraction(1, 3)))
    assert mixed.weight_array.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("weights", [(True, False), (np.True_, np.False_)])
def test_boolean_weights_are_no_numbers(weights):
    from fractions import Fraction
    from vck_lab import Part
    # the loaders refuse JSON true as a weight; the constructor refuses it too
    with pytest.raises(InvalidArgumentError, match="part 'V': weights must be numbers"):
        Part("V", 2, weights)
    Part("V", 2, (Fraction(1, 2), np.float64(0.5)))


def test_fraction_weights_keep_their_sign_and_bits():
    from fractions import Fraction
    from vck_lab import Part
    # too small for a float: it rounds to -0.0, and is still refused as negative
    tiny = Fraction(-1, 10 ** 400)
    assert math.copysign(1.0, float(tiny)) == -1.0
    with pytest.raises(InvalidArgumentError, match="part 'a': negative or non-finite weight"):
        Part("a", 2, (tiny, Fraction(1)))
    Part("a", 2, (Fraction(1, 10 ** 400), Fraction(1)))
    # an exact part summing to 1 is accepted, each weight rounded once to float64
    weights = (Fraction(1, 3), Fraction(1, 7), Fraction(11, 21), Fraction(0))
    for part in (Part("b", 4, weights), Part.uniform("c", 7)):
        expected = np.array([float(w) for w in part.weights], dtype=np.float64)
        assert part.weight_array.tobytes() == expected.tobytes()


def test_large_uniform_part_is_quick_and_round_trips():
    import time
    from fractions import Fraction
    from vck_lab.serialize import dumps_canonical, functions_from_doc, space_to_doc
    started = time.perf_counter()
    space = PartiteSpace.uniform([10 ** 6])
    assert time.perf_counter() - started < 1.0
    assert space.parts[0].weights[-1] == Fraction(1, 10 ** 6)
    small = PartiteSpace.uniform([3, 7])
    doc = space_to_doc(small)
    assert doc["parts"][0]["weights"] == [1 / 3] * 3
    loaded, functions = functions_from_doc(doc)
    assert loaded == small and functions == []
    assert dumps_canonical(space_to_doc(loaded)) == dumps_canonical(doc)


def test_weight_array_is_built_once_and_read_only():
    import pickle
    from fractions import Fraction
    from vck_lab import Part
    for part in (Part.uniform("a", 5),
                 Part("b", 3, (Fraction(1, 3), Fraction(1, 6), Fraction(1, 2))),
                 Part("c", 2, (0.25, 0.75))):
        first = part.weight_array
        assert part.weight_array is first
        assert not first.flags.writeable
        assert first.tolist() == [float(w) for w in part.weights]
        with pytest.raises(ValueError):
            first[0] = 1.0
        # a pickled part rebuilds its caches where it is loaded
        loaded = pickle.loads(pickle.dumps(part))
        assert "weight_array" not in vars(loaded) and "_hash" not in vars(loaded)
        assert loaded == part and hash(loaded) == hash(part)
        assert not loaded.weight_array.flags.writeable
    # -0.0 and 0.0 agree as float64, so the parts are equal and hash alike
    signed = Part("d", 2, (-0.0, 1.0))
    assert signed == Part("d", 2, (0.0, 1.0))
    assert hash(signed) == hash(Part("d", 2, (0.0, 1.0)))


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=3), data=st.data(),
       name=st.text(max_size=5))
def test_relation_from_bool_equals_the_float_construction(sizes, data, name):
    # a bool mask skips the checks a float tensor needs; the result is the same
    space = PartiteSpace.uniform(sizes)
    sig = tuple(range(len(sizes)))
    bits = data.draw(st.lists(st.booleans(), min_size=math.prod(sizes),
                              max_size=math.prod(sizes)))
    mask = np.array(bits, dtype=bool).reshape(sizes)
    fast = Relation.from_bool(space, sig, mask, name=name)
    full = Relation(space, sig, np.asarray(mask, dtype=np.float64), name=name)
    assert fast.values.dtype == full.values.dtype == np.float64
    assert np.array_equal(fast.values, full.values)
    assert not fast.values.flags.writeable and not full.values.flags.writeable
    assert fast.name == full.name and fast == full
    mask[...] = ~mask  # the relation owns its values
    assert np.array_equal(fast.values, full.values)


def test_relation_from_non_bool_mask_is_still_checked():
    space = PartiteSpace.uniform([2])
    with pytest.raises(InvalidArgumentError):
        Relation.from_bool(space, (0,), np.array([0.5, 1.0]))
    with pytest.raises(InvalidArgumentError):
        Relation.from_bool(space, (0,), np.array([np.nan, 1.0]))
    assert Relation.from_bool(space, (0,), np.array([1e-13, 1])).values.tolist() == [0.0, 1.0]


def test_point_mass_sums_to_one():
    space = PartiteSpace([__import__("vck_lab").Part("V1", 3, (0.2, 0.3, 0.5)),
                          __import__("vck_lab").Part("V2", 2, (0.9, 0.1))])
    for sig in [(0,), (0, 1), (1, 0, 0)]:
        total = math.fsum(space.weight_tensor(sig).ravel().tolist())
        assert abs(total - 1.0) < 1e-9


def test_zero_weight_vertices_allowed():
    from vck_lab import Part
    space = PartiteSpace((Part("V1", 3, (0.5, 0.0, 0.5)),))
    f = MeasuredFunction(space, (0,), np.array([0.1, 0.9, 0.3]))
    assert integrate(f) == pytest.approx(0.2, abs=1e-12)


# -- level sets ---------------------------------------------------------------

def test_level_set_constant_below_threshold():
    f = MeasuredFunction.constant(PartiteSpace.uniform([3, 3]), (0, 1), 0.5)
    assert np.all(level_set(f, 0.6).values == 1.0)


def test_level_set_strict_inequality():
    f = MeasuredFunction.constant(PartiteSpace.uniform([3, 3]), (0, 1), 0.5)
    assert np.all(level_set(f, 0.5).values == 0.0)


def test_level_set_ge_on_indicator():
    # {f >= r} is the complement of the strict level set
    space = PartiteSpace.uniform([2, 2])
    f = Relation.from_bool(space, (0, 1), np.eye(2) == 1)
    out = level_set(f, 1.0)
    assert isinstance(out, Relation)
    assert np.array_equal(1 - out.values, np.eye(2))


# -- fibers -------------------------------------------------------------------

def test_fiber_full_restriction_is_scalar():
    f = random_function([3, 4], 0)
    sub = fiber(f, {0: 1, 1: 2})
    assert sub.signature == ()
    assert sub.values.item() == f.values[1, 2]


def test_fiber_empty_is_identity():
    f = random_function([3, 4], 1)
    assert np.array_equal(fiber(f, {}).values, f.values)


def test_fiber_of_equality_slice():
    space = PartiteSpace.uniform([3, 3])
    eq = Relation.from_bool(space, (0, 1), np.eye(3) == 1)
    sl = fiber(eq, {1: 1})
    assert np.array_equal(sl.values, np.array([0.0, 1.0, 0.0]))


def test_fiber_out_of_range():
    f = random_function([3, 4], 2)
    with pytest.raises(InvalidArgumentError):
        fiber(f, {1: 9})


# -- bounded arithmetic -------------------------------------------------------

def test_bounded_arith_dispatch_and_mismatch():
    space = PartiteSpace.uniform([2])
    f = MeasuredFunction.constant(space, (0,), 0.5)
    g = MeasuredFunction.constant(PartiteSpace.uniform([3]), (0,), 0.5)
    assert np.all(1 - f.values == 0.5)
    with pytest.raises(InvalidArgumentError):
        l2_distance(f, g)


# -- averaging ----------------------------------------------------------------

def test_average_out_constant():
    f = MeasuredFunction.constant(PartiteSpace.uniform([3, 4]), (0, 1), 0.3)
    out = average_out(f, 1)
    assert np.all(out.values == 0.3)


def test_average_out_single_atom_mass():
    space = PartiteSpace.uniform([2, 2, 4])
    vals = np.zeros((2, 2, 4))
    vals[:, :, 1] = 1.0
    f = MeasuredFunction(space, (0, 1, 2), vals)
    out = average_out(f, 2)
    assert np.all(out.values == 0.25)


def test_average_out_rank_one_against_naive_loop():
    # oracle: direct weighted sum per output entry
    from vck_lab import Part
    space = PartiteSpace((Part("V1", 3, (0.2, 0.3, 0.5)),
                          Part("V2", 4, (0.1, 0.4, 0.25, 0.25))))
    u = np.array([0.2, 0.9, 0.4])
    v = np.array([0.3, 0.8, 0.1, 0.6])
    f = MeasuredFunction(space, (0, 1), np.outer(u, v))
    out = average_out(f, 1)
    w = space.weight_vector(1)
    expected = np.array([math.fsum((u[i] * v * w).tolist()) for i in range(3)])
    assert np.allclose(out.values, expected, atol=1e-15)
    scalar = math.fsum((v * w).tolist())
    assert np.allclose(out.values, u * scalar, atol=1e-12)


# -- Fubini and symmetry properties --------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_fubini_any_order(seed):
    f = random_function([3, 2, 4], seed)
    direct = integrate(f)
    for order in itertools.permutations(range(3)):
        g = f
        for pos in sorted(order, reverse=True):
            g = average_out(g, pos)
        # averaging all axes in any order must equal the direct integral
        assert abs(g.values.item() - direct) < 1e-10


def test_symmetry_exact_under_permutation():
    for seed in range(10):
        f = random_function([3, 3, 2], seed, signature=(0, 0, 1))
        g = MeasuredFunction(f.space, (0, 0, 1), np.transpose(f.values, (1, 0, 2)))
        assert integrate(g) == integrate(f)


# -- product-closure traversals (power-box set) --------------------------------

def test_all_traversals_shape_and_membership():
    space = PartiteSpace.uniform([3, 3])
    R = Relation.from_bool(space, (0, 1), np.eye(3) == 1)
    S = all_traversals(R, (2, 2))
    assert S.signature == (0, 0, 1, 1)
    # (x1,x2,y1,y2) in S iff all four pairs are diagonal
    assert S.values[0, 0, 0, 0] == 1.0
    assert S.values[0, 1, 0, 1] == 0.0


def test_all_traversals_counts_exact():
    # exhaustive oracle on a fixed relation
    space = PartiteSpace.uniform([3, 3])
    rng = np.random.default_rng(11)
    R = Relation.from_bool(space, (0, 1), rng.random((3, 3)) < 0.6)
    S = all_traversals(R, (2, 2))
    count = 0
    for x1, x2, y1, y2 in itertools.product(range(3), repeat=4):
        if all(R.values[x, y] == 1.0 for x in (x1, x2) for y in (y1, y2)):
            count += 1
    assert S.values.sum() == count


# -- L2 perturbation bounds for sums and products --------------------------------

def test_l2_product_and_sum_perturbation_bounds():
    space = PartiteSpace.uniform([5, 5])
    w = space.weight_tensor((0, 1))

    def l2(arr):
        return math.sqrt(math.fsum((w * arr * arr).ravel().tolist()))

    rng = np.random.default_rng(17)
    for trial in range(20):
        ell = int(rng.integers(2, 5))
        eps = 0.05
        fs = [rng.random((5, 5)) for _ in range(ell)]
        gs = []
        for f in fs:
            bump = rng.uniform(-1, 1, (5, 5))
            bump *= 0.9 * eps / max(l2(bump), 1e-12)
            gs.append(np.clip(f + bump, 0.0, 1.0))
        assert all(l2(f - g) < eps for f, g in zip(fs, gs))
        prod_f = np.prod(fs, axis=0)
        prod_g = np.prod(gs, axis=0)
        assert l2(prod_f - prod_g) <= (2 * ell + 1) * eps
        sum_f = np.sum(fs, axis=0)
        sum_g = np.sum(gs, axis=0)
        assert l2(sum_f - sum_g) <= ell * eps


# -- serialization round trip ---------------------------------------------------

def test_function_round_trip(tmp_path):
    from vck_lab.serialize import (dumps_canonical, functions_from_doc,
                                   functions_to_doc, load_json, write_canonical)
    f = random_function([3, 4], 12)
    doc = functions_to_doc(f.space, [f])
    path = tmp_path / "doc.json"
    write_canonical(path, doc)
    space2, funcs = functions_from_doc(load_json(path))
    assert space2 == f.space
    assert funcs[0] == f
    # canonical emission is idempotent byte-for-byte
    assert dumps_canonical(functions_to_doc(space2, funcs)) == dumps_canonical(doc)
