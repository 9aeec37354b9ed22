"""Box norms, dual functions, and the correlation inequalities."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vck_lab import (MeasuredFunction, PartiteSpace, Relation, box_norm,
                     cylinder_correlation, dual_function, inner, integrate,
                     random_pattern)
from vck_lab import gowers
from vck_lab.gowers import multiply_cylinders
from vck_lab.errors import InvalidArgumentError, NumericalFailureError, ResourceLimitError
from vck_lab.space import Part

from oracles import box_norm_oracle, dual_function_oracle


def naive_box_norm_11(f) -> float:
    """Quadruple-loop oracle for a two-coordinate function."""
    wa = f.space.weight_vector(f.signature[0])
    wb = f.space.weight_vector(f.signature[1])
    v = f.values
    terms = []
    for x0 in range(v.shape[0]):
        for x1 in range(v.shape[0]):
            for y0 in range(v.shape[1]):
                for y1 in range(v.shape[1]):
                    terms.append(wa[x0] * wa[x1] * wb[y0] * wb[y1]
                                 * v[x0, y0] * v[x0, y1] * v[x1, y0] * v[x1, y1])
    return math.fsum(terms) ** 0.25


def naive_dual_11(f) -> np.ndarray:
    wa = f.space.weight_vector(f.signature[0])
    wb = f.space.weight_vector(f.signature[1])
    v = f.values
    out = np.zeros_like(v)
    for x0 in range(v.shape[0]):
        for y0 in range(v.shape[1]):
            terms = []
            for x1 in range(v.shape[0]):
                for y1 in range(v.shape[1]):
                    terms.append(wa[x1] * wb[y1]
                                 * v[x0, y1] * v[x1, y0] * v[x1, y1])
            out[x0, y0] = math.fsum(terms)
    return out


def random_function(sizes, seed, signature=None, signed=False):
    space = PartiteSpace.uniform(sizes)
    sig = tuple(signature) if signature else tuple(range(len(sizes)))
    vals = np.random.default_rng(seed).random(space.sizes(sig))
    if signed:
        vals = 2.0 * vals - 1.0
    return MeasuredFunction(space, sig, vals, signed=signed)


# -- norm values -----------------------------------------------------------------

def test_constant_norm_is_the_constant():
    for c in (0.0, 0.25, 1.0):
        for sizes, sig in [([4], (0,)), ([4, 4], (0, 1)), ([2, 2, 2], (0, 1, 2))]:
            f = MeasuredFunction.constant(PartiteSpace.uniform(sizes), sig, c)
            assert box_norm(f).norm == c


def test_rank_one_norm_equals_product_of_l2_norms():
    space = PartiteSpace.uniform([4, 5])
    u = np.linspace(0.05, 0.95, 4)
    v = np.linspace(0.15, 0.85, 5)
    f = MeasuredFunction(space, (0, 1), np.outer(u, v))
    rep = box_norm(f)
    assert rep.norm == pytest.approx(naive_box_norm_11(f), abs=1e-12)
    nu = math.sqrt(math.fsum((0.25 * u * u).tolist()))
    nv = math.sqrt(math.fsum((0.2 * v * v).tolist()))
    assert rep.norm == pytest.approx(nu * nv, abs=1e-10)


def test_centered_cylinder_indicator_norm_against_naive():
    # chi_E - mu(E) for E depending on a strict coordinate subset
    space = PartiteSpace.uniform([3, 4])
    col = np.array([1.0, 0.0, 1.0])
    E = np.repeat(col[:, None], 4, axis=1)
    mu = integrate(Relation(space, (0, 1), E))
    f = MeasuredFunction(space, (0, 1), E - mu, signed=True)
    rep = box_norm(f)
    assert rep.norm == pytest.approx(naive_box_norm_11(f), abs=1e-12)


def test_box_norm_on_doubled_signature():
    f = random_function([3, 2], 4, signature=(0, 0, 1))
    rep = box_norm(f)
    assert rep.degree == 3
    assert rep.raw >= 0.0
    assert rep.norm == pytest.approx(rep.raw ** 0.125, abs=1e-15)


def test_degree_cap_enforced():
    f = MeasuredFunction.constant(PartiteSpace.uniform([2] * 7), tuple(range(7)), 0.5)
    with pytest.raises(ResourceLimitError):
        box_norm(f)


def test_empty_signature_rejected():
    f = MeasuredFunction.constant(PartiteSpace.uniform([2]), (), 0.5)
    with pytest.raises(InvalidArgumentError):
        box_norm(f)


# -- dual function -----------------------------------------------------------------

def test_dual_of_constant():
    f = MeasuredFunction.constant(PartiteSpace.uniform([3, 3]), (0, 1), 0.5)
    D = dual_function(f)
    assert np.allclose(D.values, 0.5 ** 3, atol=1e-15)


def test_dual_identity_on_random_sample():
    for seed in range(20):
        f = random_function([5, 4], seed)
        rep = box_norm(f)
        D = dual_function(f)
        assert abs(inner(f, D) - rep.raw) <= 1e-9


def test_dual_rank_one_against_naive():
    space = PartiteSpace.uniform([3, 4])
    u = np.linspace(0.1, 0.7, 3)
    v = np.linspace(0.2, 0.9, 4)
    f = MeasuredFunction(space, (0, 1), np.outer(u, v))
    D = dual_function(f)
    assert np.allclose(D.values, naive_dual_11(f), atol=1e-12)
    su = math.fsum((u * u / 3).tolist())
    sv = math.fsum((v * v / 4).tolist())
    assert np.allclose(D.values, np.outer(u, v) * su * sv, atol=1e-10)


# -- correlation inequalities --------------------------------------------------------

def test_empty_cylinder_family_gives_mean():
    f = random_function([4, 4], 9)
    assert cylinder_correlation(f, []) == pytest.approx(abs(integrate(f)), abs=0)


def test_zero_function_correlates_zero():
    space = PartiteSpace.uniform([3, 3])
    f = MeasuredFunction.constant(space, (0, 1), 0.0)
    A = Relation.from_bool(space, (0,), np.array([1, 0, 1]) == 1)
    assert cylinder_correlation(f, [(A, (0,))]) == 0.0


def test_correlation_bounded_by_norm_random():
    rng = np.random.default_rng(31)
    for seed in range(20):
        f = random_function([4, 4], seed)
        space = f.space
        A = Relation.from_bool(space, (0,), rng.random(4) < 0.5)
        B = Relation.from_bool(space, (1,), rng.random(4) < 0.5)
        corr = cylinder_correlation(f, [(A, (0,)), (B, (1,))])
        assert corr <= box_norm(f).norm + 1e-12


def test_product_cylinder_norm_monotone():
    rng = np.random.default_rng(77)
    for seed in range(10):
        f = random_function([4, 3], seed)
        A = Relation.from_bool(f.space, (0,), rng.random(4) < 0.6)
        g = multiply_cylinders(f, [(A, (0,))])
        assert box_norm(g).norm <= box_norm(f).norm + 1e-12


def test_full_arity_cylinder_rejected():
    f = random_function([3, 3], 1)
    E = Relation.from_bool(f.space, (0, 1), np.eye(3) == 1)
    with pytest.raises(InvalidArgumentError):
        cylinder_correlation(f, [(E, (0, 1))])


@pytest.mark.parametrize("position", [-1, 2])
def test_cylinder_positions_outside_the_grid_rejected(position):
    # -1 once read as the last coordinate, and 2 raised a bare IndexError
    f = random_function([3, 3], 1)
    A = Relation.from_bool(f.space, (f.signature[-1],), np.ones(3, dtype=bool))
    with pytest.raises(InvalidArgumentError, match=r"factor positions must be in \[0, 2\)"):
        multiply_cylinders(f, [(A, (position,))])


def test_positive_correlation_implies_positive_norm():
    # one concrete direction of the positivity equivalence
    rng = np.random.default_rng(5)
    for seed in range(10):
        f = random_function([4, 4], 100 + seed, signed=True)
        A = Relation.from_bool(f.space, (0,), rng.random(4) < 0.5)
        corr = cylinder_correlation(f, [(A, (0,))])
        if corr > 1e-12:
            assert box_norm(f).norm > 0.0


def test_signed_values_allowed_and_raw_can_clamp():
    f = random_function([4, 4], 11, signed=True)
    rep = box_norm(f)
    assert rep.raw >= 0.0 or rep.clamp_flag


# -- the Gram form against the dense doubled grid ----------------------------------------

@st.composite
def signed_functions(draw):
    """Signed functions of arity 1-4 on 1-3 parts of size 1-3, with
    non-uniform (possibly zero) weights and a signature that may repeat parts."""
    parts = []
    for j in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 3))
        counts = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any))
        parts.append(Part(f"P{j}", size, tuple(Fraction(c, sum(counts)) for c in counts)))
    space = PartiteSpace(tuple(parts))
    arity = draw(st.integers(1, 4))
    signature = tuple(draw(st.lists(st.integers(0, len(parts) - 1),
                                    min_size=arity, max_size=arity)))
    shape = space.sizes(signature)
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    return MeasuredFunction(space, signature, np.reshape(values, shape), signed=True)


def assert_matches_dense(f):
    assert abs(box_norm(f).raw - max(box_norm_oracle(f), 0.0)) <= 1e-12
    assert np.max(np.abs(dual_function(f).values - dual_function_oracle(f))) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(signed_functions())
def test_gram_form_matches_dense_oracle(f):
    assert_matches_dense(f)


@pytest.mark.parametrize("sizes,signature", [
    ([3, 2], (0, 0, 1)),        # a repeated part
    ([1, 3], (0, 1)),           # a size-1 head axis
    ([3, 1], (0, 1)),           # a size-1 last axis
    ([2, 1, 3], (1, 0, 1, 2)),  # size-1 inside the head, repeated part
    ([4], (0,)),                # one coordinate: raw = (integral of f)**2
])
def test_gram_form_matches_dense_oracle_on_named_shapes(sizes, signature):
    rng = np.random.default_rng(len(signature))
    counts = [rng.integers(1, 5, size=s) for s in sizes]
    space = PartiteSpace(tuple(Part(f"P{j}", s, tuple(Fraction(int(c), int(cs.sum()))
                                                      for c in cs))
                               for j, (s, cs) in enumerate(zip(sizes, counts))))
    vals = rng.uniform(-1.0, 1.0, space.sizes(signature))
    assert_matches_dense(MeasuredFunction(space, signature, vals, signed=True))


def test_tiny_negative_raw_is_clamped_and_flagged(monkeypatch):
    f = random_function([3, 3], 2, signed=True)
    monkeypatch.setattr(gowers, "weighted_sum", lambda *factors: -1e-12)
    rep = box_norm(f)
    assert rep.raw == 0.0 and rep.norm == 0.0 and rep.clamp_flag
    monkeypatch.setattr(gowers, "weighted_sum", lambda *factors: -1e-6)
    with pytest.raises(NumericalFailureError):
        box_norm(f)


# -- sizes -------------------------------------------------------------------------------

def test_box_norm_of_a_1024_square_matches_a_gram_reference():
    # the dense doubled grid would hold 2**40 cells
    H = random_pattern(1024, 1, 0.5, seed=11)
    f = MeasuredFunction(H.space, H.signature, H.values - 0.5, signed=True)
    w = np.full(1024, 1.0 / 1024)
    gram = (f.values * w) @ f.values.T
    assert abs(box_norm(f).raw - float(w @ (gram * gram) @ w)) <= 1e-12


def test_array_cap_refuses_before_allocating():
    # 16**5 cells: the doubled grid of the first four coordinates has 2**32
    f = MeasuredFunction.constant(PartiteSpace.uniform([16] * 5), tuple(range(5)), 0.5)
    tracemalloc.start()
    try:
        for compute in (box_norm, dual_function):
            with pytest.raises(ResourceLimitError, match="cap"):
                compute(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
