"""Cylinder decompositions: evaluation, error metrics, and the fitters."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vck_lab import (BooleanCylinderExpr, CylinderDecomposition, CylinderTerm,
                     MeasuredFunction, Part, PartiteSpace, PoolLeaf,
                     Relation, approx_by_fibers, boolean_of_lower_arity,
                     fit_boolean_cylinders, fit_weighted_cylinders, integrate,
                     l2_error, membership_gadget, parity_triple, quasirandom,
                     rng, sym_diff)
from vck_lab.adversary import random_pattern
from vck_lab.cli import main as cli_main
from vck_lab import defaults
from vck_lab.decomp import bounded_least_squares, fiber_pool, fit_weighted_restarts
from vck_lab.errors import InvalidArgumentError, NumericalFailureError, ResourceLimitError

from oracles import (bounded_lstsq_oracle, box_solve_oracle, decomposition_value_oracle,
                     expression_leaf_count, expression_oracle, fiber_pool_oracle,
                     fit_boolean_cylinders_oracle, fit_weighted_cylinders_oracle)


def uniform_space(sizes):
    return PartiteSpace.uniform(sizes)


def make_term(space, signature, gamma, factor_map):
    factors = {}
    for pos, vals in factor_map.items():
        sig = tuple(signature[p] for p in pos)
        factors[pos] = MeasuredFunction(space, sig, np.asarray(vals, dtype=float))
    return CylinderTerm(Fraction(gamma), factors)


# -- evaluation -----------------------------------------------------------------

def test_evaluate_single_unit_term():
    space = uniform_space([2, 2])
    term = make_term(space, (0, 1), 1, {(0,): [1, 1], (1,): [1, 1]})
    d = CylinderDecomposition(space, (0, 1), 1, (term,))
    assert np.all(d.tensor() == 1.0)
    assert decomposition_value_oracle(d, (1, 0)) == 1.0


def test_evaluate_empty_decomposition():
    space = uniform_space([2, 2])
    d = CylinderDecomposition(space, (0, 1), 1, ())
    assert np.all(d.tensor() == 0.0)
    assert d.value_range() == (0.0, 0.0)


def test_evaluate_two_terms_hand_expansion():
    # oracle: manual expansion of 0.5*a(x)b(y) + 0.5*(1-a(x))(1-b(y)) on [2]^2
    space = uniform_space([2, 2])
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    d = CylinderDecomposition(space, (0, 1), 1, (
        make_term(space, (0, 1), Fraction(1, 2), {(0,): a, (1,): b}),
        make_term(space, (0, 1), Fraction(1, 2), {(0,): 1 - a, (1,): 1 - b}),
    ))
    expected = np.array([[0.5 * 1 * 0 + 0.5 * 0 * 1, 0.5 * 1 * 1 + 0.5 * 0 * 0],
                         [0.5 * 0 * 0 + 0.5 * 1 * 1, 0.5 * 0 * 1 + 0.5 * 1 * 0]])
    assert np.array_equal(d.tensor(), expected)
    for pt in itertools.product(range(2), repeat=2):
        assert decomposition_value_oracle(d, pt) == expected[pt]


def test_factor_arity_capped_by_k():
    space = uniform_space([2, 2, 2])
    with pytest.raises(InvalidArgumentError):
        CylinderDecomposition(space, (0, 1, 2), 1, (
            make_term(space, (0, 1, 2), 1, {(0, 1): np.ones((2, 2))}),))


# -- error metrics ------------------------------------------------------------------

def test_l2_error_zero_on_exact_representation():
    space = uniform_space([3, 4])
    term = make_term(space, (0, 1), 1, {(0,): [0.2, 0.5, 0.9]})
    d = CylinderDecomposition(space, (0, 1), 1, (term,))
    f = MeasuredFunction(space, (0, 1), d.tensor())
    assert l2_error(f, d) == 0.0


def test_l2_error_matches_naive_loop():
    space = uniform_space([3, 3])
    term = make_term(space, (0, 1), Fraction(3, 4),
                     {(0,): [0.1, 0.6, 0.9], (1,): [0.5, 0.2, 0.8]})
    d = CylinderDecomposition(space, (0, 1), 1, (term,))
    f = MeasuredFunction(space, (0, 1), np.random.default_rng(4).random((3, 3)))
    terms = []
    for x, y in itertools.product(range(3), repeat=2):
        diff = f.values[x, y] - decomposition_value_oracle(d, (x, y))
        terms.append(diff * diff / 9)
    assert l2_error(f, d) == pytest.approx(math.sqrt(math.fsum(terms)), abs=1e-14)


def test_sym_diff_full_vs_negated_full():
    space = uniform_space([3, 3])
    full = Relation.from_bool(space, (0, 1), np.ones((3, 3), dtype=bool))
    leaf = PoolLeaf((0,), Relation.from_bool(space, (0,), np.ones(3, dtype=bool)),
                    "all")
    expr = BooleanCylinderExpr((leaf,), ((0, True, True),), False)
    assert expr.to_doc()["expr"] == {"op": "not", "arg": {"op": "leaf", "name": "all"}}
    assert sym_diff(full, expr) == 1.0


@settings(max_examples=200, deadline=None)
@given(sizes=st.tuples(*[st.integers(1, 3)] * 3),
       leaves=st.lists(st.tuples(st.sampled_from([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]),
                                 st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=4),
       rules=st.lists(st.tuples(st.integers(0, 3), st.booleans(), st.booleans()),
                      max_size=6),
       default=st.booleans())
@example(sizes=(2, 2, 2), leaves=[((0,), 1)], rules=[], default=True)
@example(sizes=(2, 2, 2), leaves=[((0,), 1)], rules=[(0, False, True)], default=False)
@example(sizes=(2, 2, 2), leaves=[((1,), 2)], rules=[(0, True, False)], default=True)
@example(sizes=(3, 2, 2), leaves=[((0,), 3), ((1, 2), 4)],
         rules=[(1, True, False), (0, True, False)], default=False)
def test_decision_list_matches_the_tree_it_prints(sizes, leaves, rules, default):
    # the const short-cuts (bit 1 over default 0, bit 0 over default 1) and
    # not(not(leaf)) for a negated bit-0 rule are among the examples
    import json
    from vck_lab.serialize import dumps_canonical
    space = uniform_space(sizes)
    pool = tuple(
        PoolLeaf(pos, Relation.from_bool(space, pos, np.random.default_rng(draw).random(
            tuple(sizes[p] for p in pos)) < 0.5), f"L{i}")
        for i, (pos, draw) in enumerate(leaves))
    rules = tuple((i % len(pool), negated, bit) for i, negated, bit in rules)
    expr = BooleanCylinderExpr(pool, rules, default)
    assert list(expr.to_doc()["leaves"]) == [leaf.name for leaf in pool]
    doc = json.loads(dumps_canonical(expr.to_doc()))
    assert np.array_equal(expr.tensor(space, (0, 1, 2)),
                          expression_oracle(doc["expr"], doc["leaves"], sizes))
    assert expression_leaf_count(doc["expr"]) == len(rules)


def test_expression_round_trip_doc():
    from vck_lab.serialize import dumps_canonical
    space = uniform_space([3, 3, 3])
    E = quasirandom(space, (0, 1, 2), 0.5, seed=5)
    expr, _ = fit_boolean_cylinders(E, 1, 4)
    doc = expr.to_doc()
    assert dumps_canonical(doc) == dumps_canonical(expr.to_doc())


def test_decomposition_json_round_trip():
    # the document, through JSON text, carries every coefficient and factor
    # value of the decomposition bit for bit
    import json
    from vck_lab.serialize import dumps_canonical, parse_fraction
    space = uniform_space([3, 3])
    f = MeasuredFunction(space, (0, 1), np.random.default_rng(9).random((3, 3)))
    d, _ = fit_weighted_cylinders(f, 1, 3, seed=1)
    doc = json.loads(dumps_canonical(d.to_doc()))
    assert (doc["target_signature"], doc["k"]) == ([0, 1], 1)
    assert [parse_fraction(t["gamma"]) for t in doc["terms"]] == [t.gamma for t in d.terms]
    assert [[(fac["positions"], fac["values"]) for fac in t["factors"]]
            for t in doc["terms"]] == [
        [(list(pos), fac.values.ravel().tolist()) for pos, fac in t.factors.items()]
        for t in d.terms]


@pytest.mark.parametrize("positions", [(-1,), (2,), (1, 0)])
def test_bad_factor_positions_refused(positions):
    space = uniform_space([2, 2])
    bad = CylinderTerm(Fraction(1, 2), {positions: MeasuredFunction(
        space, (0,) * len(positions), np.ones((2,) * len(positions)))})
    with pytest.raises(InvalidArgumentError, match="factor positions"):
        CylinderDecomposition(space, (0, 1), 2, (bad,))


# -- Boolean fitting ------------------------------------------------------------------

def test_fit_single_cylinder_exact():
    space = uniform_space([5, 5, 5])
    col = np.zeros(5)
    col[:2] = 1
    E = Relation.from_bool(space, (0, 1, 2),
                           np.broadcast_to(col[:, None, None] == 1, (5, 5, 5)))
    expr, rep = fit_boolean_cylinders(E, 1, 8)
    assert rep.error == 0.0
    assert rep.n == 1
    assert rep.error <= rep.baseline


def test_fit_intersection_of_two_cylinders():
    space = uniform_space([5, 5, 5])
    a = np.arange(5) < 3
    b = np.arange(5) < 2
    E = Relation.from_bool(space, (0, 1, 2),
                           a[:, None, None] & b[None, :, None] & np.ones(5, bool))
    pool = [PoolLeaf((0,), Relation.from_bool(space, (0,), a), "a"),
            PoolLeaf((1,), Relation.from_bool(space, (1,), b), "b")]
    expr, rep = fit_boolean_cylinders(E, 1, 8, pool=pool)
    assert rep.error == 0.0
    assert rep.n <= 2
    assert sym_diff(E, expr) == 0.0


def test_fit_generator_pool_closure_exact():
    for seed in range(12):
        out = boolean_of_lower_arity(3, 1, 3, [5, 5, 5], seed=seed)
        pool = [PoolLeaf(pos, rel, f"gen{i}")
                for i, (pos, rel) in enumerate(out.leaves)]
        expr, rep = fit_boolean_cylinders(out.relation, k=1, n_max=8, pool=pool)
        assert rep.error == 0.0, (seed, out.expression)
        assert rep.n <= 8
        assert sym_diff(out.relation, expr) == 0.0


@st.composite
def pool_targets(draw):
    """(relation, k): arity 2-4, sides 1-4, values constant, random, or
    a function of each vertex mod 2, so that fibers repeat."""
    arity = draw(st.integers(2, 4))
    sizes = draw(st.tuples(*[st.integers(1, 4)] * arity))
    bits = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).random(sizes) < 0.5
    kind = draw(st.sampled_from(["zeros", "ones", "random", "mod 2"]))
    if kind in ("zeros", "ones"):
        bits = np.full(sizes, kind == "ones")
    elif kind == "mod 2":
        bits = bits[np.ix_(*[np.arange(n) % 2 for n in sizes])]
    E = Relation.from_bool(uniform_space(sizes), tuple(range(arity)), bits)
    return E, draw(st.integers(1, arity - 1))


@settings(max_examples=150, deadline=None)
@given(pool_targets())
@example((Relation.from_bool(uniform_space([4, 4, 4]), (0, 1, 2),
                             np.random.default_rng(3).random((4, 4, 4)) < 0.5), 1))
def test_fiber_pool_matches_oracle(target):
    E, k = target
    assert [(leaf.name, leaf.positions, leaf.relation.values.ravel().tolist())
            for leaf in fiber_pool(E, k)] == fiber_pool_oracle(E, k)


def test_fiber_pool_keeps_eight_fibers_per_set():
    # a 4x4x4 random relation has more than 8 distinct 4-vertex fibers on
    # coordinate 0; the pool keeps the first 8 of them
    E = Relation.from_bool(uniform_space([4, 4, 4]), (0, 1, 2),
                           np.random.default_rng(3).random((4, 4, 4)) < 0.5)
    assert sum(I == (0,) for _, I, _ in fiber_pool_oracle(E, 1, per_set=16)) > 8
    assert sum(leaf.positions == (0,) for leaf in fiber_pool(E, 1)) == 8


@pytest.mark.parametrize("seed", [1, 6, 11])
def test_fit_finds_structure_family_leaves(tmp_path, seed):
    from vck_lab.serialize import load_json
    # the structure workload's family: an exact combination of 4 unary
    # leaves, which a pool of 8 sampled tuples per set used to miss (errors
    # 0.0586, 0.1406 and 0.1641 on these seeds)
    E = boolean_of_lower_arity(3, 1, 4, (16, 16, 16), seed=seed).relation
    _, rep = fit_boolean_cylinders(E, 1, 16)
    assert (rep.error, rep.seed) == (0.0, 0)
    inst, report = tmp_path / "bc.json", tmp_path / "dec.json"
    assert cli_main(["gen", "--kind", "boolcomb", "--seed", str(seed), "--out", str(inst),
                     "--params", "kprime=3,k=1,m=4,sizes=16x16x16"]) == 0
    assert cli_main(["decompose", "--input", str(inst), "--k", "1", "--mode", "boolean",
                     "--report", str(report)]) == 0
    assert load_json(report)["comparable"]["results"]["fit"]["error"] == 0.0


def test_fit_quasirandom_stays_near_baseline():
    # calibrated: measured ratios were >= 0.82 across seeds; frozen at 0.7
    for seed in range(3):
        space = uniform_space([6, 6, 6])
        E = quasirandom(space, (0, 1, 2), 0.5, seed=seed)
        _, rep = fit_boolean_cylinders(E, 1, 8)
        assert rep.error >= 0.7 * rep.baseline
        assert rep.error <= rep.baseline


def test_fit_empty_pool_rejected():
    space = uniform_space([3, 3])
    E = Relation.from_bool(space, (0, 1), np.eye(3) == 1)
    with pytest.raises(InvalidArgumentError):
        fit_boolean_cylinders(E, 1, 4, pool=[])


@st.composite
def boolean_fit_cases(draw):
    """(relation, k, n_max, pool): arity 2-4, every k below it, sides 1-5,
    uniform, zero-holding or random rational weights, and the default pool
    or a caller's own, whose all-0 and all-1 leaves cover nothing on one
    side and tie with the constant rule on the other."""
    arity = draw(st.integers(2, 4))
    sizes = draw(st.tuples(*[st.integers(1, 5)] * arity))
    kind = draw(st.sampled_from(["uniform", "zero", "rational"]))
    parts = []
    for i, size in enumerate(sizes):
        if kind == "uniform":
            parts.append(Part.uniform(f"p{i}", size))
            continue
        top = 1 if kind == "zero" else 7
        mass = draw(st.lists(st.integers(0, top), min_size=size, max_size=size))
        mass[0] = max(mass[0], 1)
        parts.append(Part(f"p{i}", size, tuple(Fraction(m, sum(mass)) for m in mass)))
    space = PartiteSpace(tuple(parts))
    p = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    bits = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).random(sizes) < p
    E = Relation.from_bool(space, tuple(range(arity)), bits)
    k = draw(st.integers(1, arity - 1))
    pool = None
    if draw(st.booleans()):
        pool = fiber_pool(E, k) if draw(st.booleans()) else []
        for j in range(draw(st.integers(0 if pool else 1, 4))):
            positions = tuple(sorted(draw(st.sets(st.integers(0, arity - 1), min_size=1,
                                                  max_size=k))))
            shape = [sizes[q] for q in positions]
            fill = draw(st.sampled_from(["zeros", "ones", "random"]))
            values = (np.full(shape, fill == "ones") if fill != "random"
                      else np.random.default_rng(j).random(shape) < 0.5)
            leaf = PoolLeaf(positions, Relation.from_bool(space, positions, values), f"u{j}")
            pool.insert(draw(st.integers(0, len(pool))), leaf)
    return E, k, draw(st.integers(1, 16)), pool


@settings(max_examples=300, deadline=None)
@given(boolean_fit_cases())
@example((quasirandom(uniform_space([6, 6, 6]), (0, 1, 2), 0.5, seed=1), 1, 8, None))
def test_boolean_fit_matches_its_first_round_loop(case):
    E, k, n_max, pool = case
    expr, report = fit_boolean_cylinders(E, k, n_max, pool=pool)
    rules, default, error, baseline, n, iterations = fit_boolean_cylinders_oracle(
        E, n_max, fiber_pool(E, k) if pool is None else pool)
    assert (expr.rules, expr.default, report.error.hex(), report.baseline.hex(), report.n,
            report.iterations) == (rules, default, error.hex(), baseline.hex(), n, iterations)


@pytest.mark.parametrize("E, sums", [
    (quasirandom(uniform_space([32, 32, 32]), (0, 1, 2), 0.5, seed=7), 786),
    (boolean_of_lower_arity(3, 1, 4, (16, 16, 16), seed=1000).relation, 56)])
def test_boolean_fit_weighs_each_half_once(monkeypatch, E, sums):
    # per round, two sums for each half of each leaf; two for the constant
    # rule at the start, after each rule taken, and for the default
    # (the first round loop took 1,794 and 92)
    from vck_lab import decomp
    from vck_lab.space import weighted_sum
    calls = []
    monkeypatch.setattr(decomp, "weighted_sum",
                        lambda *factors: calls.append(1) or weighted_sum(*factors))
    expr, report = fit_boolean_cylinders(E, 1, 16)
    assert len(calls) == 4 * len(expr.pool) * report.iterations + 2 * report.n + 4 == sums


# -- weighted fitting -----------------------------------------------------------------

def test_weighted_constant_target():
    space = uniform_space([4, 4])
    c = MeasuredFunction.constant(space, (0, 1), 0.37)
    d, rep = fit_weighted_cylinders(c, 1, 3, seed=0)
    assert rep.error <= 1e-12
    assert rep.n == 1


@pytest.mark.parametrize("n_max, als_iters", [(0, 25), (-1, 25), (3, -1)])
def test_weighted_fit_refuses_bad_counts(n_max, als_iters):
    c = MeasuredFunction.constant(uniform_space([4, 4]), (0, 1), 0.37)
    with pytest.raises(InvalidArgumentError):
        fit_weighted_cylinders(c, 1, n_max, als_iters=als_iters)


def test_weighted_init_above_k_refused():
    pt = parity_triple(3, seed=0)
    d = CylinderDecomposition(pt.relation.space, (0, 1, 2), 2, (make_term(
        pt.relation.space, (0, 1, 2), 1, {(0, 1): pt.F.values}),))
    with pytest.raises(InvalidArgumentError, match="arity above k=1"):
        fit_weighted_cylinders(pt.relation, 1, 2, init=d)


def test_weighted_representable_oracle_init():
    space = uniform_space([4, 5])
    u = np.linspace(0.1, 0.9, 4)
    v = np.linspace(0.2, 0.8, 5)
    f = MeasuredFunction(space, (0, 1), np.outer(u, v))
    d, rep = fit_weighted_cylinders(f, 1, 2, seed=0)
    assert rep.error <= 1e-9
    d2, rep2 = fit_weighted_cylinders(f, 1, 2, init=d, seed=0)
    assert rep2.error <= 1e-9


def test_weighted_representability_closure():
    # refitting the evaluation of a stored decomposition with oracle init
    space = uniform_space([4, 4, 4])
    rng = np.random.default_rng(3)
    terms = tuple(
        make_term(space, (0, 1, 2), Fraction(1, 3),
                  {(0,): rng.random(4), (1,): rng.random(4), (2,): rng.random(4)})
        for _ in range(2))
    d = CylinderDecomposition(space, (0, 1, 2), 1, terms)
    f = MeasuredFunction(space, (0, 1, 2), d.tensor())
    _, rep = fit_weighted_cylinders(f, 1, 2, init=d, seed=0)
    assert rep.error <= 1e-9


def test_weighted_parity_fit_reaches_small_error():
    # calibrated: greedy reaches exact zero with N <= 10 on seeds 1..3;
    # the frozen contract keeps the looser budget
    pt = parity_triple(5, seed=1)
    _, rep = fit_weighted_cylinders(pt.relation, 2, 16, seed=1)
    assert rep.error < 0.05
    assert rep.n <= 16


def test_weighted_parity_exact_four_term_representation():
    pt = parity_triple(5, seed=2)
    space = pt.relation.space
    F, G, H = pt.F.values, pt.G.values, pt.H.values
    terms = []
    for a, b, c in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]:
        terms.append(make_term(space, (0, 1, 2), 1, {
            (0, 1): F if a else 1 - F,
            (0, 2): G if b else 1 - G,
            (1, 2): H if c else 1 - H}))
    d = CylinderDecomposition(space, (0, 1, 2), 2, tuple(terms))
    assert l2_error(pt.relation, d) == 0.0


def test_weighted_error_monotone_in_term_budget():
    space = uniform_space([5, 5])
    f = MeasuredFunction(space, (0, 1), np.random.default_rng(12).random((5, 5)))
    errors = [fit_weighted_cylinders(f, 1, n, seed=7)[1].error for n in (1, 2, 3, 4)]
    for a, b in zip(errors, errors[1:]):
        assert b <= a + 1e-9


def test_weighted_error_never_above_baseline():
    for seed in range(5):
        space = uniform_space([4, 4, 4])
        f = MeasuredFunction(space, (0, 1, 2),
                             np.random.default_rng(seed).random((4, 4, 4)))
        _, rep = fit_weighted_cylinders(f, 1, 2, seed=seed)
        assert rep.error <= rep.baseline + 1e-9


# -- fiber-anchor approximation ----------------------------------------------------------

def test_approx_identical_fibers_single_anchor():
    space = uniform_space([4, 3])
    col = (np.arange(4) < 2).astype(float)
    f = Relation(space, (0, 1), np.repeat(col[:, None], 3, axis=1))
    rep = approx_by_fibers(f, 1e-9, 3, 1, ((0, 1, 2, 3),))
    assert rep.met_epsilon
    assert len(rep.anchors) == 1
    assert rep.max_error == 0.0


def test_approx_membership_gadget_exact():
    for d in (2, 3):
        g = membership_gadget(d, 1)
        rep = approx_by_fibers(g, 1e-9, 2 ** d, 1, (tuple(range(d)),))
        assert rep.met_epsilon
        assert rep.max_error == 0.0


def test_approx_quasirandom_unmet_epsilon_flagged():
    space = uniform_space([6, 6, 6])
    E = quasirandom(space, (0, 1, 2), 0.5, seed=4)
    rep = approx_by_fibers(E, 0.1, 1, 1, ((0, 1), (0, 1)))
    assert not rep.met_epsilon
    assert rep.max_error > 0.1
    assert len(rep.per_fiber) == 6


# -- bounded least squares ----------------------------------------------------

_entries = st.one_of(st.integers(-4, 4).map(lambda v: v / 2),
                     st.floats(-2, 2, allow_subnormal=False).filter(
                         lambda v: v == 0.0 or abs(v) > 1e-6))


@st.composite
def box_problems(draw):
    """Small problems, with duplicate and zero columns and m < n among them."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    A = np.array(draw(st.lists(_entries, min_size=m * n, max_size=m * n))).reshape(m, n)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2)):
        A[:, i] = A[:, j]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=1)):
        A[:, i] = 0.0
    if draw(st.booleans()):
        b = A @ np.array(draw(st.lists(st.floats(-0.5, 1.5), min_size=n, max_size=n)))
    else:
        b = np.array(draw(st.lists(_entries, min_size=m, max_size=m)))
    return A, b


@settings(max_examples=150, deadline=None)
@given(box_problems())
# steps that end 2**-53 off a bound unless the blocking variable is pinned
# exactly, and one that rounds to 1 + 2**-52
@example((np.array([[0.99, 0.91, 0.77], [0.64, 0.85, 0.91], [0.72, 0.42, 0.34]]),
          np.array([-0.74, -0.03, 1.05])))
@example((np.array([[-1.0, 0.5, 0.5, -0.5], [-1.0, -1.0, -0.5, 0.5]]), np.array([0.0, 1.5])))
def test_bounded_least_squares_matches_pattern_oracle(problem):
    A, b = problem
    x = bounded_least_squares(A, b).x
    assert np.all((x >= 0.0) & (x <= 1.0))
    _, best = bounded_lstsq_oracle(A, b)
    res = float(np.linalg.norm(A @ x - b))
    # relative to the residual of x = 0, which bounds the optimum
    assert abs(res - best) <= 1e-9 * max(best, float(np.linalg.norm(b)))


def test_bounded_least_squares_keeps_near_exact_fits():
    # two nearly equal columns (condition number 5e7): the normal equations
    # square it and leave a residual near 4e-8 where QR reaches rounding
    rng = np.random.default_rng(0)
    A = rng.random((64, 4))
    A[:, 1] = A[:, 0] + 1e-7 * rng.random(64)
    b = A @ np.array([0.6, 0.3, 0.2, 0.9])
    x = bounded_least_squares(A, b).x
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


@settings(max_examples=150, deadline=None)
@given(box_problems(), st.one_of(st.none(), st.lists(st.floats(-0.5, 1.5), min_size=5,
                                                     max_size=5)))
@example((np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]]), np.array([1.0, 0.5, -1.0])),
         [0.0, 1.0, 0.0, 0.0, 0.0])
def test_bounded_least_squares_warm_start_and_residual(problem, start):
    # the optimum from a cold start and from any start clipped into the box;
    # the residual read off the augmented QR is ||A x - b||
    A, b = problem
    x0 = None if start is None else start[:A.shape[1]]
    solution = bounded_least_squares(A, b, x0)
    x = solution.x
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert solution.steps >= 1
    _, best = bounded_lstsq_oracle(A, b)
    res = float(np.linalg.norm(A @ x - b))
    scale = max(best, float(np.linalg.norm(b)))
    if x0 is not None:
        # a start may leave variables at 1 where b is tiny or the optimum is
        # not unique, and the residual then rounds on the scale of ||A|| ||x||
        scale = max(scale, float(np.linalg.norm(A)))
    assert abs(res - best) <= 1e-9 * scale
    assert abs(solution.residual - res) <= 1e-12 * (1.0 + float(np.linalg.norm(b)))


def _one_box_factor(draw, m, n):
    """The triangular factor of one [A b] with A m x n: duplicated, zero and
    combined columns (rank-deficient A), and b in A's range or not."""
    A = np.array(draw(st.lists(_entries, min_size=m * n, max_size=m * n))).reshape(m, n)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2)):
        A[:, i] = A[:, j]
    if n >= 3 and draw(st.booleans()):
        A[:, 2] = A[:, 0] + 0.5 * A[:, 1]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=1)):
        A[:, i] = 0.0
    if draw(st.booleans()):
        b = A @ np.array(draw(st.lists(st.floats(-0.5, 1.5), min_size=n, max_size=n)))
    else:
        b = np.array(draw(st.lists(_entries, min_size=m, max_size=m)))
    return np.linalg.qr(np.column_stack([A, b]), mode="r")


@st.composite
def box_factor_stacks(draw):
    """(1 to 20 factors of one shape, stacked, their starts): up to 6
    columns, m < n among them; all starts cold, or all warm with entries
    exactly at a bound (pinned) in mixed patterns."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 6))
    rows = draw(st.integers(1, 20))
    Rb = np.stack([_one_box_factor(draw, m, n) for _ in range(rows)])
    if draw(st.booleans()):
        return Rb, None
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5]), st.floats(-0.5, 1.5))
    return Rb, [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(rows)]


def _stack(problems, starts):
    return (np.stack([np.linalg.qr(np.column_stack([A, b]), mode="r") for A, b in problems]),
            starts)


@settings(max_examples=100, deadline=None)
@given(box_factor_stacks())
# rows that take one, two and four steps, side by side
@example(_stack([(np.eye(2), np.array([0.5, 0.5])), (np.eye(2), np.array([2.0, -1.0])),
                 (np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([-1.0, 2.0]))],
                [[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]]))
def test_box_solve_equals_its_numpy_oracle_bit_for_bit(problem):
    # every row of the stack feeds numpy the same products and solves as
    # the oracle does for it alone, so x, the residual and the step count
    # match exactly, whatever the other rows do
    import vck_lab.decomp as decomp
    Rb, starts = problem
    x, residuals, steps = decomp._box_solve(Rb, starts)
    for i, Rb_i in enumerate(Rb):
        want_x, want_residual, want_steps = box_solve_oracle(
            Rb_i, None if starts is None else starts[i])
        assert x[i].tobytes() == want_x.tobytes()
        assert residuals[i].hex() == want_residual.hex()
        assert steps[i] == want_steps


def test_weighted_fit_survives_tiny_negative_coefficient():
    # the bounded solve once returned a gamma of -2**-55 here, which
    # CylinderTerm refuses; the adversary sweep then exited 2
    pattern = random_pattern(2, 1, 0.5, 21000, trial=2)
    d, report = fit_weighted_cylinders(pattern, 1, 4, seed=1101169394970103031,
                                       init_mode="random")
    assert all(0 <= t.gamma <= 1 for t in d.terms)
    assert report.error <= report.baseline


def test_adversary_seed_with_tiny_negative_coefficient_exits_0(tmp_path):
    assert cli_main(["adversary", "--k", "1", "--d", "2", "--trials", "3",
                     "--seed", "21000", "--out", str(tmp_path / "x.csv")]) == 0


def test_weighted_fit_continues_without_positive_residual():
    # the greedy loop once stopped here at 3 terms and error 1.2e-8, the
    # first time no residual entry was positive to seed a term from
    f = boolean_of_lower_arity(3, 1, 4, (16, 16, 16), seed=15).relation
    _, report = fit_weighted_cylinders(f, 1, 16)
    assert report.error <= 1e-12


@pytest.mark.parametrize("n_max", [1, 3])
def test_weighted_fit_without_sweeps_never_ends_above_baseline(n_max):
    # random factors with no refinement once ended at 0.599 against a
    # baseline of 0.284 and raised; the constant fit now stands in
    space = PartiteSpace.uniform([2, 3, 2])
    f = MeasuredFunction(space, (0, 1, 2), np.random.default_rng(1).random((2, 3, 2)))
    decomposition, report = _same_fit(f, 2, n_max, init_mode="random", als_iters=0)
    assert report.error <= report.baseline + 1e-12
    assert report.n == 1 and float(decomposition.terms[0].gamma) == integrate(f)
    assert len(report.sweeps_per_term) == report.n


def test_auto_fit_above_baseline_still_raises(monkeypatch):
    # auto mode already keeps the better of the seeded and the constant first
    # term, so a final error above the baseline means the running residual
    # and the recomputed error disagree: that must not pass as a fit
    import vck_lab.decomp as decomp
    space = PartiteSpace.uniform([2, 3, 2])
    f = MeasuredFunction(space, (0, 1, 2), np.random.default_rng(1).random((2, 3, 2)))
    calls = []
    real = decomp.l2_error

    def disagreeing(f, d):  # only the first recomputed error is off
        calls.append(d)
        return 1.0 if len(calls) == 1 else real(f, d)

    monkeypatch.setattr(decomp, "l2_error", disagreeing)
    with pytest.raises(NumericalFailureError, match="exceeds constant baseline"):
        decomp.fit_weighted_cylinders(f, 2, 3)


# -- the fitter against its full-grid form ---------------------------------------------

def _same_fit(f, k, n_max, **kwargs):
    decomposition, report = fit_weighted_cylinders(f, k, n_max, **kwargs)
    _, expected = fit_weighted_cylinders_oracle(f, k, n_max, **kwargs)
    assert report.n == expected.n
    assert abs(report.error - expected.error) <= 1e-9
    assert report.baseline == expected.baseline
    return decomposition, report


@pytest.mark.parametrize("d", [2, 4, 8, 16])
@pytest.mark.parametrize("init_mode", ["auto", "random"])
def test_vector_sweeps_match_full_grid_fits(d, init_mode):
    for trial in range(3):
        pattern = random_pattern(d, 1, 0.5, 1000 + d, trial)
        _same_fit(pattern, 1, 4, seed=trial, init_mode=init_mode)


@pytest.mark.parametrize("seed", [1, 15, 1000])
def test_vector_sweeps_match_full_grid_on_three_ary_boolcomb(seed):
    # the structure workload's instance and fit
    f = boolean_of_lower_arity(3, 1, 4, (16, 16, 16), seed=seed).relation
    _, report = _same_fit(f, 1, 16)
    assert sum(report.sweeps_per_term) == report.iterations
    assert len(report.sweeps_per_term) == report.n


def test_cylinder_sweeps_match_full_grid_on_parity_triple():
    _same_fit(parity_triple(5, seed=1).relation, 2, 6, seed=1)


def test_vector_sweeps_keep_zero_weight_vertices():
    # the factor entries of a massless vertex keep their start values
    space = PartiteSpace((Part("a", 3, (Fraction(1, 2), Fraction(0), Fraction(1, 2))),
                          Part("b", 2, (Fraction(1, 2), Fraction(1, 2)))))
    values = np.array([[1.0, 0.0], [0.3, 0.7], [1.0, 1.0]])
    f = MeasuredFunction(space, (0, 1), values)
    decomposition, report = _same_fit(f, 1, 2, init_mode="random", seed=3)
    start = [rng.uniforms(3, rng.STREAM_INIT, 3, (counter << 8))[1]
             for counter in range(1, report.n + 1)]
    assert [t.factors[(0,)].values[1] for t in decomposition.terms] == start


# -- restarts fitted in lockstep ---------------------------------------------------------

def _fit_bits(decomposition, report) -> tuple:
    """Everything a fit returns, as exact values."""
    terms = tuple((term.gamma, tuple((pos, factor.values.tobytes(), factor.name)
                                     for pos, factor in term.factors.items()))
                  for term in decomposition.terms)
    return (terms, report.error.hex(), report.n, report.iterations, report.bvls_steps,
            report.seed, report.baseline.hex(), report.sweeps_per_term,
            tuple(e.hex() for e in report.sweep_errors))


def _assert_members_equal_single_fits(fs, k, n_max, restarts, als_iters=25):
    batched = fit_weighted_restarts(fs, k, n_max, restarts, als_iters=als_iters)
    assert len(batched) == len(fs)
    for f, fits in zip(fs, batched):
        assert len(fits) == len(restarts)
        for (seed, mode), fit in zip(restarts, fits):
            single = fit_weighted_cylinders(f, k, n_max, als_iters=als_iters, seed=seed,
                                            init_mode=mode)
            assert _fit_bits(*fit) == _fit_bits(*single)


@st.composite
def lockstep_targets(draw):
    """k = 1 targets: random 2-ary patterns (d = 2 ones turn exact early),
    random 2- and 3-ary values, and parts with zero-weight vertices."""
    kind = draw(st.sampled_from(["pattern", "values", "massless"]))
    seed = draw(st.integers(0, 2 ** 16))
    if kind == "pattern":
        return random_pattern(draw(st.integers(1, 8)), 1, 0.5, seed,
                              draw(st.integers(0, 3)))
    sizes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=3))
    values = np.random.default_rng(seed).random(sizes)
    if kind == "values":
        return MeasuredFunction(PartiteSpace.uniform(sizes), tuple(range(len(sizes))), values)
    parts = []
    for i, size in enumerate(sizes):
        heavy = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        heavy[0] = True
        weights = [Fraction(int(h), sum(heavy)) for h in heavy]
        parts.append(Part(f"p{i}", size, tuple(weights)))
    return MeasuredFunction(PartiteSpace(tuple(parts)), tuple(range(len(sizes))), values)


@st.composite
def lockstep_groups(draw):
    """One to three targets on one space and signature: a lockstep target
    and further values on its grid, Boolean ones beside a pattern."""
    f = draw(lockstep_targets())
    group = [f]
    for seed in draw(st.lists(st.integers(0, 2 ** 16), max_size=2)):
        values = np.random.default_rng(seed).random(f.shape)
        if isinstance(f, Relation):
            group.append(Relation(f.space, f.signature, (values < 0.5).astype(float)))
        else:
            group.append(MeasuredFunction(f.space, f.signature, values))
    return group


@settings(max_examples=60, deadline=None)
@given(fs=lockstep_groups(), n_max=st.integers(1, 5),
       als_iters=st.sampled_from([0, 1, 3, 25]),
       restarts=st.lists(st.tuples(st.integers(0, 2 ** 63 - 1),
                                   st.sampled_from(["auto", "random"])),
                         min_size=1, max_size=6))
@example(fs=[random_pattern(2, 1, 0.5, 21000, trial=2)], n_max=4, als_iters=25,
         restarts=[(1101169394970103031, "random"), (3, "auto"), (4, "random")])
@example(fs=[random_pattern(8, 1, 0.5, 9201, trial) for trial in range(3)], n_max=4,
         als_iters=25, restarts=[(0, "auto"), (1, "random"), (2, "random")])
def test_lockstep_members_equal_their_single_fits(fs, n_max, als_iters, restarts):
    _assert_members_equal_single_fits(fs, 1, n_max, restarts, als_iters)


def test_lockstep_members_diverge_and_still_equal_single_fits():
    # d = 2 patterns turn exact before 4 terms, so members stop at different
    # rounds, within one target and across the targets of one group; the
    # parity fits are k = 2
    restarts = [(0, "auto"), (1, "random"), (2, "random"), (3, "random"), (4, "auto")]
    _assert_members_equal_single_fits(
        [random_pattern(2, 1, 0.5, 3, trial) for trial in range(4)], 1, 4, restarts)
    _assert_members_equal_single_fits(
        [boolean_of_lower_arity(3, 1, 4, (6, 6, 6), seed=3).relation], 1, 6, restarts)
    _assert_members_equal_single_fits(
        [parity_triple(4, seed=seed).relation for seed in (1, 2)], 2, 4, restarts[:3])


def test_lockstep_targets_must_share_space_and_signature():
    f = random_pattern(3, 1, 0.5, 5)
    other_grid = random_pattern(4, 1, 0.5, 5)
    transposed = MeasuredFunction(f.space, (1, 0), f.values)
    for fs in ([], [f, other_grid], [f, transposed]):
        with pytest.raises(InvalidArgumentError):
            fit_weighted_restarts(fs, 1, 2, [(0, "auto")])


def test_lockstep_random_fallback_runs_for_its_member_alone():
    # the random member of this batch ends above the baseline without sweeps
    # and falls back to the constant fit; its neighbours do not
    space = PartiteSpace.uniform([2, 3, 2])
    f = MeasuredFunction(space, (0, 1, 2), np.random.default_rng(1).random((2, 3, 2)))
    restarts = [(0, "auto"), (0, "random"), (5, "random")]
    _assert_members_equal_single_fits([f], 2, 3, restarts, als_iters=0)
    (_, auto), (fallback, random_fit), _ = fit_weighted_restarts([f], 2, 3, restarts, 0)[0]
    assert fallback.terms[0].gamma == Fraction(integrate(f)) and random_fit.n == 1
    assert auto.n > 1


def test_lockstep_batches_split_at_the_array_cap(monkeypatch):
    import vck_lab.decomp as decomp
    f = random_pattern(4, 1, 0.5, 17, 0)
    restarts = [(seed, "auto" if seed == 0 else "random") for seed in range(5)]
    whole = [_fit_bits(*fit) for fit in fit_weighted_restarts([f], 1, 4, restarts)[0]]
    sizes = []
    real_run = decomp._WeightedFit.run

    def counting_run(self, runs):
        sizes.append(len(runs))
        return real_run(self, runs)

    monkeypatch.setattr(decomp._WeightedFit, "run", counting_run)
    per_member = 16 * (4 + 1)  # grid cells times n_max + 1
    for cap, expected in ((3 * per_member, [2, 3]), (per_member, [1] * 5), (1, [1] * 5)):
        sizes.clear()
        monkeypatch.setattr(defaults, "ARRAY_CAP", cap)
        assert [_fit_bits(*fit) for fit in fit_weighted_restarts([f], 1, 4, restarts)[0]] == whole
        assert sizes == expected  # the auto run brings its constant rival


def test_weighted_fits_refuse_more_coordinate_sets_than_the_counter_keys():
    # a seeded factor's counter is (round << 8) | set: for a 9-ary target at
    # k = 5 (381 sets) set 256 drew set 0's uniforms
    E9 = quasirandom(PartiteSpace.uniform([2] * 9), tuple(range(9)), 0.5, seed=3)
    with pytest.raises(ResourceLimitError, match="381 coordinate sets"):
        fit_weighted_cylinders(E9, 5, 1, als_iters=0, init_mode="random")
    # 255 sets at k = 4 fit
    fit_weighted_cylinders(E9, 4, 1, als_iters=0, init_mode="random")


def test_boolean_fit_masks_are_held_to_the_array_cap(monkeypatch):
    # one full-grid mask per pool leaf, the default pool or a caller's own
    E = boolean_of_lower_arity(3, 1, 4, [8, 8, 8], seed=1).relation
    pool = fiber_pool(E, 1)
    entries = len(pool) * 8 ** 3
    monkeypatch.setattr(defaults, "ARRAY_CAP", entries)
    fit_boolean_cylinders(E, 1, 2)
    monkeypatch.setattr(defaults, "ARRAY_CAP", entries - 1)
    for own in (None, pool):
        with pytest.raises(ResourceLimitError, match=f"leaf masks would build {entries}"):
            fit_boolean_cylinders(E, 1, 2, pool=own)


def test_oversized_pool_is_refused_before_it_is_complete(monkeypatch):
    # the first coordinate set's leaves alone pass the lowered cap, so the
    # refusal counts them and no more: the other two sets are never cut
    E = boolean_of_lower_arity(3, 1, 4, [8, 8, 8], seed=1).relation
    pool = fiber_pool(E, 1)
    first = sum(leaf.positions == (0,) for leaf in pool) * 8 ** 3
    assert first < len(pool) * 8 ** 3
    monkeypatch.setattr(defaults, "ARRAY_CAP", first - 1)
    for build in (lambda: fiber_pool(E, 1), lambda: fit_boolean_cylinders(E, 1, 2)):
        with pytest.raises(ResourceLimitError,
                           match=f"the Boolean fit's leaf masks would build {first} entries"):
            build()


# -- per-sweep errors ---------------------------------------------------------------------

@pytest.mark.parametrize("init_mode", ["auto", "random"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_errors_fall_within_each_term_phase(init_mode, seed):
    f = boolean_of_lower_arity(3, 1, 4, (6, 6, 6), seed=seed).relation
    for target, k, n_max in ((f, 1, 6), (random_pattern(8, 1, 0.5, seed), 1, 4),
                             (parity_triple(4, seed=seed).relation, 2, 4)):
        _, report = fit_weighted_cylinders(target, k, n_max, seed=seed, init_mode=init_mode)
        assert len(report.sweep_errors) == report.iterations == sum(report.sweeps_per_term)
        start = 0
        for phase, count in enumerate(report.sweeps_per_term):
            errors = report.sweep_errors[start:start + count]
            rises = [i for i in range(1, count)
                     if errors[i] > errors[i - 1] + defaults.MONOTONE_SLACK]
            if phase == 0 and init_mode == "auto":
                # the constant first term's sweeps follow the seeded term's,
                # starting again from at most the baseline
                assert len(rises) <= 1
                assert all(errors[i] <= report.baseline + defaults.MONOTONE_SLACK
                           for i in rises)
            else:
                assert rises == []
            start += count
        assert report.error <= min(report.sweep_errors, default=math.inf) + 1e-9
        assert "sweep_errors" not in report.to_doc()
