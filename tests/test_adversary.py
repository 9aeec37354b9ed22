"""Adversarial replacement measures and quasirandomness measurement."""

import os
import pathlib
import select
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vck_lab import (Box, MeasuredFunction, PartiteSpace, defaults,
                     Relation, adversary, build_instance, check_shattered,
                     inapproximability_score, integrate, level_set,
                     membership_gadget, pattern_norm, quasirandomness_curve,
                     random_pattern)
from vck_lab.adversary import inapproximability_scores
from vck_lab.errors import InvalidArgumentError, NumericalFailureError

from oracles import inapproximability_score_oracle


# -- pattern generation ---------------------------------------------------------

def test_pattern_degenerate_probabilities():
    assert np.all(random_pattern(4, 1, 0.0, 1).values == 0.0)
    assert np.all(random_pattern(4, 1, 1.0, 1).values == 1.0)


@pytest.mark.parametrize("p", [True, np.True_, "1"])
def test_pattern_probability_must_be_a_number(p):
    with pytest.raises(InvalidArgumentError, match="must be numbers"):
        random_pattern(2, 1, p, 0)


def test_zero_ary_pattern_refused():
    # k = -1 once drew a 0-ary "pattern", a single value
    with pytest.raises(InvalidArgumentError, match="d and k must be >= 0, got -1"):
        random_pattern(2, -1, 0.5, 0)


def test_pattern_density_within_binomial_band():
    # 512 cells at p = 1/2: three sigma is ~0.066
    H = random_pattern(8, 2, 0.5, seed=2024)
    density = H.values.mean()
    assert abs(density - 0.5) < 0.08


def test_pattern_deterministic_per_seed():
    a = random_pattern(6, 1, 0.5, seed=9, trial=3)
    b = random_pattern(6, 1, 0.5, seed=9, trial=3)
    c = random_pattern(6, 1, 0.5, seed=9, trial=4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


# -- instance construction ---------------------------------------------------------

def test_full_pattern_on_constant_function():
    space = PartiteSpace.uniform([3, 4])
    f = MeasuredFunction.constant(space, (0, 1), 1.0)
    H = random_pattern(2, 1, 1.0, 0)
    inst = build_instance(f, {0: (0, 1), 1: (1, 2)}, H)
    assert integrate(inst.function) == 1.0


def test_single_point_pattern_is_point_mass():
    space = PartiteSpace.uniform([3, 4])
    vals = np.random.default_rng(3).random((3, 4))
    f = MeasuredFunction(space, (0, 1), vals)
    H = random_pattern(1, 1, 1.0, 0)
    inst = build_instance(f, {0: (2,), 1: (1,)}, H)
    assert integrate(inst.function) == pytest.approx(vals[2, 1], abs=1e-15)


def test_instance_weights_sum_exactly_to_one():
    g = membership_gadget(2, 1)
    cert = check_shattered(g, Box(((0, 1),)), 1, 0.5, 0.5)
    H = random_pattern(2, 1, 0.5, seed=5)
    inst = build_instance(g, cert, H)
    for weights in (p.weights for p in inst.replacement.parts):
        assert sum(weights, Fraction(0)) == 1


def test_membership_gadget_level_set_measure_matches_pattern():
    # the embedded level-set mass equals |H| / d**(k+1) exactly
    d = 2
    g = membership_gadget(d, 1)
    cert = check_shattered(g, Box((tuple(range(d)),)), 1, 0.5, 0.5)
    for seed in range(5):
        H = random_pattern(d, 1, 0.5, seed=seed)
        inst = build_instance(g, cert, H)
        low = level_set(inst.function, 0.5)
        got = Fraction(integrate(low)).limit_denominator(d ** 2)
        assert got == Fraction(int(H.values.sum()), d ** 2)


def test_half_pattern_gives_exactly_half_measure():
    d = 2
    g = membership_gadget(d, 1)
    cert = check_shattered(g, Box((tuple(range(d)),)), 1, 0.5, 0.5)
    vals = np.zeros((d, d))
    vals[0, 0] = vals[1, 1] = 1.0  # |H| = d**2 / 2
    H = Relation(PartiteSpace.uniform([d, d], ["P1", "P2"]), (0, 1), vals)
    inst = build_instance(g, cert, H)
    low = level_set(inst.function, 0.5)
    assert integrate(low) == 0.5


def test_anchor_coverage_enforced():
    space = PartiteSpace.uniform([3, 3, 3])
    f = MeasuredFunction.constant(space, (0, 1, 2), 0.5)
    H = random_pattern(2, 1, 0.5, 0)
    with pytest.raises(InvalidArgumentError):
        build_instance(f, {0: (0, 1), 1: (0, 1)}, H)  # coordinate 2 uncovered
    inst = build_instance(f, {0: (0, 1), 1: (0, 1)}, H, anchors={2: 1})
    assert float(inst.replacement.parts[2].weights[1]) == 1.0


@pytest.mark.parametrize("embedding, anchors", [
    ({0: (0, -1), 1: (0, 1)}, {2: 0}), ({0: (0, 1), 1: (0, 7)}, {2: 0}),
    ({0: (0, 1), 1: (0, 1)}, {2: -1}), ({0: (0, 1), 1: (0, 1)}, {2: 3}),
    ({0: (0, 1), 5: (0, 1)}, {1: 0, 2: 0})])
def test_vertices_outside_their_part_rejected(embedding, anchors):
    # -1 once read as the part's last vertex, and 7 raised a bare IndexError
    space = PartiteSpace.uniform([4, 4, 3])
    f = MeasuredFunction.constant(space, (0, 1, 2), 0.5)
    with pytest.raises(InvalidArgumentError, match=r"must be in \[0, [34]\), got"):
        build_instance(f, embedding, random_pattern(2, 1, 0.5, 0), anchors=anchors)


# -- quasirandomness curve -----------------------------------------------------------

def test_single_cell_pattern_norm_is_half():
    for p in (0.0, 1.0):
        H = random_pattern(1, 1, p, 0)
        assert pattern_norm(H) == 0.5


def test_full_pattern_norm_is_half_for_all_d():
    for d in (1, 2, 4):
        H = random_pattern(d, 1, 1.0, 0)
        assert pattern_norm(H) == pytest.approx(0.5, abs=1e-12)


def test_curve_means_decrease():
    rows = quasirandomness_curve(1, [2, 4, 8], trials=10, seed=77)
    means = [r["mean_norm"] for r in rows]
    assert means[0] > means[1] > means[2]


def test_curve_warns_on_inversion():
    # d repeated twice cannot strictly decrease; expect a soft warning at most
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        quasirandomness_curve(1, [2, 2], trials=3, seed=5)
    assert all(issubclass(w.category, UserWarning) for w in caught)


# -- inapproximability score -----------------------------------------------------------

def test_single_cylinder_pattern_score_near_zero():
    space = PartiteSpace.uniform([8, 8], ["P1", "P2"])
    col = np.zeros((8, 8))
    col[:4, :] = 1.0
    H = Relation(space, (0, 1), col)
    score = inapproximability_score(H, 1, 4, seed=0, restarts=2)
    assert score <= 1e-6


def test_random_pattern_score_calibrated_floor():
    # calibrated: measured 0.190 for this seed configuration; frozen at 0.15
    H = random_pattern(8, 1, 0.5, 42)
    score = inapproximability_score(H, 1, 4, seed=0, restarts=3)
    assert score >= 0.15


def test_overparameterized_score_near_zero():
    H = random_pattern(3, 1, 0.5, 11)
    score = inapproximability_score(H, 1, 9, seed=0, restarts=2)
    assert score <= 1e-6


def test_score_monotone_in_terms():
    H = random_pattern(6, 1, 0.5, 13)
    scores = [inapproximability_score(H, 1, n, seed=3, restarts=2)
              for n in (1, 2, 3, 4)]
    for a, b in zip(scores, scores[1:]):
        assert b <= a + 1e-9


def test_curve_refuses_no_trials():
    for trials in (0, -1):
        with pytest.raises(InvalidArgumentError):
            quasirandomness_curve(1, [2], trials, seed=0)


def test_score_refuses_no_restarts():
    H = random_pattern(3, 1, 0.5, 11)
    with pytest.raises(InvalidArgumentError):
        inapproximability_score(H, 1, 2, seed=0, restarts=0)


# -- scores fitted together -------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(k=st.integers(1, 2),
       group=st.lists(st.tuples(st.integers(1, 6), st.integers(0, 3)), min_size=1, max_size=3),
       N=st.integers(1, 4), restarts=st.integers(1, 3),
       pattern_seed=st.integers(0, 2 ** 16), fit_seed=st.integers(0, 2 ** 16))
def test_scores_equal_serial_restart_loop(k, group, N, restarts, pattern_seed, fit_seed):
    patterns = [random_pattern(d, k, 0.5, pattern_seed, trial) for d, trial in group]
    # three workers whatever this machine has, so forked children fit too
    with mock.patch.object(adversary, "_cpu_count", lambda: 3):
        scores, diagnostics = inapproximability_scores(patterns, k, N, seed=fit_seed,
                                                       restarts=restarts)
    expected = [inapproximability_score_oracle(H, k, N, seed=fit_seed, restarts=restarts)
                for H in patterns]
    assert scores == [score for score, _, _ in expected]
    # one task per pattern size, all restarts of all of its patterns
    assert diagnostics == {"workers": min(3, len({d for d, _ in group})),
                           "fits": len(patterns) * restarts,
                           "als_sweeps": sum(sweeps for _, sweeps, _ in expected),
                           "bvls_steps": sum(steps for _, _, steps in expected)}
    assert_no_children()


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_worker_equals_pool():
    # four sizes, so four tasks: one per pattern size, never one per pattern
    patterns = [random_pattern(d, 1, 0.5, 8, t) for d in (3, 5, 2, 4) for t in range(2)]
    runs = {}
    for cpus in (1, 2, 4, 8):
        with mock.patch.object(adversary, "_cpu_count", lambda: cpus):
            runs[cpus] = inapproximability_scores(patterns, 1, 3, seed=4, restarts=2)
    assert [diag["workers"] for _, diag in runs.values()] == [1, 2, 4, 4]
    serial_scores, serial = runs[1]
    for scores, diag in runs.values():
        assert scores == serial_scores
        assert (diag["als_sweeps"], diag["bvls_steps"]) == (serial["als_sweeps"],
                                                            serial["bvls_steps"])


def test_more_groups_than_a_byte_numbers_all_run_in_order():
    # 300 spaces, so 300 groups: the queue's group numbers need two bytes
    spaces = [PartiteSpace.uniform([2, 2], [f"A{i}", "B"]) for i in range(300)]
    functions = [MeasuredFunction(space, (0, 1), np.full((2, 2), i / 300))
                 for i, space in enumerate(spaces)]

    def stub(task):  # each function's value as its score
        return [(float(f.values[0, 0]), 1, 2) for f in task[0]]

    with mock.patch.object(adversary, "_cpu_count", lambda: 3), \
            mock.patch.object(adversary, "_group_fits", stub):
        scores, diagnostics = inapproximability_scores(functions, 1, 2, restarts=1)
    assert scores == [i / 300 for i in range(300)]
    assert diagnostics == {"workers": 3, "fits": 300, "als_sweeps": 300, "bvls_steps": 600}
    assert_no_children()


def test_a_failure_in_a_child_is_raised_here_and_no_child_is_left():
    parent = os.getpid()
    read_end, write_end = os.pipe()

    def stub(task):
        if os.getpid() != parent:
            os.write(write_end, b"x")
            raise NumericalFailureError("injected in a child")
        return [(0.0, 0, 0)] * len(task[0])

    def until_a_child_has_failed():
        assert select.select([read_end], [], [], 30)[0]

    patterns = [random_pattern(d, 1, 0.5, 1) for d in (4, 3, 2)]
    try:
        with mock.patch.object(adversary, "_cpu_count", lambda: 2), \
                mock.patch.object(adversary, "_group_fits", stub), \
                pytest.raises(NumericalFailureError, match="injected in a child"):
            inapproximability_scores(patterns, 1, 2, restarts=1,
                                     meanwhile=until_a_child_has_failed)
    finally:
        os.close(read_end)
        os.close(write_end)
    assert_no_children()


def test_groups_run_largest_grid_first():
    # the longest fits start earliest; the scores keep the input order
    patterns = [random_pattern(d, 1, 0.5, 2, t) for t in range(2) for d in (2, 4, 3)]
    real, sizes = adversary._group_fits, []

    def recording(task):
        sizes.append([f.shape for f in task[0]])
        return real(task)

    with mock.patch.object(adversary, "_cpu_count", lambda: 1), \
            mock.patch.object(adversary, "_group_fits", recording):
        scores, _ = inapproximability_scores(patterns, 1, 2, seed=1, restarts=2)
    assert sizes == [[(4, 4)] * 2, [(3, 3)] * 2, [(2, 2)] * 2]
    assert scores == [inapproximability_score(H, 1, 2, seed=1, restarts=2) for H in patterns]


def test_adversary_csv_equals_the_serial_restart_loop_golden(tmp_path, capsys):
    # captured from the per-restart fits before restarts ran in lockstep
    from vck_lab.cli import main
    out = tmp_path / "curve.csv"
    assert main(["adversary", "--k", "1", "--d", "2,4,8,16", "--trials", "6",
                 "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    golden = pathlib.Path(__file__).with_name("golden_adversary_k1_seed3.csv")
    assert out.read_bytes() == golden.read_bytes()


def test_scores_do_not_depend_on_the_batch_split():
    patterns = [random_pattern(d, 1, 0.5, 31, t) for d in (2, 5, 8) for t in range(2)]
    with mock.patch.object(adversary, "_cpu_count", lambda: 1):
        whole = inapproximability_scores(patterns, 1, 4, seed=6)
        # 64 cells x 5 columns fit twice at most: every batch of the largest
        # patterns splits, down to one restart per batch.  Five and eight
        # rows end a batch inside the second pattern's restarts (each
        # pattern's auto restart brings a rival row: six rows per pattern)
        for cap in (64 * 5 * 2, 64 * 5 * 5, 64 * 5 * 8, 1):
            with mock.patch.object(defaults, "ARRAY_CAP", cap):
                assert inapproximability_scores(patterns, 1, 4, seed=6) == whole
