"""The Philox kernel against numpy's Philox, its batched draws, and the
stream layout's refusals."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vck_lab import (boolean_of_lower_arity, parity_triple, quasirandomness_curve,
                     random_pattern, rng)
from vck_lab.adversary import pattern_norm, pattern_trials, random_patterns
from vck_lab.errors import InvalidArgumentError, ResourceLimitError
from vck_lab.space import index_sets, weighted_sum

from oracles import philox_oracle

seeds = st.integers(-2 ** 63, 2 ** 64 - 1)
streams = st.integers(0, 7)
counters = st.integers(0, 2 ** 32 - 1)


def _oracle(seed, stream, n, counter):
    return philox_oracle([seed % 2 ** 64, (stream << 32) | counter], n)


@settings(max_examples=150, deadline=None)
@given(seeds, streams, counters, st.integers(1, 4100))
@example(0, 0, 0, 1)
@example(2 ** 64 - 1, 7, 2 ** 32 - 1, 4099)
@example(-2 ** 63, 1, 0, 4100)
@example(-1, 6, 2 ** 32 - 1, 5)
def test_kernel_equals_numpy_philox(seed, stream, counter, n):
    got = rng.raw64(seed, stream, n, counter)
    assert got.shape == (n,) and got.dtype == np.uint64
    assert np.array_equal(got, _oracle(seed, stream, n, counter))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(seeds, counters), min_size=1, max_size=20), streams,
       st.integers(1, 70), st.booleans())
def test_batched_rows_equal_one_key_each(keys, stream, n, one_seed):
    # a row per key, whether seeds and counters both vary or one seed is shared
    seed_arg = keys[0][0] if one_seed else [s for s, _ in keys]
    got = rng.raw64(seed_arg, stream, n, [c for _, c in keys])
    assert got.shape == (len(keys), n)
    for row, (seed, counter) in zip(got, keys):
        assert np.array_equal(row, _oracle(keys[0][0] if one_seed else seed,
                                           stream, n, counter))


def test_draws_across_kernel_chunks_equal_numpy_philox():
    # chunks of blocks that span rows, and chunks inside one row
    n = 4 * (rng._CHUNK // 2) + 3
    got = rng.raw64([5, -6, 2 ** 64 - 1], rng.STREAM_INIT, n, [9, 0, 2 ** 32 - 1])
    for row, (seed, counter) in zip(got, [(5, 9), (-6, 0), (2 ** 64 - 1, 2 ** 32 - 1)]):
        assert np.array_equal(row, _oracle(seed, rng.STREAM_INIT, n, counter))
    n = 8 * rng._CHUNK + 5
    assert np.array_equal(rng.raw64(11, rng.STREAM_QUASIRANDOM, n, 3),
                          _oracle(11, rng.STREAM_QUASIRANDOM, n, 3))


def test_batched_draws_feed_every_distribution_row_by_row():
    for draw, args in ((rng.uniforms, (9,)), (rng.bernoulli, ((3, 4), 0.3)),
                       (rng.integers, (9, 5))):
        batched = draw([4, -4, 2 ** 64 - 1], rng.STREAM_INIT, *args, counter=[0, 7, 2 ** 32 - 1])
        for row, (seed, counter) in zip(batched, [(4, 0), (-4, 7), (2 ** 64 - 1, 2 ** 32 - 1)]):
            assert np.array_equal(row, draw(seed, rng.STREAM_INIT, *args, counter=counter))


@pytest.mark.parametrize("counter", [2 ** 32, 2 ** 33, -1, [0, 2 ** 32]])
def test_counters_outside_32_bits_are_refused(counter):
    # 2**32 of stream 1 was counter 0 of stream 2, 2**33 counter 0 of stream 3
    with pytest.raises(ResourceLimitError, match=r"\[0, 2\*\*32\)"):
        rng.raw64(0, rng.STREAM_PATTERN, 4, counter)


@pytest.mark.parametrize("n", [-1, -5])
def test_negative_draw_counts_are_refused(n):
    with pytest.raises(InvalidArgumentError, match="n >= 0"):
        rng.raw64(0, rng.STREAM_PATTERN, n)


def test_sweeps_past_65536_trials_or_sizes_are_refused():
    # (di << 16) | t: trial 65536 of the first size was trial 0 of the second
    assert pattern_trials(65536, 65536)[-1][-1] == 2 ** 32 - 1
    for sizes, trials in ((1, 65537), (65537, 1)):
        with pytest.raises(ResourceLimitError, match="65536"):
            pattern_trials(sizes, trials)
    with pytest.raises(ResourceLimitError, match="65536"):
        quasirandomness_curve(1, [2] * 65537, 1, 0)


@pytest.mark.filterwarnings("ignore:quasirandomness means inverted")
def test_curve_patterns_equal_random_pattern_per_trial():
    d_values, trials, k, p, seed = [2, 5, 3], 4, 1, 0.4, 11
    for di, (d, counters) in enumerate(zip(d_values, pattern_trials(3, trials))):
        batched = random_patterns(d, k, p, seed, counters)
        single = [random_pattern(d, k, p, seed, trial=(di << 16) | t) for t in range(trials)]
        assert [H.values.tobytes() for H in batched] == [H.values.tobytes() for H in single]
    rows = quasirandomness_curve(k, d_values, trials, seed, p=p)
    for di, (d, row) in enumerate(zip(d_values, rows)):
        norms = [pattern_norm(random_pattern(d, k, p, seed, trial=(di << 16) | t))
                 for t in range(trials)]
        assert row["mean_norm"] == weighted_sum(norms) / trials


def test_generators_draw_their_documented_streams_in_batches():
    # boolcomb: counter 3i picks leaf i's coordinate set, 3i + 1 draws its tensor
    sizes, sets = (4, 5, 6), index_sets(3, 2)
    g = boolean_of_lower_arity(3, 2, 12, sizes, seed=8)
    for i, (positions, leaf) in enumerate(g.leaves):
        pick = int(rng.integers(8, rng.STREAM_BOOLCOMB, 1, len(sets), 3 * i)[0])
        assert positions == sets[pick]
        assert np.array_equal(leaf.values, rng.bernoulli(
            8, rng.STREAM_BOOLCOMB, tuple(sizes[p] for p in positions), 0.5, 3 * i + 1))
    # parity: counters 0, 1, 2 for F, G, H
    t = parity_triple(5, seed=3)
    for counter, rel in enumerate((t.F, t.G, t.H)):
        assert np.array_equal(rel.values,
                              rng.bernoulli(3, rng.STREAM_PARITY, (5, 5), 0.5, counter))
