"""Counter-based randomness with a documented stream layout.

All randomness in the package flows through Philox keyed by
``(seed, stream)``: the raw 64-bit Philox output is stable across platforms
and library versions, so identical config+seed yields bit-identical artifacts.

Stream layout (second key word)::

    stream = (STREAM_* << 32) | counter

where ``counter`` distinguishes consumers inside one operation (trial index,
leaf index, term index, ...).  New stream ids must be appended, never reused.
"""

from __future__ import annotations

import numpy as np

from .errors import indices

STREAM_PATTERN = 1      # adversary.random_pattern trials
STREAM_QUASIRANDOM = 2  # gen.quasirandom tensors
STREAM_BOOLCOMB = 3     # gen.boolean_of_lower_arity (leaves, shapes, tensors)
STREAM_PARITY = 4       # gen.parity_triple (F, G, H)
STREAM_POOL = 5         # retired (decomp's fiber pool draws nothing); id kept reserved
STREAM_INIT = 6         # decomp randomized factor initialization
STREAM_SCORE = 7        # adversary.inapproximability_score restarts

_U53 = float(2**-53)


def _bit_generator(seed: int, stream: int, counter: int = 0) -> np.random.Philox:
    seed, stream, counter = indices((seed, stream, counter), "seeds, streams and counters")
    key = np.array([seed & (2**64 - 1), ((stream << 32) | counter) & (2**64 - 1)],
                   dtype=np.uint64)
    return np.random.Philox(key=key)


def raw64(seed: int, stream: int, n: int, counter: int = 0) -> np.ndarray:
    return _bit_generator(seed, stream, counter).random_raw(n)


def uniforms(seed: int, stream: int, n: int, counter: int = 0) -> np.ndarray:
    """n doubles in [0, 1), each from the top 53 bits of one raw draw."""
    return (raw64(seed, stream, n, counter) >> np.uint64(11)).astype(np.float64) * _U53


def bernoulli(seed: int, stream: int, shape, p: float, counter: int = 0) -> np.ndarray:
    """0/1 float64 tensor with i.i.d. Bernoulli(p) entries, row-major draw order."""
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    u = uniforms(seed, stream, n, counter)
    return (u < p).astype(np.float64).reshape(shape)


def integers(seed: int, stream: int, n: int, bound: int, counter: int = 0) -> np.ndarray:
    """n integers in [0, bound) by rejection-free modulo of raw draws.

    Modulo bias is < bound / 2**64, irrelevant for the tiny bounds used here.
    """
    return (raw64(seed, stream, n, counter) % np.uint64(bound)).astype(np.int64)
