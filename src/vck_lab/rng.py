"""Counter-based randomness with a documented stream layout.

All randomness flows through Philox4x64-10 (Salmon et al., SC 2011) in numpy
integer arithmetic, so identical config+seed yields bit-identical artifacts
on every platform, the words of numpy's ``Philox(key).random_raw(n)`` for::

    key = (seed mod 2**64, (STREAM_* << 32) | counter),  0 <= counter < 2**32

``counter`` tells consumers inside one operation apart (trial, leaf, term,
...); other counters are refused.  Draw word 4j + i is word i of the block
for counter (j + 1, 0, 0, 0): 10 rounds (c0, c1, c2, c3) -> (hi(M1 c2) ^ c1 ^
k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)) of 128-bit products, M0 =
0xD2E7470EE14C6C93, M1 = 0xCA5A826395121157, the key (k0, k1) bumped by
(0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B) between rounds.  New stream ids
must be appended, never reused.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError, indices

STREAM_PATTERN = 1      # adversary.random_pattern trials
STREAM_QUASIRANDOM = 2  # gen.quasirandom tensors
STREAM_BOOLCOMB = 3     # gen.boolean_of_lower_arity (leaves, shapes, tensors)
STREAM_PARITY = 4       # gen.parity_triple (F, G, H)
STREAM_POOL = 5         # retired (decomp's fiber pool draws nothing); id kept reserved
STREAM_INIT = 6         # decomp randomized factor initialization
STREAM_SCORE = 7        # adversary.inapproximability_score restarts

_U53 = float(2**-53)
# (M0, M1), whole and in 32-bit halves, and the key bump, stored (k1, k0)
_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_LOW, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_M_LO, _M_HI = _M & _LOW, _M >> _32
_BUMP = np.array([[0xBB67AE8584CAA73B], [0x9E3779B97F4A7C15]], dtype=np.uint64)
_CHUNK = 1 << 14  # blocks computed at once: each temporary is 256 KiB


def _blocks(keys: np.ndarray, counters: np.ndarray, out: np.ndarray) -> None:
    """Philox blocks of the counters under the keys, (k1, k0) per column, into
    ``out``'s rows; the state (c0, c2), (c1, c3) takes a round's products at once."""
    even, odd = np.zeros((2, 2, len(counters)), dtype=np.uint64)
    even[0] = counters
    for r in range(10):
        lo, hi = even & _LOW, even >> _32
        mid = hi * _M_LO
        mid += (lo * _M_LO) >> _32
        lo *= _M_HI
        lo += mid & _LOW
        hi *= _M_HI
        hi += mid >> _32
        hi += lo >> _32
        hi ^= odd[::-1]
        hi ^= keys + r * _BUMP
        even, odd = hi[::-1], (even * _M)[::-1]
    out[:, 0::2], out[:, 1::2] = even.T, odd.T


def raw64(seed, stream: int, n: int, counter=0) -> np.ndarray:
    """n raw 64-bit draws of the stream.  If seed or counter is a sequence,
    the two broadcast together and the draws are one row of n per key."""
    seeds, counters = np.broadcast_arrays(np.asarray(seed, dtype=object),
                                          np.asarray(counter, dtype=object))
    batched, (stream, n) = seeds.ndim > 0, indices((stream, n), "streams and counts")
    seeds, counters = (indices(a.flat, "seeds and counters") for a in (seeds, counters))
    if not all(0 <= c < 2**32 for c in counters):
        raise ResourceLimitError("random stream counters must lie in [0, 2**32)")
    if n < 0:
        raise InvalidArgumentError(f"need n >= 0 draws, got {n}")
    keys = np.array([[((stream << 32) | c) % 2**64 for c in counters],
                     [s % 2**64 for s in seeds]], dtype=np.uint64)
    blocks = -(-n // 4)
    out = np.empty((len(seeds) * blocks, 4), dtype=np.uint64)
    for start in range(0, len(out), _CHUNK):
        cells = np.arange(start, min(start + _CHUNK, len(out)))
        rows = cells // blocks  # a chunk inside one row takes its key once
        _blocks(keys[:, rows if rows[0] < rows[-1] else rows[:1]], cells % blocks + 1,
                out[start:start + _CHUNK])
    out = out.reshape(len(seeds), 4 * blocks)[:, :n]
    return out if batched else out[0]


def uniforms(seed, stream: int, n: int, counter=0) -> np.ndarray:
    """n doubles in [0, 1), each from the top 53 bits of one raw draw."""
    return (raw64(seed, stream, n, counter) >> np.uint64(11)).astype(np.float64) * _U53


def bernoulli(seed, stream: int, shape, p: float, counter=0) -> np.ndarray:
    """0/1 float64 tensor with i.i.d. Bernoulli(p) entries, row-major draw
    order; one such tensor per key if seed or counter is a sequence."""
    u = uniforms(seed, stream, int(np.prod(shape, dtype=np.int64)), counter)
    return (u < p).astype(np.float64).reshape(u.shape[:-1] + tuple(shape))


def integers(seed, stream: int, n: int, bound: int, counter=0) -> np.ndarray:
    """n integers in [0, bound) by rejection-free modulo of raw draws.

    Modulo bias is < bound / 2**64, irrelevant for the tiny bounds used here.
    """
    return (raw64(seed, stream, n, counter) % np.uint64(bound)).astype(np.int64)
