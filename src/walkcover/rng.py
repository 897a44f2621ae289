"""Counter-based random streams for reproducible parallel simulation.

Philox-4x32 (10 rounds), vectorized with numpy integer arithmetic.  The
64-bit seed forms the key; the 128-bit counter encodes ``(block, walk)``,
so every walk owns an independent stream addressed purely by its index.
Draws therefore depend only on ``(seed, walk, position-in-stream)`` and
results are identical under any batching or thread schedule.

Walk steps follow stream version 2 (:data:`STREAM_VERSION`).  With
``n = nsides`` and ``k`` the largest integer such that ``n**k <= 2**32``
(12 for n = 6), value ``v`` of a walk is the 64-bit number whose high and
low halves are words ``2v`` and ``2v + 1`` of its stream.  Its k-step
string ``floor(value * n**k / 2**64)`` (:func:`walk_values`) holds steps
``k v .. k v + k - 1`` as its k base-n digits, most significant first
(:func:`value_digits`): the first k base-n digits of the fraction
``value / 2**64``.  Each k-step string then has probability ``n**-k``
within a relative error of ``n**k / 2**64 <= 2**-32``, and exactly
``n**-k`` when n is a power of two.
"""

from __future__ import annotations

import numpy as np

# the version of the walk-step stream: any change to the steps drawn for
# a given (seed, walk) bumps it
STREAM_VERSION = 2

_FACTORS = (0xD2511F53, 0xCD9E8D57)
_BUMPS = (0x9E3779B9, 0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def philox4x32(c0, c1, c2, c3, k0, k1, rounds: int = 10):
    """One Philox-4x32 block per element of the counter words ``c0..c3``
    (uint32 values that broadcast to a common shape) under the key
    ``(k0, k1)`` (two uint32 scalars); returns the four output words as
    uint32 arrays of that shape.

    Words are held in uint64 so each 32x32-bit product is exact.  The two
    multiplied words (x0, x2) share one array and the two xored words
    (x1, x3) another, so a round is five array operations."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in (c0, c1, c2, c3)))
    mul = np.empty((2,) + shape, np.uint64)
    xor = np.empty_like(mul)
    mul[0], mul[1], xor[0], xor[1] = c0, c2, c1, c3
    column = (2,) + (1,) * len(shape)
    factors = np.array(_FACTORS, np.uint64).reshape(column)
    key = [int(np.squeeze(k0)), int(np.squeeze(k1))]
    for _ in range(rounds):
        prod = (mul * factors)[::-1]  # (M1 * x2, M0 * x0)
        mul = (prod >> _SHIFT32) ^ xor ^ np.array(key, np.uint64).reshape(column)
        xor = prod & _MASK32
        key = [(k + b) & 0xFFFFFFFF for k, b in zip(key, _BUMPS)]
    x0, x2 = mul.astype(np.uint32)
    x1, x3 = xor.astype(np.uint32)
    return x0, x1, x2, x3


def check_seed(seed: int) -> int:
    """The seed as a Philox key; a seed outside [0, 2**64) would alias another."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return int(seed)


def walk_words(seed: int, walk_ids: np.ndarray, block0: int, nblocks: int) -> np.ndarray:
    """Raw uint32 words for each walk: words ``4*block0 .. 4*(block0 +
    nblocks) - 1`` of each walk's stream; shape (len(walk_ids), 4*nblocks)."""
    seed = check_seed(seed)
    ids = np.asarray(walk_ids, np.uint64)[:, None]
    blocks = block0 + np.arange(nblocks, dtype=np.uint64)[None, :]
    words = philox4x32(blocks & _MASK32, blocks >> _SHIFT32, ids & _MASK32, ids >> _SHIFT32,
                       seed & 0xFFFFFFFF, seed >> 32)
    return np.stack(words, axis=-1).reshape(ids.shape[0], 4 * nblocks)


def steps_per_value(nsides: int) -> int:
    """Steps drawn from one 64-bit value: the largest k with
    ``nsides**k <= 2**32``."""
    if not 2 <= nsides <= 1 << 16:
        raise ValueError(f"nsides must be in [2, 65536], got {nsides}")
    k = 1
    while nsides ** (k + 1) <= 1 << 32:
        k += 1
    return k


def walk_values(seed: int, walk_ids: np.ndarray, v0: int, nvalues: int,
                nsides: int) -> np.ndarray:
    """Values ``v0 .. v0+nvalues-1`` of each walk as k-step strings ``floor(value *
    nsides**k / 2**64)`` (stream version 2); uint32, shape (len(walk_ids), nvalues)."""
    block0, odd = divmod(v0, 2)  # two values per Philox block
    words = walk_words(seed, walk_ids, block0, (odd + nvalues + 1) // 2)
    words = words[:, 2 * odd:2 * (odd + nvalues)].astype(np.uint64)
    hi, lo = words[:, 0::2], words[:, 1::2]
    scale = np.uint64(nsides ** steps_per_value(nsides))
    # floor(value * scale / 2**64), exact: with scale <= 2**32 the sum
    # below is at most 2**64 - 1
    return ((hi * scale + ((lo * scale) >> _SHIFT32)) >> _SHIFT32).astype(np.uint32)


def value_digits(q: np.ndarray, nsides: int, k: int) -> np.ndarray:
    """The k base-``nsides`` digits (steps) of each q, most significant first."""
    digits = np.empty(q.shape + (k,), np.min_scalar_type(nsides - 1))
    base = np.uint32(nsides)
    for j in range(k - 1, -1, -1):
        rest = q // base
        digits[..., j] = q - rest * base
        q = rest
    return digits


def walk_directions(seed: int, walk_ids: np.ndarray, step0: int, nsteps: int,
                    nsides: int) -> np.ndarray:
    """Steps ``step0 .. step0+nsteps-1`` of each walk as int64 values in
    ``[0, nsides)``, by stream version 2 (see the module docstring);
    shape (len(walk_ids), nsteps)."""
    k = steps_per_value(nsides)
    v0, skip = divmod(step0, k)
    nvalues = -(-(skip + nsteps) // k)
    digits = value_digits(walk_values(seed, walk_ids, v0, nvalues, nsides), nsides, k)
    # a contiguous result: gathers indexed by it run several times faster
    return digits.reshape(len(walk_ids), nvalues * k)[:, skip:skip + nsteps].astype(np.int64)


def fresh_seed() -> int:
    """A seed drawn from the OS entropy pool (callers echo it back so
    nothing is silently irreproducible)."""
    import secrets

    return secrets.randbits(64)
