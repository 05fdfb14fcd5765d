"""Keyed, counter-based randomness helpers.

Every stochastic component of this package derives its randomness from
explicit integer keys rather than shared global state, so that results are
reproducible bit-for-bit and independent of how work is partitioned across
workers.  Scalar key derivation uses the SplitMix64 finalizer; bulk per-item
hashes use the same mix applied to vectors of item indices.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """SplitMix64 avalanche of a 64-bit integer (scalar, pure python)."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def derive_key(*fields: int) -> int:
    """Hash a tuple of nonnegative integers into one 64-bit stream key.

    Chaining is order-sensitive, so (a, b) and (b, a) land in unrelated
    streams.  Used for per-replica seeds and as the base of per-pair keys.
    """
    h = 0
    for f in fields:
        h = mix64(h ^ (int(f) & _MASK64))
    return h


def mix64_array(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized SplitMix64 finalizer over a uint64 array.

    Writes into ``out`` when given; ``out`` may be ``x`` itself.
    """
    x = np.add(x, np.uint64(_GOLDEN), out=out)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def row_keys(base_key: int, count: int) -> np.ndarray:
    """The first half ``mix64(base_key ^ i)`` of the per-item hash, i < count.

    Gathering these by ``i`` and passing them to :func:`pair_hashes` gives
    the item (i, j) its hash ``mix64(mix64(base_key ^ i) ^ j)``, at one hash
    per row instead of two per item.  The value depends only on (base_key,
    i, j), never on the position of the item within the arrays, which is what
    makes merged results from any partitioning of the items identical to a
    serial pass.
    """
    return mix64_array(np.uint64(base_key & _MASK64) ^ np.arange(count, dtype=np.uint64))


def pair_hashes(row_key: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Finish the per-item 64-bit hash ``mix64(row_key ^ j)`` from gathered
    row keys, in a new array.  A uint64 ``j`` is read in place, any other
    integer dtype is copied."""
    h = np.bitwise_xor(row_key, j.astype(np.uint64, copy=False))
    return mix64_array(h, out=h)


def philox(*key_fields: int) -> np.random.Generator:
    """A numpy Generator on a Philox stream keyed by the given integers.

    The key is (lo, hi) = (``derive_key(*key_fields)``, ``derive_key(lo,
    *key_fields)``) as :func:`stored_philox_keys` rounds it."""
    lo = derive_key(*key_fields)
    hi = derive_key(lo, *key_fields)
    key = stored_philox_keys(np.array([[lo, hi]], dtype=np.uint64))[0]
    return np.random.Generator(np.random.Philox(key=key))


def stored_philox_keys(keys: np.ndarray) -> np.ndarray:
    """Round in place each (lo, hi) row of an (n, 2) uint64 array to the key
    ``np.random.Philox(key=(lo, hi))`` stores for a tuple of Python ints.

    numpy reads a tuple with one half at or above 2**63 and one below as
    float64, so such a row keeps both halves rounded to 53 significant bits
    (``derive_key(3, 5)`` = 14871207630202690639 is kept as
    14871207630202691584); the other rows, about half, are kept exactly.
    Dropping the rounding would change every stream, so it waits for a change
    that alters the streams anyway."""
    straddle = (keys[:, 0] ^ keys[:, 1]) >= np.uint64(1 << 63)
    keys[straddle] = keys[straddle].astype(np.float64).astype(np.uint64)
    return keys


def philox_round_keys(seed: int, first: int, count: int) -> np.ndarray:
    """The stored keys of ``philox(seed, r)`` for the ``count`` rounds r from
    ``first`` on, as a (count, 2) uint64 array: the scalar chain of
    :func:`philox` run by :func:`mix64_array` over all the rounds at once."""
    rounds = np.arange(count, dtype=np.uint64) + np.uint64(first)
    keys = np.empty((count, 2), dtype=np.uint64)
    lo, hi = keys[:, 0], keys[:, 1]
    mix64_array(np.uint64(mix64(seed)) ^ rounds, out=lo)
    mix64_array(lo, out=hi)
    hi ^= np.uint64(seed)
    mix64_array(hi, out=hi)
    hi ^= rounds
    mix64_array(hi, out=hi)
    return stored_philox_keys(keys)


# A Philox counter, and its output buffer, before the first draw.
_PHILOX_START = np.zeros(4, dtype=np.uint64)


def rekey(rng: np.random.Generator, key: np.ndarray) -> np.random.Generator:
    """Put the Philox generator ``rng`` in the state a new
    ``np.random.Philox(key=key)`` starts in, whatever it has drawn: counter
    0, the given stored key, an empty buffer and no spare 32-bit half.  It
    then draws what ``philox`` draws for that key, without building a
    generator."""
    rng.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": _PHILOX_START, "key": key},
                               "buffer": _PHILOX_START, "buffer_pos": _PHILOX_START.size,
                               "has_uint32": 0, "uinteger": 0}
    return rng
