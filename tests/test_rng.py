import numpy as np
import pytest

from crmgraph.rng import derive_key, philox, philox_keys, philox_streams, rekey

SEEDS = (0, 5, 7, 2**63 - 1, 2**63, 2**64 - 1)


def stored_key(*fields):
    """numpy's own reading of the (lo, hi) tuple of the scalar derive_key
    chains: the oracle, straddling rows (one half at or above 2**63, one
    below) included."""
    lo = derive_key(*fields)
    hi = derive_key(lo, *fields)
    return np.random.Philox(key=(lo, hi)).state["state"]["key"].tolist(), (lo >> 63) != (hi >> 63)


@pytest.mark.parametrize("seed", SEEDS)
def test_round_keys_are_the_keys_numpy_stores(seed):
    keys = philox_keys(seed, np.arange(1, 301, dtype=np.uint64))
    straddle = 0
    for r, row in enumerate(keys, 1):
        key, straddles = stored_key(seed, r)
        straddle += straddles
        assert row.tolist() == key
    assert 100 < straddle < 200


def test_round_keys_of_a_late_chunk_and_of_philox():
    first = 2**63 - 300
    keys = philox_keys(9, np.arange(first, first + 300, dtype=np.uint64))
    for k in (0, 1, 150, 299):
        assert keys[k].tolist() == philox(9, first + k).bit_generator.state["state"]["key"].tolist()
    # the documented rounding: derive_key(3, 5) = 14871207630202690639
    assert philox(3, 5).bit_generator.state["state"]["key"][0] == 14871207630202691584


def test_pair_keys_are_the_keys_numpy_stores():
    # the graph fallback's (base, i, j) keys, from int64 index arrays
    rng = np.random.default_rng(3)
    base = derive_key(1, 2)
    i = rng.integers(0, 10**4, size=400)
    j = i + 1 + rng.integers(0, 10**4, size=400)
    keys = philox_keys(base, i, j)
    assert keys.shape == (400, 2)
    straddle = 0
    for row, a, b in zip(keys, i.tolist(), j.tolist()):
        key, straddles = stored_key(base, a, b)
        straddle += straddles
        assert row.tolist() == key
    assert 100 < straddle < 300


def test_streams_draw_what_philox_draws():
    i = np.array([0, 3, 3, 7], dtype=np.int64)
    j = np.array([1, 4, 9, 8], dtype=np.int64)
    seen = 0
    for a, b, rng in zip(i.tolist(), j.tolist(), philox_streams(17, i, j)):
        for ours, theirs in zip(draws(rng), draws(philox(17, a, b))):
            assert np.array_equal(ours, theirs)
        seen += 1
    assert seen == i.size
    assert list(philox_streams(17, i[:0], j[:0])) == []


def test_rekey_resets_a_used_generator():
    rng = philox(11, 1)
    rng.integers(0, 2**32, size=3, dtype=np.uint32)  # leaves a spare 32-bit half
    rng.random(2)
    dirty = rng.bit_generator.state
    assert dirty["has_uint32"] == 1 and dirty["state"]["counter"].any()

    fresh = philox(11, 140)
    rekey(rng, philox_keys(11, 140)[0])
    assert str(rng.bit_generator.state) == str(fresh.bit_generator.state)
    for ours, theirs in zip(draws(rng), draws(fresh)):
        assert np.array_equal(ours, theirs)


def draws(g):
    return [g.integers(0, 2**32, size=5, dtype=np.uint32), g.random(5),
            g.beta(0.9, np.arange(1.0, 6.0)), g.poisson(3.0, size=5)]
