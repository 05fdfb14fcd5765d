import numpy as np
import pytest

from crmgraph.rng import derive_key, philox, philox_round_keys, rekey

SEEDS = (0, 5, 7, 2**63 - 1, 2**63, 2**64 - 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_round_keys_are_the_keys_numpy_stores(seed):
    # numpy's own reading of the (lo, hi) tuple is the oracle, straddling
    # rows (one half at or above 2**63, one below) included
    keys = philox_round_keys(seed, 1, 300)
    straddle = 0
    for r, row in enumerate(keys, 1):
        lo = derive_key(seed, r)
        hi = derive_key(lo, seed, r)
        straddle += (lo >> 63) != (hi >> 63)
        assert row.tolist() == np.random.Philox(key=(lo, hi)).state["state"]["key"].tolist()
    assert 100 < straddle < 200


def test_round_keys_of_a_late_chunk_and_of_philox():
    first = 2**63 - 300
    keys = philox_round_keys(9, first, 300)
    for k in (0, 1, 150, 299):
        assert keys[k].tolist() == philox(9, first + k).bit_generator.state["state"]["key"].tolist()
    # the documented rounding: derive_key(3, 5) = 14871207630202690639
    assert philox(3, 5).bit_generator.state["state"]["key"][0] == 14871207630202691584


def test_rekey_resets_a_used_generator():
    rng = philox(11, 1)
    rng.integers(0, 2**32, size=3, dtype=np.uint32)  # leaves a spare 32-bit half
    rng.random(2)
    dirty = rng.bit_generator.state
    assert dirty["has_uint32"] == 1 and dirty["state"]["counter"].any()

    fresh = philox(11, 140)
    rekey(rng, philox_round_keys(11, 140, 1)[0])
    assert str(rng.bit_generator.state) == str(fresh.bit_generator.state)
    for ours, theirs in zip(draws(rng), draws(fresh)):
        assert np.array_equal(ours, theirs)


def draws(g):
    return [g.integers(0, 2**32, size=5, dtype=np.uint32), g.random(5),
            g.beta(0.9, np.arange(1.0, 6.0)), g.poisson(3.0, size=5)]
