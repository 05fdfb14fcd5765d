"""Byte-identity guard: sha256 digests of outputs that no refactor may change.

The digests were taken from the code before the graph containers became
sorted arrays, the stress-scale ``generate`` digests from the code before
the draw walked atom pairs in index order, the stress-scale ``extend``
digests from the code before the zero test moved wholly into the draw, the
measure digests from the code before stick breaking kept one Philox
generator per measure, and the coupled desk sweep's digests from the code
that first drew each replica's trajectory with ``graphs.grow`` (a new count
stream).  A change that alters any of these bytes on purpose (a new random
stream, a new column) updates the digests here and says why.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from crmgraph import experiment, graphs
from crmgraph.cli import cli_dispatch
from crmgraph.experiment import DESK_PROFILE, run_sweep
from crmgraph.measures import BetaProcessParams, StickBreakingConfig, sample_three_param_bp

SWEEP_FILES = ("fits.csv", "fits.json", "hist.csv", "sweep.csv")

DESK_SEED_0 = {
    "fits.csv": "c0211d4f3013d409b4d06fc85d0d12c4e6be76fe91271a05258ce0d4b0b050f3",
    "fits.json": "5d38c9483011c50bc1546292cf3f1d4f902f4d0ff2670ee74b13b41ed090a265",
    "hist.csv": "caaccb697da48e86769e206e0238d3d4dd299dcf1f06c2edc479e5ea03be8cac",
    "sweep.csv": "261ce0a06e6bc4a6d76246d3a6a22509fc211523b941a30e87b32a59a5740d1f",
}

# Independent mode at discount 0.5: heavy pairs underflow the zero-count pmf
# (graphs._LOG_PMF0_MIN) and draw from the per-pair Philox fallback.
FALLBACK_SWEEP = replace(DESK_PROFILE, alpha=0.5, rounds=400, n_start=10_000,
                         n_stop=50_000, n_step=10_000, replicas=3,
                         growth_mode="independent", seed=0)
FALLBACK = {
    "fits.csv": "bfa699bb09712f17302fded07af8495c5a2e41fde055e1770c200536d83f42e3",
    "fits.json": "8f732bd3366b0a0f3bb69727a3a9aaa52d5acc6ca04995301281d72623fe0408",
    "hist.csv": "c028bbbebb50ca71847e4a2eb14e080391ef14ac166d154002c96ecb38fb3be9",
    "sweep.csv": "d81d87349990632c5d42fa8b21a2d092aab104c62d36a6aab9f398fd47a3302b",
}

# `measure --seed 3`, then `graph --n 5000 --seed 7` on it, and `stats --n 5000`
# on that edge list; both graph files give the same statistics.
GRAPH = {
    "multi.csv": "bef044d9129acd1eed0897862c48ddca015a701c466c05cc236496bc840bd1c1",
    "binary.csv": "883662177d7973d2c03780584f7f44b6f5cbc1e70df8e74f4f4dacb77ffca646",
    "wide.csv": "9c60e333e1108961a1123150731a89d2356bc40a19a154f6e11ab3652e4d5f35",
    "long.csv": "16eea12bd0b50486533c76fded834e88fe756f14f6a68fcf6b16dc0e5597e1e3",
}

# generate at N = 1e6 on a discount-0.5 measure of 3,510 atoms: 6.2e6 pairs,
# 69,524 edges, 822 of them from the Philox fallback.  At this scale the
# heavy atoms are spread over the index range, so any order of walking the
# pairs that leaked into the output would show here.
STRESS_GENERATE = {
    "pairs": "368c6cc5cd486b11857c61307eef037ae222d5df682ddfebc1decf2d7cb276c2",
    "counts": "08851b582f6851febe179bdf7abb51798890a42c82a38d37339f9ff9ffc0c4ee",
}

# extend from N = 0 to 2e5 and then to 1e6 on the same measure: epochs 1 and
# 2, and the merge of their draws.
STRESS_EXTEND = {
    "pairs": "df3ab112b6dbac827da19ec6a94778ec2eb7b18cedbce23b396f2fcd88c978d7",
    "counts": "1ecdae89aeead64996bf9ba03a218464b3f3cec0d6b1f15880310c68ffc93dbc",
}

# Stick-breaking measures: (concentration, discount, mass), (rounds,
# weight_floor, seed), then the sha256 of the weights and of the labels.
# Criterion 4's floor-0 branch at two seeds, the bench stress measure, the
# Johnk beta draws (both stick parameters below 1 in the first rounds) across
# stick blocks in both branches, seeds at the top of the 64-bit range, and
# floors at which rounds stop early, draw whole, or draw blocks one by one
# and then the rest in one call (mixed-*).
MEASURES = {
    "floor0-seed0": ((1.0, 0.1, 3.0), (1000, 0.0, 0),
                     "17a84e68bd8d9b9e0f6a7514c9599f549e8797ce6674c5b44c512605f136613a",
                     "8db2ef5d0fdf9de776b8608756814e027e5985896875ccef0384833b10aa48da"),
    "floor0-seed1": ((1.0, 0.1, 3.0), (1000, 0.0, 1),
                     "181ebcd2ace1b9a79d29ba915d38a90683c6312326b6889d1a4c891386ff3c1d",
                     "79de1037e1d343b6d8b6ae0360bcae3a4b75636aa3adff8dda317e5808b5f162"),
    "stress-seed5": ((1.0, 0.5, 3.0), (2000, 1e-10, 5),
                     "5ee56a7dbdaebd4a002e2181d10bb77c031b15219e19f0eef994acbc3be5218c",
                     "0b074bbbd3e6450290b93a65d30e4675203c12bce6730b829dbde4ee928b473f"),
    "johnk-floor0": ((0.3, 1 / 3, 3.0), (257, 0.0, 2),
                     "9bf140efc022c283aeb80693f2d1212553d909a8092547c4b705cbbd1f389ea0",
                     "495b7b3c78231e134bcc73629ab17ccb202dae38f0ea9415e9bd78ceb3c53b15"),
    "johnk-floored": ((0.3, 1 / 3, 3.0), (300, 1e-10, 2),
                      "8ba027ec7ba921b02a36076fa71404d1afcc691a9c47fba851afeb45a30f4a6f",
                      "cea8d1da352767e7d267551b6a8f9b2fb0e185d78124dbca792a4447d23fdd21"),
    "seed-2**63": ((1.0, 0.1, 3.0), (300, 0.0, 2**63),
                   "1e4c2d21c495ae6b8a1eabd0560830b5fa6090c576d3d4e641a38bc25974eec3",
                   "69632415629050dcf0ac0bfeb3da63f7cc666154c4998638c60302e17a0223dc"),
    "seed-2**64-1": ((1.0, 0.1, 3.0), (1000, 1e-10, 2**64 - 1),
                     "c0f50aace316610c53a3cebab6d26a25e55f4d42fde931fe7dd55d62481b75d6",
                     "ff36be8eaa16bf3653307ec6e45ae00705e263fca806916f9d8ab00df182d53f"),
    "mixed-d0.25-seed0": ((1.0, 0.25, 3.0), (1000, 1e-6, 0),
                          "36171035df84644a5d09e2a91461d6a13b074eab43a25041c47930adf33aba72",
                          "c1f400769a7c6f29a1f946d798427adb65236ef03e99eeb0b9d0f3a3383d2816"),
    "mixed-d0.25-seed1": ((1.0, 0.25, 3.0), (1000, 1e-6, 1),
                          "6261d89b8c54e679d8eddb5c91e8cae0117ccf8747a125eb67bd4caded6455f3",
                          "cec292d28f02277b67e49f9ef08f75f267a10aa999087feb7804fea861817ca4"),
    "mixed-d0.1-seed0": ((1.0, 0.1, 3.0), (1000, 1e-16, 0),
                         "6170cef2051d6d367d637a180d7d067ef4186cb23bef074ea38ea7ca9fc0d51a",
                         "a80c3fe698e4b969793609ef20b0db20f9a8d496ece805d5db34a5df18f2ccb6"),
    "mixed-d0.1-seed1": ((1.0, 0.1, 3.0), (1000, 1e-16, 1),
                         "abc18088996aa422859421b5e7f7eaf2fc1682caed10f00d1ac862494c2cc38b",
                         "572f216c5dbec4c06da4921fdda0ed7e7ca265f6754fc4213cc60387a5251298"),
}


def digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


def test_desk_sweep_at_seed_0(tmp_path):
    run_sweep(replace(DESK_PROFILE, seed=0, out_dir=str(tmp_path)))
    assert digests(tmp_path, SWEEP_FILES) == DESK_SEED_0


@pytest.fixture
def fallback_streams(monkeypatch):
    """The fallback pairs' streams: one entry per stream that
    ``graphs.philox_streams`` yields, which is called once per draw even when
    no pair falls back."""
    streams = []
    opener = graphs.philox_streams

    def counting(*fields):
        for rng in opener(*fields):
            streams.append(rng)
            yield rng

    monkeypatch.setattr(graphs, "philox_streams", counting)
    return streams


def test_independent_sweep_through_the_philox_fallback(tmp_path, monkeypatch, fallback_streams):
    monkeypatch.setenv(experiment.THREADS_ENV, "1")  # counted in this process
    run_sweep(replace(FALLBACK_SWEEP, out_dir=str(tmp_path)))
    assert len(fallback_streams) > 0
    assert digests(tmp_path, SWEEP_FILES) == FALLBACK


def test_graph_and_stats_output(tmp_path):
    d = tmp_path
    for argv in (("measure", "--seed", "3", "--out", d / "w.csv"),
                 ("graph", "--weights", d / "w.csv", "--n", "5000", "--seed", "7",
                  "--out", d / "multi.csv"),
                 ("graph", "--weights", d / "w.csv", "--n", "5000", "--seed", "7",
                  "--binary", "--out", d / "binary.csv"),
                 ("stats", d / "multi.csv", "--n", "5000", "--out", d / "wide.csv"),
                 ("stats", d / "binary.csv", "--n", "5000", "--long", "--out", d / "long.csv")):
        assert cli_dispatch([str(arg) for arg in argv]) == 0
    assert digests(d, GRAPH) == GRAPH


@pytest.fixture(scope="module")
def stress_measure():
    return sample_three_param_bp(BetaProcessParams(concentration=1.0, discount=0.5, mass=3.0),
                                 StickBreakingConfig(rounds=1200, seed=1))


def array_digests(edges):
    return {name: hashlib.sha256(getattr(edges, name).tobytes()).hexdigest()
            for name in ("pairs", "counts")}


def test_stress_scale_generate(stress_measure, fallback_streams):
    edges = graphs.generate(stress_measure, 10**6, seed=1).edge_counts
    assert len(stress_measure) >= 3000 and len(fallback_streams) == 822
    assert array_digests(edges) == STRESS_GENERATE


def test_one_bit_generator_per_draw(stress_measure, monkeypatch):
    # the 822 fallback pairs of the stress draw share one re-keyed generator
    made = []
    for name in ("Philox", "Generator"):
        cls = getattr(np.random, name)
        monkeypatch.setattr(np.random, name, lambda *args, name=name, cls=cls, **kw:
                            made.append(name) or cls(*args, **kw))
    graphs.generate(stress_measure, 10**6, seed=1)
    assert sorted(made) == ["Generator", "Philox"]


def test_stress_scale_extend(stress_measure, fallback_streams):
    state = graphs.extend(graphs.start_growth(stress_measure, 1), 2 * 10**5)
    state = graphs.extend(state, 8 * 10**5)
    assert state.n_rounds == 10**6 and len(fallback_streams) > 0
    assert array_digests(state.graph.edge_counts) == STRESS_EXTEND


@pytest.mark.parametrize("name", MEASURES)
def test_measure_bytes(name):
    params, config, weights, labels = MEASURES[name]
    measure = sample_three_param_bp(BetaProcessParams(*params), StickBreakingConfig(*config))
    assert [hashlib.sha256(a.tobytes()).hexdigest()
            for a in (measure.weights, measure.labels)] == [weights, labels]
