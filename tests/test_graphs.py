import gc
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as st

from crmgraph import experiment, graphs
from crmgraph.graphs import (BinaryGraph, MultiGraph, binarize, extend, generate,
                             generate_exact_rounds, grow, read_edges_csv, start_growth,
                             write_edges_csv)
from crmgraph.measures import (AtomicMeasure, BetaProcessParams, ParameterError,
                               StickBreakingConfig, sample_three_param_bp)
from crmgraph.rng import derive_key, mix64, pair_hashes, row_keys


def measure(*weights):
    return AtomicMeasure(np.array(weights), np.linspace(0.1, 0.9, len(weights)))


THREE = measure(0.6, 0.4, 0.3)


def sampled_measure(seed=42, rounds=400):
    params = BetaProcessParams(concentration=1.0, discount=0.1, mass=3.0)
    return sample_three_param_bp(params, StickBreakingConfig(rounds=rounds, seed=seed))


def keyed_hashes(base_key, i, j):
    """Reference for row_keys and pair_hashes: the scalar SplitMix64 hash
    mix64(mix64(base_key ^ i) ^ j) of each (i, j) item, item by item."""
    return [mix64(mix64(base_key ^ int(a)) ^ int(b)) for a, b in zip(i, j)]


def keyed_uniforms(base_key, i, j):
    """Reference for the draw's uniforms: one uniform in [0, 1) per (i, j)
    item, the top 53 bits of its keyed hash."""
    return np.array([(h >> 11) * 2.0 ** -53 for h in keyed_hashes(base_key, i, j)])


def merged_tail_hist(a, b, min_count=10):
    """Two aligned histograms with sparse high bins merged for chi-square."""
    size = max(len(a), len(b))
    ha = np.zeros(size, dtype=np.int64)
    hb = np.zeros(size, dtype=np.int64)
    ha[:len(a)] = a
    hb[:len(b)] = b
    out_a, out_b = [], []
    acc_a = acc_b = 0
    for va, vb in zip(ha, hb):
        acc_a += va
        acc_b += vb
        if acc_a + acc_b >= min_count:
            out_a.append(acc_a)
            out_b.append(acc_b)
            acc_a = acc_b = 0
    if acc_a or acc_b:
        if out_a:
            out_a[-1] += acc_a
            out_b[-1] += acc_b
        else:
            out_a, out_b = [acc_a], [acc_b]
    return np.array(out_a), np.array(out_b)


class TestGenerate:
    def test_zero_rounds_is_empty(self):
        g = generate(THREE, 0, seed=1)
        assert g.edge_counts == {} and g.n_rounds == 0
        assert g.skipped_edge_bound == 0.0

    def test_single_atom_has_no_pairs(self):
        g = generate(measure(0.9), 1000, seed=1)
        assert g.edge_counts == {}

    def test_negative_rounds_rejected(self):
        with pytest.raises(ParameterError):
            generate(THREE, -1, seed=0)

    def test_deterministic_in_seed(self):
        a = generate(THREE, 50, seed=9)
        b = generate(THREE, 50, seed=9)
        c = generate(THREE, 50, seed=10)
        assert a.edge_counts == b.edge_counts
        assert a.edge_counts != c.edge_counts or True  # different seeds may rarely agree

    def test_counts_bounded_by_rounds_and_no_loops(self):
        g = generate(measure(0.9, 0.8, 0.7), 25, seed=3)
        for (i, j), count in g.edge_counts.items():
            assert i < j
            assert 1 <= count <= 25

    def test_single_round_edge_probability(self):
        # P(edge) = w1 * w2 = 0.25 exactly; binomial pmf is the oracle
        two = measure(0.5, 0.5)
        hits = sum(1 for s in range(100_000)
                   if generate(two, 1, seed=s).edge_counts.get((0, 1), 0) == 1)
        assert abs(hits / 100_000 - 0.25) < 0.005

    def test_pair_value_independent_of_other_atoms(self):
        # the draw for pair (0, 1) is keyed by (seed, 0, 1, epoch) alone, so
        # enlarging the measure cannot change it
        small = measure(0.6, 0.4)
        large = measure(0.6, 0.4, 0.3, 0.2, 0.1)
        for seed in range(25):
            a = generate(small, 40, seed=seed).edge_counts.get((0, 1), 0)
            b = generate(large, 40, seed=seed).edge_counts.get((0, 1), 0)
            assert a == b

    def test_mean_counts_match_binomial_formula(self):
        n = 30
        sums = {}
        reps = 4000
        for s in range(reps):
            for pair, c in generate(THREE, n, seed=s).edge_counts.items():
                sums[pair] = sums.get(pair, 0) + c
        w = THREE.weights
        for (i, j), total in sums.items():
            p = w[i] * w[j]
            se = math.sqrt(n * p * (1 - p) / reps)
            assert abs(total / reps - n * p) < 4 * se

    def test_big_probability_pairs_use_exact_binomial(self):
        # n*log1p(-p) below the underflow guard exercises the fallback path
        heavy = measure(0.99, 0.98)
        g = generate(heavy, 2000, seed=5)
        count = g.edge_counts[(0, 1)]
        p = 0.99 * 0.98
        assert abs(count - 2000 * p) < 6 * math.sqrt(2000 * p * (1 - p))

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    @pytest.mark.parametrize("draw", [
        lambda seed: generate(THREE, 10, seed),
        lambda seed: start_growth(THREE, seed),
        lambda seed: generate_exact_rounds(THREE, 10, seed),
    ], ids=["generate", "start_growth", "generate_exact_rounds"])
    def test_seed_outside_64_bits_rejected(self, draw, seed):
        # derive_key masks to 64 bits and truncates, so these would alias
        # seeds 2**64 - 1, 0, 1 and 1
        with pytest.raises(ParameterError, match=re.escape(str(seed))):
            draw(seed)
        draw(2**64 - 1)

    def test_rounds_outside_int64_rejected(self):
        # counts are int64, and the Philox fallback cannot take 2**63 rounds
        for n in (2**63, math.inf, math.nan, True):
            with pytest.raises(ParameterError, match="n_rounds"):
                generate(THREE, n, 0)
        assert generate(THREE, 2**63 - 1, 0).n_rounds == 2**63 - 1
        state = extend(start_growth(THREE, 0), 2**62)
        with pytest.raises(ParameterError, match="n_rounds"):
            extend(state, 2**62)
        for delta in (math.inf, math.nan, True):
            with pytest.raises(ParameterError, match="delta_rounds"):
                extend(state, delta)
        assert extend(state, 2**62 - 1).n_rounds == 2**63 - 1

    def test_integral_values_give_the_int_graph(self):
        m = sampled_measure()
        ref = generate(m, 5, 2**64 - 1)
        ref_grown = extend(start_growth(m, 2**64 - 1), 5)
        for n, seed in ((np.int64(5), np.uint64(2**64 - 1)), (5.0, 2**64 - 1)):
            assert generate(m, n, seed) == ref
            grown = extend(start_growth(m, seed), n)
            assert grown.graph == ref_grown.graph and type(grown.seed) is int
        exact = generate_exact_rounds(THREE, 5, 7)
        assert generate_exact_rounds(THREE, 5.0, np.uint64(7)) == exact

    def test_every_pair_is_hashed(self, monkeypatch):
        # most pairs expect far fewer than 1e-12 edges, and none is left out;
        # the draw reuses the filter's hashes, so no pair is hashed twice
        hashed = []

        def counting(row_key, j):
            hashed.append(j.size)
            return pair_hashes(row_key, j)

        monkeypatch.setattr(graphs, "pair_hashes", counting)
        monkeypatch.setattr("crmgraph.rng.pair_hashes", counting)
        w = np.concatenate([[0.6, 0.3], np.geomspace(1e-7, 1e-9, 48)])
        m = AtomicMeasure(w, np.arange(w.size) / 64)
        n, pairs = 50, w.size * (w.size - 1) // 2
        a, b = np.triu_indices(w.size, 1)
        assert np.mean(n * w[a] * w[b] < 1e-12) > 0.9
        g = generate(m, n, seed=3)
        assert sum(hashed) == pairs and g.total_edges() > 0
        state = start_growth(m, 3)
        for delta in (n, 1, 1000):
            hashed.clear()
            state = extend(state, delta)
            assert sum(hashed) == pairs


def trajectory_record(m, seed=4, n=300, deltas=(1, 7, 50, 200, 1000)):
    """Edge items of a generate and an extend along ``deltas``."""
    one_shot = generate(m, n, seed)
    state = start_growth(m, seed)
    for delta in deltas:
        state = extend(state, delta)
    return [list(g.edge_counts.items()) for g in (one_shot, state.graph)]


class TestPairBlocks:
    CASES = [
        ("sampled", {}),
        ("sampled", {"n": 10**7, "deltas": (10**6, 3)}),
        ("sampled", {"seed": 2**64 - 1}),
        ("fallback", {}),
    ]

    @staticmethod
    def case_measure(name):
        if name == "fallback":
            # (0.99, 0.98) underflows the k = 0 pmf and takes the Philox path
            return measure(0.99, 0.98, 0.3, 0.05, 0.01)
        return sampled_measure(seed=3, rounds=300)

    @pytest.mark.parametrize("block", [1, 7, 1000])
    @pytest.mark.parametrize("name,kwargs", CASES)
    def test_block_size_does_not_change_graphs(self, monkeypatch, block, name, kwargs):
        m = self.case_measure(name)
        expected = trajectory_record(m, **kwargs)
        monkeypatch.setattr(graphs, "_HASH_BLOCK", block)
        assert trajectory_record(m, **kwargs) == expected

    def test_blocks_cover_rows_in_order(self):
        lens = np.array([25, 9, 8, 3, 2, 1, 0, 0])
        blocks = list(graphs._row_blocks(lens, 10))
        assert blocks == [(0, 1), (1, 2), (2, 3), (3, 8)]

    def test_pair_hashes_reproduce_keyed_hashes(self):
        k, base = 60, 0xDEADBEEFCAFEF00D
        i, j = np.triu_indices(k, 1)
        expected = np.array(keyed_hashes(base, i, j), dtype=np.uint64)
        assert expected.size == k * (k - 1) // 2
        keys = row_keys(base, k)[i]
        # j as int64 is copied, as uint64 read in place; the hashes are new arrays
        for ids in (j, j.view(np.uint64)):
            hashes = pair_hashes(keys, ids)
            assert np.array_equal(hashes, expected) and hashes is not keys
        assert np.array_equal(keys, row_keys(base, k)[i])

    def test_generate_memory_is_bounded(self):
        # 3000 atoms keep all 4.5M pairs, which held 279 MB if drawn unblocked
        k = 3000
        m = AtomicMeasure(np.linspace(1e-6, 2e-3, k), np.arange(k) / k)
        tracemalloc.start()
        try:
            g = generate(m, 200, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.skipped_pairs == 0 and g.total_edges() > 0
        assert peak < 64 * 2 ** 20


def reference_draw(weights, n_rounds, seed, epoch):
    """One epoch with no filter: every pair (i, j), i < j, in np.triu_indices
    order.  A pair whose scalar reference uniform lies below its zero-count
    level draws zero; the others are drawn by _binomial_counts in one call.
    Returns the items of the nonzero counts."""
    i, j = np.triu_indices(weights.size, 1)
    base = derive_key(seed, epoch)
    u = keyed_uniforms(base, i, j)
    log_q0 = n_rounds * np.log1p(-(weights[i] * weights[j]))
    live = np.flatnonzero((u >= np.exp(log_q0)) | (log_q0 < graphs._LOG_PMF0_MIN))
    i, j = i[live], j[live]
    counts = graphs._binomial_counts(base, weights, i, j, u[live], n_rounds)
    nz = np.flatnonzero(counts)
    return list(zip(zip(i[nz].tolist(), j[nz].tolist()), counts[nz].tolist()))


def spread_weights(rng, k):
    """k weights log-uniform over 1e-9 .. 0.99, with a tie among them."""
    w = np.exp(rng.uniform(math.log(1e-9), math.log(0.99), k))
    w[-1] = w[0]
    return w


class TestHashFirst:
    ROUNDS = (1, 3, 50, 1000, 10**6)

    def test_row_threshold_is_conservative(self):
        # row i pairs atom i with every later atom; each of its pairs has a
        # zero-count level, on the hash scale, at or above the row threshold,
        # and no Philox pair sits under one
        q0_one = zero_rows = philox_pairs = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            w = spread_weights(rng, 60)
            if seed % 2:  # descending, the light rows last, where q0 rounds to 1
                w = np.sort(w)[::-1]
            n = self.ROUNDS[seed % len(self.ROUNDS)]
            heaviest = np.array([w[i] * w[i + 1:].max() for i in range(w.size - 1)])
            thresholds = [int(t) for t in graphs._zero_thresholds(heaviest, n)]
            a, b = np.triu_indices(w.size, 1)
            log_q0 = n * np.log1p(-(w[a] * w[b]))
            q0 = np.exp(log_q0)
            for row, level, lq in zip(a.tolist(), q0.tolist(), log_q0.tolist()):
                limit = math.ceil(level * 2**53) << 11
                assert limit >= thresholds[row]
                if thresholds[row]:
                    assert lq >= graphs._LOG_PMF0_MIN
                philox_pairs += lq < graphs._LOG_PMF0_MIN
            # the margin: each threshold stays below the level of its row's
            # heaviest pair, so rounding in log1p or exp cannot lift it over
            # a pair
            top = np.exp(n * np.log1p(-heaviest))
            for row, level in enumerate(top.tolist()):
                if thresholds[row]:
                    assert thresholds[row] < math.ceil(level * 2**53) << 11
                q0_one += level == 1.0
                zero_rows += thresholds[row] == 0
        assert q0_one and zero_rows and philox_pairs

    @pytest.mark.parametrize("name", ["fallback", "sampled"])
    def test_count_pass_gets_only_pairs_that_can_be_edges(self, monkeypatch, name):
        # each draw makes one count-pass call; every pair it hands over has its
        # scalar reference uniform at or above q0, or a q0 that underflows,
        # and only the Philox pairs among them, which both measures reach at
        # N = 2000 and up, may come back with count zero
        m = TestPairBlocks.case_measure(name)
        count_pass = graphs._binomial_counts
        calls, philox_pairs = [], 0

        def checked(base_key, weights, i, j, u, n_rounds):
            nonlocal philox_pairs
            counts = count_pass(base_key, weights, i, j, u, n_rounds)
            calls.append(n_rounds)
            assert np.array_equal(u, keyed_uniforms(base_key, i, j))
            log_q0 = n_rounds * np.log1p(-(weights[i] * weights[j]))
            big = log_q0 < graphs._LOG_PMF0_MIN
            assert (big | (u >= np.exp(log_q0))).all()
            assert (counts[~big] >= 1).all()
            philox_pairs += int(big.sum())
            return counts

        monkeypatch.setattr(graphs, "_binomial_counts", checked)
        draws = []
        for n in (50, 2000, 10**6):
            generate(m, n, seed=4)
            draws.append(n)
        state = start_growth(m, seed=4)
        for delta in (10, 10**4, 10**6):
            state = extend(state, delta)
            draws.append(delta)
        assert calls == draws and philox_pairs

    @pytest.mark.parametrize("hash_block", [1, 3, 7, 64, graphs._HASH_BLOCK])
    def test_draws_equal_every_pair_reference(self, hash_block):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        weight = st.floats(math.log(1e-9), math.log(0.99)).map(math.exp)

        @hypothesis.settings(max_examples=30, deadline=None)
        @hypothesis.given(st.lists(weight, max_size=40),
                          st.sampled_from(self.ROUNDS) | st.integers(1, 5000),
                          st.lists(st.integers(1, 10**5), min_size=5, max_size=5),
                          st.integers(0, 2**64 - 1))
        def check(weights, n, deltas, seed):
            m = AtomicMeasure(np.array(weights), np.arange(len(weights)) / 64)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(graphs, "_HASH_BLOCK", hash_block)
                g = generate(m, n, seed)
                state = start_growth(m, seed)
                for delta in deltas:
                    state = extend(state, delta)
            # the same pairs and counts as the reference, in its (i, j) order
            assert list(g.edge_counts.items()) == reference_draw(m.weights, n, seed, 0)
            grown = {}
            for epoch, delta in enumerate(deltas, start=1):
                for pair, count in reference_draw(m.weights, delta, seed, epoch):
                    grown[pair] = grown.get(pair, 0) + count
            assert list(state.graph.edge_counts.items()) == sorted(grown.items())

        check()


class TestGrowth:
    def test_extend_requires_positive_delta(self):
        state = start_growth(THREE, seed=0)
        for bad in (0, -5):
            with pytest.raises(ParameterError):
                extend(state, bad)

    def test_empty_measure_trajectory_stays_empty(self):
        state = start_growth(AtomicMeasure(np.empty(0), np.empty(0)), seed=0)
        state = extend(state, 10)
        assert state.graph.edge_counts == {} and state.n_rounds == 10

    def test_counts_monotone_along_trajectory(self):
        state = start_growth(sampled_measure(seed=3, rounds=200), seed=1)
        prev = {}
        for _ in range(8):
            state = extend(state, 25)
            for pair, count in prev.items():
                assert state.graph.edge_counts.get(pair, 0) >= count
            prev = state.graph.edge_counts

    def test_replay_reproduces_trajectory(self):
        m = sampled_measure(seed=5, rounds=200)
        first, second = [], []
        for out in (first, second):
            state = start_growth(m, seed=77)
            for _ in range(4):
                state = extend(state, 50)
                out.append(state.graph.edge_counts)
        assert first == second

    def test_extend_matches_one_shot_distribution(self):
        # two-sample chi-square per pair: grow 5 + 5 versus generate at 10
        n_reps = 10_000
        grown, oneshot = [], []
        for s in range(n_reps):
            state = extend(extend(start_growth(THREE, seed=s), 5), 5)
            grown.append(state.graph.edge_counts)
            oneshot.append(generate(THREE, 10, seed=10_000_000 + s).edge_counts)
        for pair in [(0, 1), (0, 2), (1, 2)]:
            a = np.bincount([g.get(pair, 0) for g in grown], minlength=11)
            b = np.bincount([g.get(pair, 0) for g in oneshot], minlength=11)
            ha, hb = merged_tail_hist(a, b)
            _, pvalue, _, _ = st.chi2_contingency(np.vstack([ha, hb]))
            assert pvalue > 0.01, f"pair {pair}: p={pvalue}"


def desk_measure(seed=3):
    cfg = experiment.DESK_PROFILE
    return sample_three_param_bp(cfg.params(), cfg.sticks(seed))


def closed_form_means(weights, n):
    """E[V], E[E] and the expected total count after n rounds: with
    L_ij = n log(1 - w_i w_j), E[E] = sum_{i<j} 1 - exp(L_ij) and
    E[V] = sum_i 1 - exp(sum_j L_ij)."""
    p = np.outer(weights, weights)
    np.fill_diagonal(p, 0.0)
    log_q0 = n * np.log1p(-p)
    return (np.sum(-np.expm1(log_q0.sum(axis=1))), np.sum(-np.expm1(log_q0)) / 2,
            n * p.sum() / 2)


class TestGrow:
    def test_final_snapshot_pairs_are_generates(self):
        # THREE at 5000 rounds takes the Philox fallback for all three pairs
        cases = [(desk_measure(), [50, 500, 2000]), (desk_measure(5), [300]),
                 (sampled_measure(seed=3, rounds=200), [0, 7, 7, 800]),
                 (THREE, [10, 5000])]
        for m, grid in cases:
            for seed in (0, 9, 2**64 - 1):
                snaps = grow(m, seed, grid)
                assert [g.n_rounds for g in snaps] == grid
                final = snaps[-1].edge_counts
                assert np.array_equal(final.pairs, generate(m, grid[-1], seed).edge_counts.pairs)

    def test_one_pair_pass_for_the_whole_grid(self, monkeypatch):
        hashed = []

        def counting(row_key, j):
            hashed.append(j.size)
            return pair_hashes(row_key, j)

        monkeypatch.setattr(graphs, "pair_hashes", counting)
        m = desk_measure()
        grow(m, 1, experiment.DESK_PROFILE.n_grid())
        assert sum(hashed) == len(m) * (len(m) - 1) // 2

    def test_trajectory_is_nondecreasing_and_replays(self):
        m = sampled_measure(seed=3, rounds=200)
        grid = [0, 0, 25, 25, 50, 400, 401]
        snaps = grow(m, 4, grid)
        assert [g.edge_counts for g in snaps] == [g.edge_counts for g in grow(m, 4, grid)]
        assert snaps[0].total_edges() == snaps[1].total_edges() == 0
        assert snaps[2].edge_counts == snaps[3].edge_counts
        for a, b in zip(snaps, snaps[1:]):
            for pair, count in a.edge_counts.items():
                assert count <= b.edge_counts[pair] <= count + b.n_rounds - a.n_rounds
        for g in snaps:
            assert g.edge_counts.pairs.flags.c_contiguous

    def test_mean_curves_match_closed_forms(self):
        # 2,000 trajectories of one desk measure (259 atoms) against the closed forms
        m, grid, reps = desk_measure(), [50, 500, 2000], 2000
        seen = np.zeros((reps, len(grid), 3))
        for seed in range(reps):
            for at, g in enumerate(grow(m, seed, grid)):
                edges = g.edge_counts
                seen[seed, at] = (np.unique(edges.pairs).size, len(edges), edges.counts.sum())
        for at, n in enumerate(grid):
            mean, se = seen[:, at].mean(axis=0), seen[:, at].std(axis=0, ddof=1) / np.sqrt(reps)
            z = (mean - closed_form_means(m.weights, n)) / se
            assert np.all(np.abs(z) < 4), f"N={n}: z(V, E, total)={z}"

    def test_increments_are_independent_binomials(self):
        # count(N1) ~ Binomial(N1, p) and count(N2) - count(N1) ~ an
        # independent Binomial(N2 - N1, p): one chi-square over the joint cells
        n1, n2, reps = 6, 15, 5000
        for pair in [(0, 1), (1, 2)]:
            p = THREE.weights[pair[0]] * THREE.weights[pair[1]]
            seen = np.zeros((n1 + 1, n2 - n1 + 1), dtype=np.int64)
            for seed in range(reps):
                first, second = (g.edge_counts.get(pair, 0) for g in grow(THREE, seed, [n1, n2]))
                seen[first, second - first] += 1
            expected = reps * np.outer(st.binom.pmf(np.arange(n1 + 1), n1, p),
                                       st.binom.pmf(np.arange(n2 - n1 + 1), n2 - n1, p))
            big = expected >= 5
            observed = np.append(seen[big], seen[~big].sum())
            _, pvalue = st.chisquare(observed, np.append(expected[big], expected[~big].sum()))
            assert pvalue > 1e-4, f"pair {pair}: p={pvalue}"

    @pytest.mark.parametrize("m", [AtomicMeasure(np.empty(0), np.empty(0)), measure(0.5)],
                             ids=["no atom", "one atom"])
    def test_fewer_than_two_atoms_stay_empty(self, m):
        snaps = grow(m, 3, [0, 5, 10])
        assert [(g.n_rounds, g.total_edges(), g.atom_count) for g in snaps] == [
            (0, 0, len(m)), (5, 0, len(m)), (10, 0, len(m))]

    def test_counts_stay_exact_at_2_62_rounds(self):
        n = 2**62
        snaps = grow(THREE, 5, [0, 1, n - 1, n])
        assert [g.n_rounds for g in snaps] == [0, 1, n - 1, n]
        before, last = snaps[2].edge_counts, snaps[3].edge_counts
        assert last.counts.dtype == np.int64 and len(last) == 3
        for pair, count in last.items():
            assert count - before[pair] in (0, 1)
            p = THREE.weights[pair[0]] * THREE.weights[pair[1]]
            assert abs(count - n * p) < 6 * math.sqrt(n * p * (1 - p))

    def test_grid_and_seed_are_checked(self):
        assert grow(THREE, 0, []) == []
        assert grow(THREE, np.uint64(7), (np.int64(5), 9.0)) == grow(THREE, 7, [5, 9])
        for grid in ([5, 4], [-1], [2**63], [1.5]):
            with pytest.raises(ParameterError):
                grow(THREE, 0, grid)
        for seed in (-1, 2**64):
            with pytest.raises(ParameterError):
                grow(THREE, seed, [5])


class TestExactRounds:
    def test_zero_rounds_and_single_atom(self):
        assert generate_exact_rounds(THREE, 0, seed=1).edge_counts == {}
        assert generate_exact_rounds(measure(0.5), 100, seed=1).edge_counts == {}

    def test_size_guards(self):
        big = AtomicMeasure(np.full(201, 0.5) * np.linspace(0.5, 1, 201),
                            np.linspace(0, 0.99, 201))
        with pytest.raises(ParameterError):
            generate_exact_rounds(big, 10, seed=0)
        with pytest.raises(ParameterError):
            generate_exact_rounds(THREE, 1001, seed=0)

    def test_per_pair_mean_matches_binomial(self):
        n, reps = 200, 5000
        w = THREE.weights
        sums = {(0, 1): 0, (0, 2): 0, (1, 2): 0}
        for s in range(reps):
            for pair, c in generate_exact_rounds(THREE, n, seed=s).edge_counts.items():
                sums[pair] += c
        for (i, j), total in sums.items():
            p = w[i] * w[j]
            se = math.sqrt(n * p * (1 - p) / reps)
            assert abs(total / reps - n * p) < 3 * se


def stress_measure():
    """A discount-0.5 measure of 1,477 atoms; 2e5 rounds give about 26k edges."""
    params = BetaProcessParams(concentration=1.0, discount=0.5, mass=3.0)
    return sample_three_param_bp(params, StickBreakingConfig(rounds=500, seed=1))


class TestContainers:
    def test_generate_and_binarize_hold_under_64_bytes_an_edge(self):
        m = stress_measure()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = generate(m, 200_000, seed=2)
            z = binarize(g)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert g.total_edges() >= 20_000
        assert held <= 64 * g.total_edges()
        assert g.edge_counts.pairs.flags.c_contiguous
        assert z.adjacency.pairs is g.edge_counts.pairs

    def test_draw_reaches_the_graph_without_a_copy_or_sort(self, monkeypatch):
        drawn = []
        draw = graphs._draw_increment
        monkeypatch.setattr(graphs, "_draw_increment",
                            lambda *args: drawn.append(draw(*args)) or drawn[-1])
        monkeypatch.setattr(graphs, "_sort_order", None)  # a sort would raise
        g = generate(stress_measure(), 200_000, seed=2)
        assert g.total_edges() >= 20_000
        assert g.edge_counts.pairs is drawn[0].pairs and g.edge_counts.counts is drawn[0].counts

    def test_views_follow_the_arrays(self):
        g = MultiGraph(9, 5, {(2, 4): 1, (0, 3): 9, (0, 1): 2})
        assert list(g.edge_counts.items()) == [((0, 1), 2), ((0, 3), 9), ((2, 4), 1)]
        assert g.edge_counts.pairs.tolist() == [[0, 0, 2], [1, 3, 4]]
        assert g.edge_counts.pairs.flags.c_contiguous
        assert g.edge_counts.counts.tolist() == [2, 9, 1]
        assert g.edge_counts[(0, 3)] == 9 and (1, 3) not in g.edge_counts
        assert g.edge_counts.get((3, 4), 0) == 0 and len(g.edge_counts) == 3
        z = BinaryGraph([(2, 4), (0, 1), (2, 4)], 5)
        assert list(z.adjacency) == [(0, 1), (2, 4)] and (2, 4) in z.adjacency
        assert (1, 2) not in z.adjacency and z == BinaryGraph({(0, 1), (2, 4)}, 5)


class TestBenchReads:
    """The container reads the benchmark under bench/ makes, each written as
    it is there, so that they stop working only on purpose."""

    def test_binary_reads(self):
        z = binarize(generate(sampled_measure(seed=1, rounds=100), 200, seed=4))
        # checks.edge_list, and tracing._count_binarize
        pairs = [(int(i), int(j)) for i, j in z.adjacency]
        assert len(z.adjacency) == len(set(pairs)) == len(pairs) > 1
        # selftest.sweep_negatives drops the first edge
        short = replace(z, adjacency=frozenset(sorted(z.adjacency)[1:]))
        assert sorted(short.adjacency) == sorted(pairs)[1:]
        assert short.atom_count == z.atom_count

    def test_extend_reads_stay_linear(self):
        # tracing._count_extend looks up every edge of the new graph in the old
        state = extend(start_growth(stress_measure(), 1), 100_000)
        old, new = state.graph, extend(state, 100_000).graph
        grown = sum(1 for pair, c in new.edge_counts.items()
                    if c > old.edge_counts.get(pair, 0))
        assert 0 < grown < new.total_edges() and old.total_edges() >= 15_000
        # one view per graph, and a lookup copies nothing the size of the graph
        assert old.edge_counts is old.edge_counts
        items = list(new.edge_counts.items())
        tracemalloc.start()
        try:
            for pair, _ in items:
                old.edge_counts.get(pair, 0)
            tracemalloc.reset_peak()
            for pair, _ in items:
                old.edge_counts.get(pair, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < old.total_edges() // 4

    def test_counters(self, tmp_path, monkeypatch):
        # tracing._count_generate, and checks.skip_bound through workloads
        g = generate(THREE, 50, seed=1)
        assert g.total_edges() == len(g.edge_counts) and g.atom_count == 3
        assert g.skipped_pairs == 0 and g.skipped_edge_bound == 0.0
        monkeypatch.setenv(experiment.THREADS_ENV, "1")
        cfg = experiment.ExperimentConfig(rounds=60, n_start=10, n_stop=30, n_step=10,
                                          replicas=1, out_dir=str(tmp_path))
        assert experiment.run_sweep(cfg).max_skip_bound == 0.0


class TestBinarize:
    def test_thresholds_counts(self):
        g = MultiGraph(5, 6, {(1, 2): 3, (2, 5): 1})
        z = binarize(g)
        assert z.adjacency == frozenset({(1, 2), (2, 5)})

    def test_empty(self):
        assert binarize(MultiGraph(5, 4, {})).adjacency == frozenset()

    def test_idempotent_through_indicator_counts(self):
        g = generate(sampled_measure(seed=1, rounds=100), 50, seed=4)
        z = binarize(g)
        indicator = MultiGraph(1, z.atom_count, {pair: 1 for pair in z.adjacency})
        assert binarize(indicator).adjacency == z.adjacency


class TestValidation:
    def test_loops_rejected(self):
        with pytest.raises(ParameterError):
            MultiGraph(5, 4, {(2, 2): 1})
        with pytest.raises(ParameterError):
            BinaryGraph(frozenset({(3, 3)}), 4)

    @pytest.mark.parametrize("n_rounds", [2.5, True])
    def test_round_count_must_be_an_integer(self, n_rounds):
        message = f"n_rounds must be in [0, 2**63) and an integer, got {n_rounds!r}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            MultiGraph(n_rounds, 3, {(0, 1): 2})

    def test_count_bounds(self):
        with pytest.raises(ParameterError):
            MultiGraph(5, 4, {(0, 1): 6})
        with pytest.raises(ParameterError):
            MultiGraph(5, 4, {(0, 1): 0})

    def test_index_order_and_range(self):
        with pytest.raises(ParameterError):
            MultiGraph(5, 4, {(3, 1): 1})
        with pytest.raises(ParameterError):
            MultiGraph(5, 4, {(0, 9): 1})

    @pytest.mark.parametrize("edges, message", [
        ({(0, 1): 1, (2, 2): 1, (0, 9): 1}, "loop (2, 2)"),
        ({(0, 1): 1, (3, 1): 1, (2, 2): 1}, "pair (3, 1) out of range"),
        ({(0, 1): 1, (0, 2): 6, (3, 1): 1}, "count 6 for pair (0, 2)"),
        ({(0, 1): 0}, "count 0 for pair (0, 1) outside 1..5"),
        ({(0, 1): 1, (-1, 2): 1}, "pair (-1, 2) out of range for 4 atoms"),
        ({(0, 2**70): 1}, "outside the int64 range"),
        ({(0, 1): 2**70}, "outside the int64 range"),
    ])
    def test_message_names_first_offending_pair(self, edges, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            MultiGraph(5, 4, edges)

    def test_binary_message_names_offending_pair(self):
        with pytest.raises(ParameterError, match=re.escape("pair (1, 4) out of range")):
            BinaryGraph(frozenset({(0, 1), (1, 4)}), 4)
        BinaryGraph(frozenset({(0, 1), (1, 3)}), 4)

    def test_reversed_pair_message_states_the_rule(self, tmp_path):
        # both ids are in range; what is wrong is their order
        message = "pair (5, 3) out of range for 10 atoms: need 0 <= i < j < 10"
        with pytest.raises(ParameterError, match=re.escape(message)):
            MultiGraph(10, 10, {(5, 3): 1})
        path = tmp_path / "edges.csv"
        path.write_text("i,j\n0,9\n5,3\n")
        with pytest.raises(ParameterError, match=re.escape(message)):
            read_edges_csv(path)

    @pytest.mark.parametrize("edges, message", [
        ({(0, 1): 1, (0, 2): 1, (1, 2): 1, (2, 2): 1, (0, 9): 1}, "loop (2, 2)"),
        ({(0, 1): 1, (0, 2): 1, (3, 1): 1, (1, 2): 1, (2, 2): 1}, "pair (3, 1) out of range"),
        ({(0, 1): 1, (0, 2): 1, (1, 2): 5, (0, 3): 6, (3, 1): 1}, "count 6 for pair (0, 3)"),
        ({(0, 1): 1, (0, 2): 1, (1, 2): 2**70, (2, 2): 1}, "outside the int64 range"),
    ])
    def test_message_names_first_of_two_offenders(self, edges, message):
        # each case has a second offender after the first, which must be the one named
        with pytest.raises(ParameterError, match=re.escape(message)):
            MultiGraph(5, 4, edges)

    def test_binary_accepts_good_pairs_and_names_a_bad_one(self):
        good = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}
        BinaryGraph(frozenset(good), 4)
        with pytest.raises(ParameterError, match=re.escape("pair (2, 4) out of range")):
            BinaryGraph(frozenset(good | {(2, 4)}), 4)

    @pytest.mark.parametrize("atom_count", [3.5, -2, True, 2**63, "4"])
    def test_atom_count_must_be_a_count(self, atom_count):
        message = f"atom_count must be in [0, 2**63) and an integer, got {atom_count!r}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            MultiGraph(5, atom_count, {(0, 1): 1})
        with pytest.raises(ParameterError, match=re.escape(message)):
            BinaryGraph(frozenset(), atom_count)

    @pytest.mark.parametrize("pair", [(0.5, 1), ("0", 1), (True, 2), (0, 1.5)])
    def test_vertex_ids_must_be_integers(self, pair):
        # once truncated: (0.5, 1) and ("0", 1) were stored as (0, 1), (True, 2) as (1, 2)
        bad = next(v for v in pair if not isinstance(v, int) or isinstance(v, bool))
        message = f"vertex id must be in [-2**63, 2**63) and an integer, got {bad!r}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            BinaryGraph({pair}, 3)
        with pytest.raises(ParameterError, match=re.escape(message)):
            MultiGraph(5, 3, {pair: 1})

    @pytest.mark.parametrize("count", [2.7, True, "2"])
    def test_counts_must_be_integers(self, count):
        # 2.7 was once stored as the count 2
        message = f"edge count must be in [-2**63, 2**63) and an integer, got {count!r}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            MultiGraph(5, 3, {(0, 1): count})

    @pytest.mark.parametrize("pairs", [{(0, 1, 2)}, [(0, 1, 2), (3,)], [(0, 1), 5]])
    def test_entries_must_be_pairs(self, pairs):
        # [(0, 1, 2), (3,)] once read as the pairs (0, 1) and (2, 3)
        with pytest.raises(ParameterError, match="is not an \\(i, j\\) pair"):
            BinaryGraph(pairs, 5)

    def test_integral_values_are_accepted(self):
        g = MultiGraph(5, 3.0, {(np.int64(0), 1.0): np.int64(2), (1, 2): 3.0})
        assert g == MultiGraph(5, 3, {(0, 1): 2, (1, 2): 3}) and type(g.atom_count) is int
        assert BinaryGraph({(0.0, np.uint8(2))}, np.int64(3)) == BinaryGraph({(0, 2)}, 3)


class TestEdgeCsv:
    def test_multigraph_round_trip_sorted_rows(self, tmp_path):
        g = generate(sampled_measure(seed=2, rounds=150), 80, seed=6)
        path = tmp_path / "edges.csv"
        write_edges_csv(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j,count"
        pairs = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
        assert pairs == sorted(pairs)
        back = read_edges_csv(path)
        assert isinstance(back, MultiGraph)
        assert back.edge_counts == g.edge_counts
        assert back.n_rounds == max(g.edge_counts.values()) <= g.n_rounds
        assert back.atom_count == 1 + max(j for _, j in g.edge_counts) <= g.atom_count

    def test_multigraph_read_infers_minimal_rounds(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("i,j,count\n0,1,4\n1,2,2\n")
        g = read_edges_csv(path)
        assert g == MultiGraph(4, 3, {(0, 1): 4, (1, 2): 2})

    def test_binary_round_trip(self, tmp_path):
        z = binarize(generate(sampled_measure(seed=2, rounds=150), 80, seed=6))
        path = tmp_path / "edges.csv"
        write_edges_csv(z, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j"
        assert lines[1:] == [f"{i},{j}" for i, j in sorted(z.adjacency)]
        back = read_edges_csv(path)
        assert isinstance(back, BinaryGraph)
        assert back.adjacency == z.adjacency

    def test_binary_read(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("i,j\n0,1\n1,3\n")
        assert read_edges_csv(path) == BinaryGraph(frozenset({(0, 1), (1, 3)}), 4)

    @pytest.mark.parametrize("text", ["i,j,count\n", "i,j\n"])
    def test_empty_edge_lists(self, tmp_path, text):
        path = tmp_path / "edges.csv"
        path.write_text(text)
        g = read_edges_csv(path)
        assert g.atom_count == 0
        write_edges_csv(g, tmp_path / "back.csv")
        assert (tmp_path / "back.csv").read_text() == text

    @pytest.mark.parametrize("text", [
        "i,j,count\n0,1,3\n1,2,2\n1,2,1\n0,1,5\n",
        "i,j\n0,1\n1,2\n1,2\n0,1\n",
    ], ids=["multigraph", "binary"])
    def test_repeated_rows_rejected(self, tmp_path, text):
        path = tmp_path / "edges.csv"
        path.write_text(text)
        with pytest.raises(ParameterError, match=re.escape("pair (1, 2)")):
            read_edges_csv(path)

    @pytest.mark.parametrize("text,message", [
        ("i,j\n0,4\n3,3\n1,1\n", "loop (3, 3)"),
        ("i,j,count\n0,4,1\n2,1,1\n1,0,1\n", "pair (2, 1) out of range"),
    ])
    def test_first_bad_row_in_file_order_is_named(self, tmp_path, text, message):
        # the reader sorts pairs, but names the first bad row of the file
        path = tmp_path / "edges.csv"
        path.write_text(text)
        with pytest.raises(ParameterError, match=re.escape(message)):
            read_edges_csv(path)

    @pytest.mark.parametrize("text,row,fields", [
        ("i,j,count\n0,1,2\n1\n", 2, 1),
        ("i,j,count\n0,1,2,9\n", 1, 4),
        ("i,j\n0,1\n1,2,5\n", 2, 3),
        ("i,j\n0,1\n\n1,2\n", 2, 0),
    ], ids=["multigraph-short", "multigraph-long", "binary-long", "binary-blank"])
    def test_ragged_rows_rejected(self, tmp_path, text, row, fields):
        path = tmp_path / "edges.csv"
        path.write_text(text)
        expected = len(text.split("\n", 1)[0].split(","))
        with pytest.raises(ParameterError, match=re.escape(
                f"data row {row} has {fields} fields, expected {expected}")):
            read_edges_csv(path)

    @pytest.mark.parametrize("text,message", [
        ("i,j\n0,1\n0.0,2\n", "data row 2 has i '0.0', expected an integer"),
        ("i,j\n0,x\n", "data row 1 has j 'x', expected an integer"),
        ("i,j,count\n0,1,2\n1,2,x\n", "data row 2 has count 'x', expected an integer"),
        ("i,j,count\n0,1,\n", "data row 1 has count '', expected an integer"),
        ("i,j,count\n0,1,99999999999999999999\n",
         "data row 1 has count '99999999999999999999', expected an integer in [-2**63, 2**63)"),
        ("i,j\n0,9223372036854775808\n",
         "data row 1 has j '9223372036854775808', expected an integer in [-2**63, 2**63)"),
    ], ids=["binary-float", "binary-word", "multigraph-word", "multigraph-empty",
            "multigraph-count-over-int64", "binary-id-over-int64"])
    def test_non_integer_fields_rejected(self, tmp_path, text, message):
        path = tmp_path / "edges.csv"
        path.write_text(text)
        with pytest.raises(ParameterError, match=re.escape(f"{path}: {message}")):
            read_edges_csv(path)

    def test_bad_headers_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        # the header is checked before the widths of the rows under it
        for header, row in (("a,b", "0,1"), ("i,j,w", "0,1,2"), ("j,i", "0,1"), ("", ""),
                            ("a,b,c", "0,1")):
            path.write_text(f"{header}\n{row}\n" if header else "")
            with pytest.raises(ParameterError, match=re.escape(
                    f"{path}: expected CSV header 'i,j,count' or 'i,j', got {header!r}")):
                read_edges_csv(path)
