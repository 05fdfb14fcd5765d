import itertools
import random
import tracemalloc

import pytest

from crmgraph import stats
from crmgraph.graphs import BinaryGraph, binarize, generate
from crmgraph.measures import BetaProcessParams, StickBreakingConfig, \
    sample_three_param_bp
from crmgraph.stats import (StatsConsistencyError, VertexProfile,
                            degrees, summarize, triangles,
                            write_stats_long_csv, write_stats_wide_csv)


def graph(*edges, atoms=None):
    atoms = atoms if atoms is not None else 1 + max(max(e) for e in edges)
    return BinaryGraph(frozenset(tuple(sorted(e)) for e in edges), atoms)


PATH_PLUS = graph((1, 2), (1, 3), (2, 3), (3, 4))  # K3 with a pendant


def brute_force_triangles(z: BinaryGraph) -> dict[int, int]:
    """Exhaustive triple enumeration; the oracle for the intersection path."""
    vertices = sorted({v for e in z.adjacency for v in e})
    tri = {v: 0 for v in vertices}
    for a, b, c in itertools.combinations(vertices, 3):
        if {(a, b), (a, c), (b, c)} <= z.adjacency:
            tri[a] += 1
            tri[b] += 1
            tri[c] += 1
    return tri


def random_small_graph(rng: random.Random) -> BinaryGraph:
    n = rng.randint(2, 12)
    p = rng.uniform(0.1, 0.9)
    edges = frozenset((i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < p)
    return BinaryGraph(edges, n)


class TestDegrees:
    def test_hand_enumeration(self):
        assert degrees(PATH_PLUS) == {1: 2, 2: 2, 3: 3, 4: 1}

    def test_empty(self):
        assert degrees(BinaryGraph(frozenset(), 5)) == {}

    def test_star(self):
        star = graph(*[(0, leaf) for leaf in range(1, 6)])
        deg = degrees(star)
        assert deg[0] == 5
        assert all(deg[leaf] == 1 for leaf in range(1, 6))


class TestTriangles:
    def test_k3(self):
        assert triangles(graph((1, 2), (1, 3), (2, 3))) == {1: 1, 2: 1, 3: 1}

    def test_hand_enumeration(self):
        assert triangles(PATH_PLUS) == {1: 1, 2: 1, 3: 1, 4: 0}

    def test_k4(self):
        k4 = graph(*itertools.combinations(range(4), 2))
        result = triangles(k4)
        assert result == brute_force_triangles(k4)
        assert all(v == 3 for v in result.values())

    def test_triangle_bound(self):
        rng = random.Random(7)
        for _ in range(50):
            z = random_small_graph(rng)
            deg = degrees(z)
            for v, t in triangles(z).items():
                VertexProfile(v, deg[v], t)  # raises if t > C(deg, 2)

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(1234)
        for _ in range(200):
            z = random_small_graph(rng)
            assert triangles(z) == brute_force_triangles(z)
            assert degrees(z) == {v: len([e for e in z.adjacency if v in e])
                                  for v in {u for e in z.adjacency for u in e}}


def brute_force_degrees(z: BinaryGraph) -> dict[int, int]:
    return {v: len([e for e in z.adjacency if v in e])
            for v in {u for e in z.adjacency for u in e}}


def networkx_triangles(z: BinaryGraph) -> dict[int, int]:
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_edges_from(z.adjacency)
    return nx.triangles(g)


def complete_graph(n: int) -> BinaryGraph:
    return BinaryGraph(frozenset(itertools.combinations(range(n), 2)), n)


def sparse_id_graph(rng: random.Random) -> BinaryGraph:
    """A random graph on a few vertex ids scattered over many atoms."""
    ids = sorted(rng.sample(range(10_000), rng.randint(2, 15)))
    p = rng.uniform(0.2, 0.9)
    edges = frozenset(e for e in itertools.combinations(ids, 2) if rng.random() < p)
    return BinaryGraph(edges, 10_000)


SHAPES = {
    "empty": BinaryGraph(frozenset(), 5),
    "single_edge": graph((3, 8), atoms=12),
    "star": graph(*[(0, leaf) for leaf in range(1, 9)]),
    "k5": complete_graph(5),
    "k3_pendant": PATH_PLUS,
}


class TestForwardCount:
    """The array kernel against brute force and networkx."""

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_shapes_match_brute_force(self, name):
        z = SHAPES[name]
        assert triangles(z) == brute_force_triangles(z)
        assert degrees(z) == brute_force_degrees(z)

    def test_k5_counts(self):
        s = summarize(complete_graph(5), 1)
        assert s.degree_hist == {4: 5} and s.triangle_hist == {6: 5}

    def test_random_and_sparse_id_graphs(self):
        rng = random.Random(2024)
        for _ in range(100):
            for z in (random_small_graph(rng), sparse_id_graph(rng)):
                expected = brute_force_triangles(z)
                assert triangles(z) == expected
                assert degrees(z) == brute_force_degrees(z)
                if z.adjacency:
                    assert networkx_triangles(z) == expected

    def test_property_against_brute_force(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        pairs = st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(lambda e: e[0] < e[1])

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(st.frozensets(pairs, max_size=60))
        def check(edges):
            z = BinaryGraph(edges, 41)
            assert triangles(z) == brute_force_triangles(z)
            assert degrees(z) == brute_force_degrees(z)

        check()

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_wedge_block_does_not_change_results(self, monkeypatch, block):
        rng = random.Random(31)
        cases = [complete_graph(30), PATH_PLUS] + [random_small_graph(rng) for _ in range(20)]
        expected = [summarize(z, 4) for z in cases]
        monkeypatch.setattr(stats, "_WEDGE_BLOCK", block)
        assert [summarize(z, 4) for z in cases] == expected

    def test_networkx_oracle_on_sampled_graph(self):
        params = BetaProcessParams(concentration=1.0, discount=0.5, mass=3.0)
        m = sample_three_param_bp(params, StickBreakingConfig(rounds=800, seed=4))
        z = binarize(generate(m, 500_000, seed=9))
        assert 40_000 < len(z.adjacency) < 60_000
        assert triangles(z) == networkx_triangles(z)

    def test_memory_follows_block_not_wedges(self):
        # K_300: 44,850 edges and 4.45M wedges, all closed
        k300 = complete_graph(300)
        tracemalloc.start()
        try:
            s = summarize(k300, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.triangle_hist == {299 * 298 // 2: 300}
        assert peak < 16 * 2**20


class TestSummarize:
    def test_hand_example(self):
        s = summarize(PATH_PLUS, 17)
        assert s.n_rounds == 17
        assert s.effective_vertices == 4
        assert s.total_edges == 4
        assert s.degree_hist == {1: 1, 2: 2, 3: 1}
        assert s.triangle_hist == {0: 1, 1: 3}

    def test_empty(self):
        s = summarize(BinaryGraph(frozenset(), 9), 0)
        assert s.effective_vertices == 0 and s.total_edges == 0
        assert s.degree_hist == {} and s.triangle_hist == {}

    def test_k3(self):
        s = summarize(graph((1, 2), (1, 3), (2, 3)), 1)
        assert (s.effective_vertices, s.total_edges) == (3, 3)
        assert s.degree_hist == {2: 3}
        assert s.triangle_hist == {1: 3}

    def test_histogram_identities_on_random_graphs(self):
        rng = random.Random(99)
        for _ in range(100):
            z = random_small_graph(rng)
            s = summarize(z, 3)
            assert sum(r * c for r, c in s.degree_hist.items()) == 2 * s.total_edges
            assert sum(s.degree_hist.values()) == s.effective_vertices
            assert sum(s.triangle_hist.values()) == s.effective_vertices

    def test_identities_on_generated_graph(self):
        params = BetaProcessParams(concentration=1.0, discount=0.1, mass=3.0)
        m = sample_three_param_bp(params, StickBreakingConfig(rounds=400, seed=2))
        z = binarize(generate(m, 300, seed=5))
        s = summarize(z, 300)
        assert sum(r * c for r, c in s.degree_hist.items()) == 2 * s.total_edges
        assert sum(s.degree_hist.values()) == s.effective_vertices
        assert sum(s.triangle_hist.values()) == s.effective_vertices

    def test_relabeling_invariance(self):
        rng = random.Random(5)
        for _ in range(30):
            z = random_small_graph(rng)
            perm = list(range(z.atom_count))
            rng.shuffle(perm)
            relabeled = BinaryGraph(
                frozenset(tuple(sorted((perm[i], perm[j]))) for i, j in z.adjacency),
                z.atom_count)
            a, b = summarize(z, 1), summarize(relabeled, 1)
            assert (a.effective_vertices, a.total_edges) == (b.effective_vertices, b.total_edges)
            assert a.degree_hist == b.degree_hist
            assert a.triangle_hist == b.triangle_hist


class TestVertexProfile:
    def test_triangle_bound_enforced(self):
        with pytest.raises(StatsConsistencyError):
            VertexProfile(vertex=0, degree=2, triangles=2)
        VertexProfile(vertex=0, degree=2, triangles=1)


class TestStatsCsv:
    def test_wide_format(self, tmp_path):
        s = summarize(PATH_PLUS, 17)
        path = tmp_path / "stats.csv"
        write_stats_wide_csv([s], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "N,V,E,D_1,D_2,D_3,T_0,T_1"
        assert lines[1] == "17,4,4,1,2,1,1,3"

    def test_wide_format_pads_shorter_rows(self, tmp_path):
        rows = [summarize(graph((0, 1)), 1), summarize(PATH_PLUS, 2)]
        path = tmp_path / "stats.csv"
        write_stats_wide_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "N,V,E,D_1,D_2,D_3,T_0,T_1"
        assert lines[1] == "1,2,1,2,0,0,2,0"

    def test_long_format(self, tmp_path):
        s = summarize(graph((1, 2), (1, 3), (2, 3)), 4)
        path = tmp_path / "stats.csv"
        write_stats_long_csv([s], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "N,kind,r,count"
        assert "4,degree,2,3" in lines
        assert "4,triangle,1,3" in lines
