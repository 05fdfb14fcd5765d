"""Per-snapshot graph statistics on a binary graph.

Covers degrees, per-vertex triangle membership, the effective vertex count
(vertices with at least one edge), the edge total, and the exact-degree and
exact-triangle histograms.  Triangles are counted once per unordered triple;
a convention that double-counts ordered neighbor pairs would simply double
every value and shift nothing on a log-log plot.

All statistics come from one array pass over the edge list.  Degrees are two
``bincount``s.  Triangles use the degree-ordered forward algorithm (Chiba &
Nishizeki 1985; Schank & Wagner 2005): vertices are ranked by (degree, id),
every edge points toward its higher-ranked end, and each triangle is found
exactly once, from its lowest-ranked corner, as a pair of that corner's
out-neighbors (a wedge) joined by an edge.  Out-degrees are at most
sqrt(2E), so the wedges number O(E^1.5) at worst and far fewer on
heavy-tailed graphs; they are tested for closure in blocks of at most
``_WEDGE_BLOCK`` by binary search on the sorted oriented edge keys, so
memory follows the edges plus the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import write_csv
from .graphs import BinaryGraph, _pair_array, _row_blocks, _row_pairs
from .measures import check_integer

__all__ = [
    "GraphStats",
    "StatsConsistencyError",
    "degrees",
    "triangles",
    "summarize",
    "write_stats_wide_csv",
    "write_stats_long_csv",
]


# Wedges tested for closure at once.  A handful of arrays of this length are
# live per block, so triangle counting memory follows this constant plus the
# edges, not the number of wedges.
_WEDGE_BLOCK = 1 << 14


class StatsConsistencyError(RuntimeError):
    """Internal cross-check failed; indicates an implementation bug."""


@dataclass(frozen=True)
class GraphStats:
    """Snapshot summary at a given round count.

    ``degree_hist[r]`` counts effective vertices of degree r (r >= 1);
    ``triangle_hist[r]`` counts effective vertices in exactly r triangles
    (r >= 0).  Both histograms sum to ``effective_vertices``, and the
    degree-weighted sum is twice ``total_edges``.
    """

    n_rounds: int
    effective_vertices: int
    total_edges: int
    degree_hist: dict[int, int]
    triangle_hist: dict[int, int]


def _degree_triangle_arrays(graph: BinaryGraph):
    """Effective vertex ids (ascending) and their degrees and triangle counts."""
    pairs = _pair_array(graph.adjacency)
    vertex_ids, inverse = np.unique(pairs.ravel(), return_inverse=True)
    n = vertex_ids.size
    u, v = inverse.reshape(-1, 2).T
    degree = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    return vertex_ids, degree, _forward_triangles(u, v, degree)


def _forward_triangles(u: np.ndarray, v: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Triangles through each vertex of the edges (u, v), by the forward count."""
    n = degree.size
    # rank by (degree, id); a stable sort breaks degree ties by id
    order = np.argsort(degree, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    ru, rv = rank[u], rank[v]
    keys = np.sort(np.minimum(ru, rv) * n + np.maximum(ru, rv))
    lo, hi = np.divmod(keys, n)
    # row p pairs oriented edge p with the later edges of the same tail,
    # whose heads rank higher: one wedge per pair
    seg_end = np.searchsorted(lo, lo, side="right")
    lens = seg_end - np.arange(keys.size) - 1
    tri = np.zeros(n, dtype=np.int64)
    if not lens.any():
        return tri
    for start, stop in _row_blocks(lens, _WEDGE_BLOCK):
        a, b = _row_pairs(lens, start, stop)
        y, z = hi[a], hi[b]
        wanted = y * n + z
        at = np.searchsorted(keys, wanted)
        closed = keys[np.minimum(at, keys.size - 1)] == wanted
        for corner in (lo[a[closed]], y[closed], z[closed]):
            tri += np.bincount(corner, minlength=n)
    return tri[rank]


def _histogram(values: np.ndarray) -> dict[int, int]:
    """{value: multiplicity} over the distinct values, ascending."""
    counts = np.bincount(values)
    present = np.flatnonzero(counts)
    return dict(zip(present.tolist(), counts[present].tolist()))


def degrees(graph: BinaryGraph) -> dict[int, int]:
    """Degree of every effective vertex (distinct-neighbor count)."""
    vertex_ids, degree, _ = _degree_triangle_arrays(graph)
    return dict(zip(vertex_ids.tolist(), degree.tolist()))


def triangles(graph: BinaryGraph) -> dict[int, int]:
    """Number of unordered triangles each effective vertex belongs to."""
    vertex_ids, _, tri = _degree_triangle_arrays(graph)
    return dict(zip(vertex_ids.tolist(), tri.tolist()))


def summarize(graph: BinaryGraph, n_rounds: int) -> GraphStats:
    """All snapshot statistics for a binary graph observed at ``n_rounds``.

    The edge total is computed both as the adjacency size and as half the
    degree sum; disagreement is an internal error, not bad input.
    """
    n_rounds = check_integer("n_rounds", n_rounds, 0, 2**63)
    vertex_ids, degree, tri = _degree_triangle_arrays(graph)
    total_edges = len(graph.adjacency)
    degree_sum = int(degree.sum())
    if degree_sum != 2 * total_edges:
        raise StatsConsistencyError(
            f"degree sum {degree_sum} != twice edge count {total_edges}")
    return GraphStats(
        n_rounds=n_rounds,
        effective_vertices=int(vertex_ids.size),
        total_edges=total_edges,
        degree_hist=_histogram(degree),
        triangle_hist=_histogram(tri),
    )


def _hist_rows(snap: GraphStats):
    """(kind, r, count) histogram rows of one snapshot, degree rows first."""
    for kind, hist in (("degree", snap.degree_hist), ("triangle", snap.triangle_hist)):
        for r, count in hist.items():
            yield kind, r, count


def write_stats_wide_csv(rows: list[GraphStats], path) -> None:
    """Wide per-snapshot table: ``N,V,E,D_1..D_max,T_0..T_max``.

    Histogram columns span every value up to the maximum seen in any row,
    with zeros where a row has no vertices at that value.
    """
    max_d = max((max(s.degree_hist, default=0) for s in rows), default=0)
    max_t = max((max(s.triangle_hist, default=0) for s in rows), default=0)
    d_cols = list(range(1, max_d + 1))
    t_cols = list(range(0, max_t + 1))
    write_csv(path,
              ["N", "V", "E"] + [f"D_{r}" for r in d_cols] + [f"T_{r}" for r in t_cols],
              ([s.n_rounds, s.effective_vertices, s.total_edges]
               + [s.degree_hist.get(r, 0) for r in d_cols]
               + [s.triangle_hist.get(r, 0) for r in t_cols] for s in rows))


def write_stats_long_csv(rows: list[GraphStats], path) -> None:
    """Long histogram table: ``N,kind,r,count`` with kind degree|triangle."""
    write_csv(path, ("N", "kind", "r", "count"),
              ((s.n_rounds, *row) for s in rows for row in _hist_rows(s)))
