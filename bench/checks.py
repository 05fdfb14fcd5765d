"""Output checks, each made apart from the program under test.

Every check returns a list of problems; an empty list means it passed.
They run outside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

# Largest union bound on expected missed edges a sweep may report.
SKIP_BOUND_LIMIT = 1e-3
# z-bounds for the two distributional checks.  With a few thousand snapshot
# checks per run they must not fire on correct output: 6 sigma for edge
# counts, 5 sigma for the mean of a few dozen total masses.
EDGE_Z = 6.0
MASS_Z = 5.0
# The type I slope written by the program against the one recomputed here.
FIT_TOL = 1e-9
# Pair blocks for the expected-edge sums, bounding their memory.
_BLOCK_ROWS = 256


def snapshot_identities(rows) -> list[str]:
    """sum_r r*D_r = 2E, and the degree and triangle histograms sum to V."""
    problems = []
    for replica, n, s in rows:
        deg_sum = sum(r * c for r, c in s.degree_hist.items())
        if deg_sum != 2 * s.total_edges:
            problems.append(f"replica {replica} N={n}: degree sum {deg_sum} != 2E "
                            f"= {2 * s.total_edges}")
        for kind, hist in (("degree", s.degree_hist), ("triangle", s.triangle_hist)):
            if sum(hist.values()) != s.effective_vertices:
                problems.append(f"replica {replica} N={n}: {kind} histogram sums to "
                                f"{sum(hist.values())}, V = {s.effective_vertices}")
    return problems


def coupled_growth(rows) -> list[str]:
    """V and E never decrease with N along one replica's trajectory."""
    problems = []
    last: dict[int, tuple] = {}
    for replica, n, s in sorted(rows, key=lambda row: (row[0], row[1])):
        if replica in last:
            n0, v0, e0 = last[replica]
            if s.effective_vertices < v0 or s.total_edges < e0:
                problems.append(f"replica {replica}: (V, E) fell from ({v0}, {e0}) at "
                                f"N={n0} to ({s.effective_vertices}, {s.total_edges}) "
                                f"at N={n}")
        last[replica] = (n, s.effective_vertices, s.total_edges)
    return problems


def skip_bound(bound: float) -> list[str]:
    if not bound <= SKIP_BOUND_LIMIT:
        return [f"skipped-edge bound {bound!r} exceeds {SKIP_BOUND_LIMIT}"]
    return []


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    design = np.column_stack([np.log10(x), np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, np.log10(y), rcond=None)
    return float(coef[0])


# _type_i_slope's answer when every V in the fit window is the same
CONSTANT_V = "constant V"


def _type_i_slope(rows: list[dict], lower_q: float, upper_q: float):
    """Type I slope from sweep.csv rows, None when too few points, or
    CONSTANT_V.

    The point selection follows the documented rule (at least 10
    snapshots; zero rows dropped; x in the [lower_q, upper_q] quantile
    window; at least 5 points); the fit itself is a separate least squares.
    """
    if len(rows) < 10:
        return None
    pts = np.array([(float(r["V"]), float(r["E"])) for r in rows
                    if int(r["V"]) > 0 and int(r["E"]) > 0]).reshape(-1, 2)
    if len(pts) == 0:
        return None
    lo, hi = np.quantile(pts[:, 0], [lower_q, upper_q])
    pts = pts[(pts[:, 0] >= lo) & (pts[:, 0] <= hi)]
    if len(pts) < 5:
        return None
    if np.ptp(pts[:, 0]) == 0:
        return CONSTANT_V
    return _ols_slope(pts[:, 0], pts[:, 1])


def fit_recomputation(out_dir, lower_q: float, upper_q: float) -> list[str]:
    """Pooled and per-replica type I slopes of fits.csv and fits.json agree
    with an OLS recomputed from sweep.csv."""
    out = Path(out_dir)
    sweep = _read_csv(out / "sweep.csv")
    csv_fits = {r["type"]: float(r["slope"]) for r in _read_csv(out / "fits.csv")}
    with open(out / "fits.json") as fh:
        json_fits = {r["type"]: float(r["slope"]) for r in json.load(fh)}
    groups = {"I": sweep}
    for r in sweep:
        groups.setdefault(f"I_replica{r['replica']}", []).append(r)
    problems = []
    for label, rows in groups.items():
        expect = _type_i_slope(rows, lower_q, upper_q)
        if expect is CONSTANT_V:
            # A replica whose V stops growing over the upper half of the
            # grid has no slope, but the program writes one fitted to
            # rounding noise; that depends on the seed, so it is left out.
            continue
        for source, fits in (("fits.csv", csv_fits), ("fits.json", json_fits)):
            got = fits.get(label)
            if expect is None and got is None:
                continue
            if expect is None or got is None or abs(got - expect) > FIT_TOL:
                problems.append(f"{source} {label} slope {got!r}, recomputed {expect!r}")
    return problems


def worker_independence(dir_a, dir_b,
                        names=("sweep.csv", "hist.csv", "fits.csv", "fits.json")) -> list[str]:
    """Output files of two runs of one configuration are byte-identical."""
    problems = []
    for name in names:
        a, b = Path(dir_a, name).read_bytes(), Path(dir_b, name).read_bytes()
        if a != b:
            problems.append(f"{name} differs between {dir_a} and {dir_b}")
    return problems


def expected_edges(weights, ns) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the edge count at each N in ``ns``.

    Each pair is present independently with q = 1 - (1 - w_i w_j)^N, so the
    mean is sum q and the variance sum q(1 - q), over all pairs i < j.
    """
    w = np.asarray(weights, dtype=np.float64)
    ns = np.asarray(ns, dtype=np.float64)
    mean = np.zeros(ns.size)
    var = np.zeros(ns.size)
    for a in range(0, w.size - 1, _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, w.size - 1)
        rows = np.arange(a, b)
        prod = w[a:b, None] * w[None, :]
        upper = np.arange(w.size)[None, :] > rows[:, None]
        log_miss = np.log1p(-prod[upper])
        for t, n in enumerate(ns):
            q = -np.expm1(n * log_miss)
            mean[t] += q.sum()
            var[t] += (q * (1.0 - q)).sum()
    return mean, var


def edge_count_law(weights, snapshots) -> list[str]:
    """Every snapshot's edge total lies within EDGE_Z sd of its expectation."""
    ns = [s.n_rounds for s in snapshots]
    mean, var = expected_edges(weights, ns)
    problems = []
    for s, m, v in zip(snapshots, mean, var):
        # the +1 keeps a snapshot with near-zero variance from failing on
        # rounding; it is far below one sd everywhere the check has power
        if abs(s.total_edges - m) > EDGE_Z * math.sqrt(v) + 1.0:
            problems.append(f"N={s.n_rounds}: E={s.total_edges}, expected {m:.1f} "
                            f"+- {math.sqrt(v):.1f}")
    return problems


def edge_list(binary) -> list[tuple[int, int]]:
    """The (i, j) pairs of a binary graph; the one place that reads its
    representation."""
    return [(int(i), int(j)) for i, j in binary.adjacency]


def triangle_oracle(binary, stats) -> list[str]:
    """Degrees and triangles from networkx equal the program's snapshot."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_edges_from(edge_list(binary))
    degree_hist = Counter(d for _, d in graph.degree())
    triangle_hist = Counter(nx.triangles(graph).values())
    problems = []
    if stats.effective_vertices != graph.number_of_nodes():
        problems.append(f"V {stats.effective_vertices} != networkx {graph.number_of_nodes()}")
    if stats.total_edges != graph.number_of_edges():
        problems.append(f"E {stats.total_edges} != networkx {graph.number_of_edges()}")
    ours = {r: c for r, c in stats.degree_hist.items() if c}
    if ours != dict(degree_hist):
        problems.append("degree histogram differs from networkx")
    ours = {r: c for r, c in stats.triangle_hist.items() if c}
    if ours != dict(triangle_hist):
        problems.append("triangle histogram differs from networkx")
    return problems


def mass_moment(totals, gamma: float, concentration: float, discount: float) -> list[str]:
    """Mean total mass within MASS_Z standard errors of gamma.

    The variance of one total mass is the second moment of the rate measure,
    gamma (1 - d) / (1 + c).
    """
    totals = np.asarray(totals, dtype=np.float64)
    se = math.sqrt(gamma * (1.0 - discount) / (1.0 + concentration) / totals.size)
    mean = float(totals.mean())
    if abs(mean - gamma) > MASS_Z * se:
        return [f"mean total mass {mean:.4f} over {totals.size} measures is more than "
                f"{MASS_Z} x {se:.4f} from {gamma}"]
    return []


def floor_filter(full, floored, floor: float) -> list[str]:
    """The floored measure is exactly the floor-0 measure's atoms >= floor."""
    keep = full.weights >= floor
    if not (np.array_equal(full.weights[keep], floored.weights)
            and np.array_equal(full.labels[keep], floored.labels)):
        return [f"floor {floor}: {int(keep.sum())} floor-0 atoms at or above the floor, "
                f"{floored.weights.size} in the floored measure, or they differ"]
    return []
