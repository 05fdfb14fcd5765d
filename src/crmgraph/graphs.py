"""Multigraph and binary-graph generation from an atomic measure.

Each of ``n_rounds`` rounds independently connects every unordered atom pair
(i, j) with probability ``w_i * w_j`` and no loops.  Because the per-round
indicators are iid across rounds and independent across pairs, the full
round-by-round draw collapses to one ``Binomial(n_rounds, w_i w_j)`` count
per pair with exactly the same joint law; that collapse is the default path,
and the literal round-by-round sampler is kept as a small-scale oracle.

Per-pair randomness is keyed by (seed, i, j, epoch), so any partitioning of
the pair enumeration across workers merges to the same result, and growing a
graph in increments (one epoch per increment) is reproducible from scratch.

Most pairs draw a zero count, and the draw finds that out cheaply.  A pair's
count is zero exactly when its keyed uniform ``(h >> 11) * 2**-53``, where h
is the pair's 64-bit hash, lies below its zero-count probability
``q0 = (1 - p)^n``; pairs whose q0 underflows draw from their own Philox
stream, served by ``rng.philox_streams``, instead.  Row i pairs atom i with
every later atom, so each pair of the row has q0 at least that of atom i
with the heaviest atom after it.  A hash below that level, less a margin
far wider than the rounding of log1p and exp, is a zero count for certain,
found by one integer compare.  The other pairs get their uniform and the
exact zero test in the same block, and only those that can be edges reach
the count pass, which gives each the count it would get if every pair ran
it, so the graph does not depend on the filters.  Rows go in index order,
so the edges come out sorted by (i, j).  No pair is left out, however
light: each costs at least its hash.

A coupled trajectory observed at a grid of round counts comes from
:func:`grow` in one such pass at the largest count: a pair's keyed uniform
fixes its first-edge round, and its count increments between grid values
come from one Philox stream per trajectory, over the pairs in (i, j) order.
:func:`extend` serves callers that grow a graph step by step, one pass per
step.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Set, Sized
from dataclasses import dataclass, replace

import numpy as np

from .fileio import column, read_csv, write_csv
from .measures import AtomicMeasure, ParameterError, check_integer
from .rng import derive_key, pair_hashes, philox, philox_streams, row_keys

__all__ = [
    "MultiGraph",
    "BinaryGraph",
    "GrowthState",
    "generate",
    "generate_exact_rounds",
    "start_growth",
    "extend",
    "grow",
    "binarize",
    "write_edges_csv",
    "read_edges_csv",
]

# generate_exact_rounds exists to cross-check distributions, not to scale.
_EXACT_MAX_ATOMS = 200
_EXACT_MAX_ROUNDS = 1000

# Below exp(-600) the k = 0 binomial pmf underflows; those few near-certain
# pairs fall back to a per-pair Philox stream instead of the inversion scan.
_LOG_PMF0_MIN = -600.0

# Relative margin by which a row's zero-count threshold sits below the level
# of its heaviest pair: far wider than the few-ulp rounding of log1p and exp,
# far too narrow to cost a measurable share of the pairs.
_ZERO_SLACK = 2.0**-30

# Pairs hashed and filtered at once (a longer row goes alone).  Generator
# memory follows this constant plus the pairs that can be edges, not the
# number of atom pairs.  Larger blocks were no faster and raised peak RSS.
_HASH_BLOCK = 1 << 14

# The key field of grow's count stream, beside the trajectory's seed.
_GROW_STREAM = 0x640F

_MULTIGRAPH_HEADER = ("i", "j", "count")
_BINARYGRAPH_HEADER = ("i", "j")


class _SortedPairs:
    """Read-only access to sorted COO pairs: ``pairs`` is a C-ordered (2, E)
    int64 array whose columns (i, j), i < j, ascend in (i, j), the order of
    the key ``i * atom_count + j``.  Iteration yields (i, j) tuples of ints,
    and a lookup is a binary search, so a view holds nothing beyond its
    arrays.  A view handed to a graph constructor may be in any order; the
    graph keeps a sorted one."""

    def __init__(self, pairs: np.ndarray):
        self.pairs = pairs

    def __len__(self) -> int:
        return self.pairs.shape[1]

    def __iter__(self):
        return zip(*self.pairs.tolist())

    def _find(self, pair) -> int:
        """The column of ``pair``, or -1."""
        i, j = self.pairs
        a, b = pair
        lo, hi = i.searchsorted(a), i.searchsorted(a, side="right")
        at = lo + j[lo:hi].searchsorted(b)
        return int(at) if at < hi and j[at] == b else -1


class EdgeSet(_SortedPairs, Set):
    """The (i, j) pairs of a binary graph, as a read-only set."""

    def __contains__(self, pair) -> bool:
        return self._find(pair) >= 0


class EdgeCounts(_SortedPairs, Mapping):
    """The {(i, j): count} of a multigraph, as a read-only mapping over its
    pairs and the parallel int64 ``counts``."""

    def __init__(self, pairs: np.ndarray, counts: np.ndarray):
        super().__init__(pairs)
        self.counts = counts

    def __getitem__(self, pair) -> int:
        at = self._find(pair)
        if at < 0:
            raise KeyError(pair)
        return int(self.counts[at])

    def items(self):
        """The (pair, count) items in pair order, in one pass over the arrays."""
        return zip(self, self.counts.tolist())


@dataclass(frozen=True)
class MultiGraph:
    """Accumulated edge counts over ``n_rounds`` Bernoulli rounds.

    ``edge_counts`` holds each connected unordered pair (i, j), i < j, with
    its positive count; absent pairs have count zero.  The constructor also
    takes a {pair: count} mapping; an ``EdgeCounts`` given in any order has
    the counts of a repeated pair added.
    """

    n_rounds: int
    atom_count: int
    edge_counts: EdgeCounts

    def __post_init__(self):
        object.__setattr__(self, "n_rounds", check_integer("n_rounds", self.n_rounds, 0, 2**63))
        object.__setattr__(self, "atom_count", check_integer("atom_count", self.atom_count, 0, 2**63))
        edges = self.edge_counts
        if not isinstance(edges, EdgeCounts):
            edges = EdgeCounts(_pair_array(edges), _int64_array(edges.values(), "edge count"))
        _check_pairs(edges.pairs, self.atom_count, edges.counts, self.n_rounds)
        object.__setattr__(self, "edge_counts", EdgeCounts(*_canonical(edges.pairs, edges.counts)))

    def total_edges(self) -> int:
        """Number of distinct connected pairs."""
        return len(self.edge_counts)

    @property
    def skipped_pairs(self) -> int:
        """Always 0: every pair is drawn.  Kept only while the benchmark
        reads it; it goes once the benchmark stops."""
        return 0

    @property
    def skipped_edge_bound(self) -> float:
        """Always 0.0: no pair is skipped, so no edge is missed.  Kept only
        while the benchmark reads it; it goes once the benchmark stops."""
        return 0.0


@dataclass(frozen=True)
class BinaryGraph:
    """Unordered adjacency: the pairs with at least one edge.  The
    constructor also takes any iterable of pairs; a repeated pair counts
    once."""

    adjacency: EdgeSet
    atom_count: int

    def __post_init__(self):
        object.__setattr__(self, "atom_count", check_integer("atom_count", self.atom_count, 0, 2**63))
        adjacency = self.adjacency
        pairs = adjacency.pairs if isinstance(adjacency, EdgeSet) else _pair_array(adjacency)
        _check_pairs(pairs, self.atom_count)
        object.__setattr__(self, "adjacency", EdgeSet(_canonical(pairs)[0]))


def _int64_array(values, name: str) -> np.ndarray:
    """Edge-list ``values`` given as Python objects, as an int64 array.  Each
    must be an integer by :func:`check_integer`'s rule, within int64, or a
    ParameterError names it; arrays from the draw or the CSV reader skip this."""
    checked = []
    for value in values:
        if isinstance(value, (int, np.integer)) and not -2**63 <= value < 2**63:
            raise ParameterError(f"{name} {value} is outside the int64 range")
        checked.append(check_integer(name, value, -2**63, 2**63))
    return np.array(checked, dtype=np.int64)


def _pair_array(pairs) -> np.ndarray:
    """An iterable of (i, j) pairs as a (2, E) int64 array, in iteration order."""
    ids = []
    for pair in pairs:
        if not isinstance(pair, Sized) or len(pair) != 2:
            raise ParameterError(f"edge list entry {pair!r} is not an (i, j) pair")
        ids.extend(pair)
    return np.ascontiguousarray(_int64_array(ids, "vertex id").reshape(-1, 2).T)


def _sort_order(pairs: np.ndarray):
    """The stable order that sorts COO ``pairs`` by (i, j), and the mask of
    the sorted columns that repeat the column before them."""
    order = np.lexsort(pairs[::-1])
    ordered = pairs.take(order, axis=1)
    repeat = np.zeros(order.size, dtype=bool)
    repeat[1:] = (ordered[:, 1:] == ordered[:, :-1]).all(axis=0)
    return order, repeat


def _canonical(pairs: np.ndarray, counts: np.ndarray | None = None):
    """COO ``pairs`` and ``counts`` sorted by (i, j), each repeated pair kept
    once with its counts summed.  Sorted, distinct pairs come back as they
    are, so a container built from another's arrays shares them."""
    i, j = pairs
    if ((i[1:] > i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] > j[:-1]))).all():
        return pairs, counts
    order, repeat = _sort_order(pairs)
    first = np.flatnonzero(~repeat)
    if counts is not None:
        counts = np.add.reduceat(counts[order], first)
    return pairs.take(order[first], axis=1), counts


def _check_draw_args(n_rounds: int, seed: int) -> tuple[int, int]:
    """``n_rounds`` and ``seed`` as ints, once checked: counts must fit in int64,
    the type of every count and of the Philox fallback's binomial draw, and
    seeds in 64 unsigned bits, or derive_key would alias them to other seeds."""
    return check_integer("n_rounds", n_rounds, 0, 2**63), check_integer("seed", seed, 0, 2**64)


def _check_pairs(pairs: np.ndarray, atom_count: int, counts=None, n_rounds=None) -> None:
    """Raise ParameterError naming the first bad column of ``pairs``.

    A column (i, j) is bad if it is a loop, lies outside
    0 <= i < j < atom_count, or, when ``counts`` is given, has a count
    outside 1..n_rounds.
    """
    i, j = pairs
    bad = (i < 0) | (i >= j) | (j >= atom_count)
    if counts is not None:
        bad |= (counts < 1) | (counts > n_rounds)
    hits = np.flatnonzero(bad)
    if not hits.size:
        return
    first = int(hits[0])
    a, b = pairs[:, first].tolist()
    if a == b:
        raise ParameterError(f"loop ({a}, {a}) is not allowed")
    if not 0 <= a < b < atom_count:
        raise ParameterError(f"pair ({a}, {b}) out of range for {atom_count} atoms: "
                             f"need 0 <= i < j < {atom_count}")
    raise ParameterError(f"count {int(counts[first])} for pair ({a}, {b}) outside 1..{n_rounds}")


@dataclass(frozen=True)
class GrowthState:
    """A graph being grown round-by-round from a fixed measure.

    Replaying the same (measure, seed) trajectory reproduces the same graph
    at every intermediate round count; each ``extend`` call consumes the next
    epoch of the per-pair streams.
    """

    measure: AtomicMeasure
    seed: int
    graph: MultiGraph
    epoch: int = 0

    @property
    def n_rounds(self) -> int:
        return self.graph.n_rounds


def _row_blocks(lens: np.ndarray, block: int):
    """Consecutive row ranges [start, stop) of at most ``block`` pairs.

    A row longer than the block size forms a block on its own.
    """
    ends = np.cumsum(lens)
    start, done = 0, 0
    while done < ends[-1]:
        stop = max(int(np.searchsorted(ends, done + block, side="right")), start + 1)
        yield start, stop
        start, done = stop, int(ends[stop - 1])


def _zero_thresholds(heaviest: np.ndarray, n_rounds: int) -> np.ndarray:
    """Per row, a 64-bit pair hash below which the count of every pair of the
    row is zero, given ``heaviest``, the largest edge probability of the row.

    Every pair of the row has a zero-count probability ``q0 = (1 - p)^n`` at
    least that of ``heaviest``.  The threshold is that level, shrunk by
    ``_ZERO_SLACK`` to absorb rounding in ``log1p`` and ``exp``, and put on the
    hash scale of :func:`_draw_increment`, whose uniform is
    ``(h >> 11) * 2**-53``.  It is zero wherever the level is below 2**-53,
    which includes every row with a Philox pair.
    """
    q0 = np.exp(n_rounds * np.log1p(-heaviest))
    level = np.floor(q0 * (1.0 - _ZERO_SLACK) * 2.0**53).astype(np.uint64)
    return level << np.uint64(11)


def _binomial_counts(base_key: int, weights: np.ndarray, i: np.ndarray,
                     j: np.ndarray, u: np.ndarray, n_rounds: int) -> np.ndarray:
    """Exact Binomial(n_rounds, p = w_i w_j) count per candidate pair (i, j).

    Each candidate's keyed uniform in ``u`` is at or above its zero-count
    probability ``q0 = (1 - p)^n``, so inverse-CDF inversion gives it a count
    of at least one, unless q0 underflows: then the pair draws from the
    Philox stream keyed by (base_key, i, j) that ``rng.philox_streams``
    serves, and may draw zero.  The indices go first in the ``zip``, so a
    draw with no such pair opens no stream.  Either way the value depends
    only on (base_key, i, j, n_rounds, p).
    """
    probs = weights[i] * weights[j]
    log_q0 = n_rounds * np.log1p(-probs)
    big = log_q0 < _LOG_PMF0_MIN
    counts = np.zeros(probs.size, dtype=np.int64)

    # k, the steps every alive pair has taken, is a float: the counts depend
    # on n_rounds - k rounding to a double when n_rounds >= 2**53
    alive = np.flatnonzero(~big)
    ratio = probs[alive] / (1.0 - probs[alive])
    pmf = np.exp(log_q0[alive])
    cdf = pmf.copy()
    ua = u[alive]
    k = 0.0
    while alive.size:
        pmf *= (n_rounds - k) / (k + 1.0) * ratio
        k += 1.0
        cdf += pmf
        done = (ua < cdf) | (k >= n_rounds)
        counts[alive[done]] = k
        keep = ~done
        alive, pmf, cdf, ua, ratio = alive[keep], pmf[keep], cdf[keep], ua[keep], ratio[keep]

    for idx, rng in zip(np.flatnonzero(big), philox_streams(base_key, i[big], j[big])):
        counts[idx] = rng.binomial(n_rounds, probs[idx])
    return counts


def _candidates(weights: np.ndarray, n_rounds: int, base_key: int):
    """The pairs (i, j), sorted, that can have a positive count after
    ``n_rounds`` rounds, with their keyed uniforms ``u``: those with u at or
    above their zero-count probability ``q0 = (1 - p)^n``, and those whose q0
    underflows.

    Row i pairs atom i with every later atom; rows are hashed in blocks of at
    most ``_HASH_BLOCK`` pairs, one :func:`pair_hashes` call per block over
    exactly its pairs.  A block repeats each row's key and zero threshold
    along the row, takes j from the rows' column slices, and finds i only for
    the pairs that pass the row filter.  A hash below the row's
    :func:`_zero_thresholds` entry puts the pair's keyed uniform below the
    zero-count level of the row's heaviest pair, at most the pair's own, so
    its count is zero for certain.  The others get their keyed uniform
    ``(h >> 11) * 2**-53`` and the exact zero test.
    """
    k = weights.size
    if n_rounds == 0 or k < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
    lens = k - 1 - np.arange(k)
    keys = row_keys(base_key, k)
    # row i's heaviest pair joins atom i to the heaviest atom after it
    after = np.append(np.maximum.accumulate(weights[::-1])[-2::-1], 0.0)
    zero_below = _zero_thresholds(weights * after, n_rounds)
    cols = np.arange(k, dtype=np.uint64)  # uint64, so pair_hashes reads j in place
    parts = []
    for start, stop in _row_blocks(lens, _HASH_BLOCK):
        row_lens = lens[start:stop]
        j = np.concatenate([cols[a + 1:] for a in range(start, stop)])
        h = pair_hashes(np.repeat(keys[start:stop], row_lens), j)
        kept = np.flatnonzero(h >= np.repeat(zero_below[start:stop], row_lens))
        i = start + np.cumsum(row_lens).searchsorted(kept, side="right")
        # rebinding h frees the block's hashes first (held, they add 3 MB to stress peak RSS)
        j, h = j[kept].view(np.int64), h[kept]
        u = (h >> np.uint64(11)).astype(np.float64) * 2.0**-53
        log_q0 = n_rounds * np.log1p(-(weights[i] * weights[j]))
        kept = np.flatnonzero((u >= np.exp(log_q0)) | (log_q0 < _LOG_PMF0_MIN))
        parts.append((i[kept], j[kept], u[kept]))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _draw_increment(measure: AtomicMeasure, delta_rounds: int, seed: int,
                    epoch: int) -> EdgeCounts:
    """One epoch of pair draws: the pairs with a positive count, sorted by
    (i, j), and their counts.

    The :func:`_candidates` of the epoch's key reach one
    :func:`_binomial_counts` call with their uniforms, whose counts depend on
    nothing but the pair: those of every pair.
    """
    base_key = derive_key(seed, epoch)
    i, j, u = _candidates(measure.weights, delta_rounds, base_key)
    counts = _binomial_counts(base_key, measure.weights, i, j, u, delta_rounds)
    nz = np.flatnonzero(counts)
    return EdgeCounts(np.stack((i[nz], j[nz])), counts[nz])


def generate(measure: AtomicMeasure, n_rounds: int, seed: int) -> MultiGraph:
    """Sample the multigraph after ``n_rounds`` rounds of edge draws.

    Parameters
    ----------
    measure : AtomicMeasure
        Atom weights; graph vertices are the atom indices.
    n_rounds : int
        Number of Bernoulli rounds collapsed into one binomial per pair,
        in [0, 2**63).
    seed : int
        Stream seed in [0, 2**64); (measure, n_rounds, seed) fixes the graph.
    """
    n_rounds, seed = _check_draw_args(n_rounds, seed)
    return MultiGraph(n_rounds, len(measure), _draw_increment(measure, n_rounds, seed, 0))


def generate_exact_rounds(measure: AtomicMeasure, n_rounds: int, seed: int) -> MultiGraph:
    """Literal round-by-round Bernoulli reference sampler.

    Same distribution as :func:`generate`, drawing each pair once per round,
    in O(n_rounds * atoms^2) time.  Refuses inputs beyond the small scales it
    exists for; it is the honesty oracle for the binomial collapse, not a
    production path.
    """
    n_rounds, seed = _check_draw_args(n_rounds, seed)
    k = len(measure)
    if k > _EXACT_MAX_ATOMS:
        raise ParameterError(f"exact-rounds sampler limited to {_EXACT_MAX_ATOMS} atoms, got {k}")
    if n_rounds > _EXACT_MAX_ROUNDS:
        raise ParameterError(f"exact-rounds sampler limited to {_EXACT_MAX_ROUNDS} rounds, got {n_rounds}")

    iu, ju = np.triu_indices(k, k=1)
    probs = measure.weights[iu] * measure.weights[ju]
    counts = np.zeros(probs.size, dtype=np.int64)
    rng = philox(seed, 0x0EAC7)
    for _ in range(n_rounds):
        counts += rng.random(probs.size) < probs
    nz = np.flatnonzero(counts)
    return MultiGraph(n_rounds, k, EdgeCounts(np.stack((iu[nz], ju[nz])), counts[nz]))


def start_growth(measure: AtomicMeasure, seed: int) -> GrowthState:
    """A fresh trajectory at zero rounds for the given measure and seed."""
    _, seed = _check_draw_args(0, seed)
    return GrowthState(measure, seed, MultiGraph(0, len(measure), {}))


def extend(state: GrowthState, delta_rounds: int) -> GrowthState:
    """Advance a trajectory by ``delta_rounds`` additional rounds.

    The increment is one Binomial(delta_rounds, w_i w_j) draw per pair from
    the next epoch's streams, added onto the existing counts, so the result
    has the same marginal law as a one-shot generate at the combined round
    count and every pair count is nondecreasing along the trajectory.  The
    combined round count must stay below 2**63.
    """
    delta_rounds = check_integer("delta_rounds", delta_rounds, 1, 2**63)
    n_rounds = state.graph.n_rounds + delta_rounds
    if n_rounds >= 2**63:
        raise ParameterError(f"n_rounds must stay below 2**63, got {n_rounds}")
    epoch = state.epoch + 1
    old = state.graph.edge_counts
    new = _draw_increment(state.measure, delta_rounds, state.seed, epoch)
    # MultiGraph sorts the joined pairs and adds the counts of a pair in both
    merged = EdgeCounts(np.concatenate((old.pairs, new.pairs), axis=1),
                        np.concatenate((old.counts, new.counts)))
    graph = MultiGraph(n_rounds, state.graph.atom_count, merged)
    return replace(state, graph=graph, epoch=epoch)


def grow(measure: AtomicMeasure, seed: int, n_grid: Iterable[int]) -> list[MultiGraph]:
    """The coupled multigraph at each round count of the nondecreasing
    ``n_grid``, from one pair pass at its largest value N.

    The pass finds the pairs ``generate(measure, N, seed)`` can make edges,
    with their keyed uniforms u.  A pair's first-edge round is
    T = ceil(log u / log1p(-p)), a Geometric(p) round clipped to [1, N], so
    every pair the pass finds is an edge at N.  From one grid value ``prev``
    to the next ``n``, a pair with T <= n gains
    [prev < T] + Binomial(n - max(prev, T), p).  Those draws come from one
    Philox stream keyed by ``seed``, over the pairs in (i, j) order, so a
    pair's count at n is Binomial(n, p), with increments independent of the
    counts before them: the law of :func:`extend`, from one pass over the
    pairs instead of one per grid value.
    """
    _, seed = _check_draw_args(0, seed)
    grid = [check_integer("n_rounds", n, 0, 2**63) for n in n_grid]
    for a, b in zip(grid, grid[1:]):
        if b < a:
            raise ParameterError(f"n_grid must be nondecreasing, got {b} after {a}")
    if not grid:
        return []
    n_max, weights = grid[-1], measure.weights
    i, j, u = _candidates(weights, n_max, derive_key(seed, 0))
    probs = weights[i] * weights[j]
    # u may be 0, making T infinite; a T at or past N, which int64 may not
    # hold, becomes N, and the others convert exactly
    with np.errstate(divide="ignore", invalid="ignore"):
        rounds = np.ceil(np.log(u) / np.log1p(-probs))
    first = np.full(u.size, n_max, dtype=np.int64)
    early = rounds < n_max
    first[early] = np.maximum(rounds[early], 1.0).astype(np.int64)
    counts = np.zeros(u.size, dtype=np.int64)
    rng = philox(seed, _GROW_STREAM)
    graphs, prev = [], 0
    for n in grid:
        on = first <= n
        if n > prev:
            since = first[on]
            counts[on] += (prev < since) + rng.binomial(n - np.maximum(prev, since), probs[on])
            prev = n
        graphs.append(MultiGraph(n, weights.size,
                                 EdgeCounts(np.stack((i[on], j[on])), counts[on])))
    return graphs


def binarize(graph: MultiGraph) -> BinaryGraph:
    """Threshold counts at one: the pairs connected at least once, sharing
    the multigraph's pair array."""
    return BinaryGraph(EdgeSet(graph.edge_counts.pairs), graph.atom_count)


def write_edges_csv(graph: MultiGraph | BinaryGraph, path) -> None:
    """Write a MultiGraph as ``i,j,count`` rows or a BinaryGraph as ``i,j``
    rows, sorted by pair."""
    if isinstance(graph, MultiGraph):
        edges = graph.edge_counts
        write_csv(path, _MULTIGRAPH_HEADER, zip(*edges.pairs.tolist(), edges.counts.tolist()))
    else:
        write_csv(path, _BINARYGRAPH_HEADER, graph.adjacency)


def read_edges_csv(path) -> MultiGraph | BinaryGraph:
    """The graph an edge-list CSV's header names: a MultiGraph for
    ``i,j,count``, a BinaryGraph for ``i,j``.  No pair may repeat.  The atom
    count is one past the largest id and the round count the largest count,
    the smallest totals consistent with the data."""
    header, rows = read_csv(path, _MULTIGRAPH_HEADER, _BINARYGRAPH_HEADER)
    i, j, *counts = (np.array(column(path, header, rows, name, int), dtype=np.int64)
                     for name in header)
    pairs = np.stack((i, j))
    order, repeat = _sort_order(pairs)
    if repeat.any():
        # the stable sort puts a pair's first row first: the earliest repeat
        a, b = pairs[:, order[repeat].min()].tolist()
        raise ParameterError(f"{path}: pair {(a, b)} appears on more than one row")
    atom_count = 1 + int(j.max(initial=-1))
    if not counts:
        return BinaryGraph(EdgeSet(pairs), atom_count)
    return MultiGraph(int(counts[0].max(initial=0)), atom_count, EdgeCounts(pairs, counts[0]))
