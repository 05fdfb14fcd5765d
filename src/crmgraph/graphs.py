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
count comes from its keyed uniform ``(h >> 11) * 2**-53``, where h is the
pair's 64-bit hash, and is zero exactly when that uniform lies below the
zero-count probability ``q0 = (1 - p)^n``; pairs whose q0 underflows draw
from their own Philox stream instead.  Walking the atoms by descending
weight, row a pairs atom a only with lighter atoms, so every pair of the row
has p at most that of the row's first pair, and q0 at least that pair's.  A
hash below that level, less a margin far wider than the rounding of log1p
and exp, is therefore a zero count for certain, found by one integer
compare.  Only the other pairs run the binomial draw, which gives each the
count it gets when every pair runs it, so the graph, edge order included,
does not depend on the filter.  No pair is left out, however light: each
costs at least its hash.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, islice

import numpy as np

from .fileio import read_csv, write_csv
from .measures import AtomicMeasure, ParameterError, check_integer
from .rng import derive_key, pair_hashes, philox, row_keys

__all__ = [
    "MultiGraph",
    "BinaryGraph",
    "GrowthState",
    "generate",
    "generate_exact_rounds",
    "start_growth",
    "extend",
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

# Pairs that may be edges, drawn by _binomial_counts at once; also the
# number of edges validated at once.  About a dozen arrays of this length
# are live per draw, so generator memory follows this constant plus the
# edges, not the number of atom pairs.
_PAIR_BLOCK = 1 << 16

# Pairs hashed at once, in work buffers of this length (or a longer row's).
# Larger blocks were no faster and raised peak RSS.
_HASH_BLOCK = 1 << 14

_MULTIGRAPH_HEADER = ("i", "j", "count")
_BINARYGRAPH_HEADER = ("i", "j")


@dataclass(frozen=True)
class MultiGraph:
    """Accumulated edge counts over ``n_rounds`` Bernoulli rounds.

    ``edge_counts`` maps each connected unordered pair (i, j), i < j, to its
    positive count; absent pairs have count zero.
    """

    n_rounds: int
    atom_count: int
    edge_counts: dict[tuple[int, int], int]

    def __post_init__(self):
        object.__setattr__(self, "n_rounds", check_integer("n_rounds", self.n_rounds, 0, 2**63))
        _check_edges(self.edge_counts, self.atom_count, self.edge_counts.values(),
                     self.n_rounds)

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
    """Unordered adjacency: the pairs with at least one edge."""

    adjacency: frozenset[tuple[int, int]]
    atom_count: int

    def __post_init__(self):
        object.__setattr__(self, "adjacency", frozenset(self.adjacency))
        _check_edges(self.adjacency, self.atom_count)


def _int64_array(values, count: int) -> np.ndarray:
    try:
        return np.fromiter(values, np.int64, count=count)
    except OverflowError:
        raise ParameterError("edge list holds a value outside the int64 range") from None


def _pair_array(pairs) -> np.ndarray:
    """The (i, j) pairs of an edge container as an (E, 2) int64 array, in
    iteration order."""
    return _int64_array(chain.from_iterable(pairs), 2 * len(pairs)).reshape(-1, 2)


def _check_draw_args(n_rounds: int, seed: int) -> tuple[int, int]:
    """``n_rounds`` and ``seed`` as ints, once checked: counts must fit in int64,
    the type of every count and of the Philox fallback's binomial draw, and
    seeds in 64 unsigned bits, or derive_key would alias them to other seeds."""
    return check_integer("n_rounds", n_rounds, 0, 2**63), check_integer("seed", seed, 0, 2**64)


def _check_edges(pairs, atom_count: int, counts=None, n_rounds=None) -> None:
    """:func:`_check_pairs` over an edge container's pairs and, when given,
    their counts (in the same order), ``_PAIR_BLOCK`` pairs at a time, so
    the arrays it builds stay small."""
    pair_iter = iter(pairs)
    count_iter = None if counts is None else iter(counts)
    for done in range(0, len(pairs), _PAIR_BLOCK):
        m = min(_PAIR_BLOCK, len(pairs) - done)
        block_counts = None if counts is None else _int64_array(islice(count_iter, m), m)
        block = _int64_array(chain.from_iterable(islice(pair_iter, m)), 2 * m)
        _check_pairs(block.reshape(-1, 2), atom_count, block_counts, n_rounds)


def _check_pairs(pairs: np.ndarray, atom_count: int, counts=None, n_rounds=None) -> None:
    """Raise ParameterError naming the first bad row of ``pairs``.

    A row is bad if it is a loop, lies outside 0 <= i < j < atom_count, or,
    when ``counts`` is given, has a count outside 1..n_rounds.
    """
    i, j = pairs[:, 0], pairs[:, 1]
    bad = (i < 0) | (i >= j) | (j >= atom_count)
    if counts is not None:
        bad |= (counts < 1) | (counts > n_rounds)
    hits = np.flatnonzero(bad)
    if not hits.size:
        return
    first = int(hits[0])
    a, b = pairs[first].tolist()
    if a == b:
        raise ParameterError(f"loop ({a}, {a}) is not allowed")
    if not 0 <= a < b < atom_count:
        raise ParameterError(f"pair ({a}, {b}) out of range for {atom_count} atoms")
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


def _row_pairs(lens: np.ndarray, start: int, stop: int):
    """Positions (a, b) of the pairs of rows start..stop-1, row by row.

    Row a pairs with positions a+1 .. a+lens[a].
    """
    row_lens = lens[start:stop]
    a = np.repeat(np.arange(start, stop), row_lens)
    first = np.arange(start + 1, stop + 1) - (np.cumsum(row_lens) - row_lens)
    b = np.arange(a.size) + np.repeat(first, row_lens)
    return a, b


def _zero_thresholds(ws: np.ndarray, n_rounds: int) -> np.ndarray:
    """Per row a of the descending order, a 64-bit pair hash below which the
    count of every pair of the row is zero.

    Row a's heaviest pair is (a, a+1), so every pair of the row has
    ``p <= ws[a] * ws[a+1]`` and a zero-count probability ``q0 = (1 - p)^n``
    at least that pair's.  The threshold is that level, shrunk by
    ``_ZERO_SLACK`` to absorb rounding in ``log1p`` and ``exp``, and put on the
    hash scale of :func:`_binomial_counts`, whose uniform is
    ``(h >> 11) * 2**-53``.  It is zero wherever the level is below 2**-53,
    which includes every row with a Philox pair.
    """
    heaviest = np.append(ws[:-1] * ws[1:], 0.0)  # the last row has no pairs
    q0 = np.exp(n_rounds * np.log1p(-heaviest))
    level = np.floor(q0 * (1.0 - _ZERO_SLACK) * 2.0**53).astype(np.uint64)
    return level << np.uint64(11)


def _binomial_counts(base_key: int, hashes: np.ndarray, i: np.ndarray,
                     j: np.ndarray, n_rounds: int, probs: np.ndarray) -> np.ndarray:
    """Exact Binomial(n_rounds, p) count per pair from its keyed stream.

    Counts come from inverse-CDF inversion of one uniform per pair, the top
    53 bits of its 64-bit keyed hash in ``hashes``, ``(h >> 11) * 2**-53``;
    a pair whose zero-count probability underflows instead draws from its
    own Philox stream keyed by (base_key, i, j).  Either way the value
    depends only on (base_key, i, j, n_rounds, p).
    """
    counts = np.zeros(probs.size, dtype=np.int64)
    log_q0 = n_rounds * np.log1p(-probs)
    big = log_q0 < _LOG_PMF0_MIN
    u = (hashes >> np.uint64(11)).astype(np.float64) * 2.0**-53

    # k, the steps every alive pair has taken, is a float: the counts depend
    # on n_rounds - k rounding to a double when n_rounds >= 2**53
    alive = np.flatnonzero((u >= np.exp(log_q0)) & ~big)
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

    for idx in np.flatnonzero(big):
        rng = philox(base_key, int(i[idx]), int(j[idx]))
        counts[idx] = rng.binomial(n_rounds, probs[idx])
    return counts


def _survivor_batches(order: np.ndarray, lens: np.ndarray, atom_keys: np.ndarray,
                      zero_below: np.ndarray):
    """The pairs whose count may be nonzero, as batches (i, j, h) of original
    indices i < j and pair hashes, in row order, of at most ``_PAIR_BLOCK``
    pairs (more only when one hash block alone keeps more).  Row a pairs
    position a of the descending ``order`` with every later position,
    ``lens[a]`` of them.

    A pair is kept when its hash is at or above its row's ``zero_below``
    threshold; :func:`_binomial_counts` draws from that same hash.  Rows are
    hashed ``_HASH_BLOCK`` pairs at a time (a longer row goes alone) in work
    buffers shared by every block.
    """
    ends = np.concatenate([[0], np.cumsum(lens)])
    size = min(int(ends[-1]), max(_HASH_BLOCK, int(lens[0])))
    hashes = np.empty(size, dtype=np.uint64)
    lo_buf, hi_buf = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    parts, held = [], 0
    for s, e in _row_blocks(lens, _HASH_BLOCK):
        n = int(ends[e] - ends[s])
        hi = np.concatenate([order[a + 1:] for a in range(s, e)], out=hi_buf[:n])
        lo = np.repeat(order[s:e], lens[s:e])
        i = np.minimum(lo, hi, out=lo_buf[:n])
        j = np.maximum(lo, hi, out=hi)
        h = pair_hashes(atom_keys.take(i, out=hashes[:n], mode="clip"),
                        j.view(np.uint64), out=hashes[:n])
        keep = np.flatnonzero(h >= np.repeat(zero_below[s:e], lens[s:e]))
        if parts and held + keep.size > _PAIR_BLOCK:
            yield _drain(parts)
            held = 0
        parts.append((i[keep], j[keep], h[keep]))
        held += keep.size
    if parts:
        yield _drain(parts)


def _drain(parts: list):
    """The (i, j, h) pieces in ``parts`` joined, emptying the list so that
    the pieces are freed before the joined arrays are used."""
    joined = tuple(np.concatenate(piece) for piece in zip(*parts))
    parts.clear()
    return joined


def _draw_increment(measure: AtomicMeasure, delta_rounds: int, seed: int,
                    epoch: int) -> dict:
    """One epoch of pair draws: {pair: positive count}.

    Each pair is hashed once and its hash compared with its row's
    :func:`_zero_thresholds` entry.  A hash below it puts the pair's keyed
    uniform below the zero-count level of the row's heaviest pair, which is
    at most the pair's own level, so the pair's count is zero for certain.
    Only the other pairs, with their hashes, reach :func:`_binomial_counts`,
    whose counts depend on nothing but the pair, so the counts and the order
    of the nonzero ones are those of drawing every pair.
    """
    weights = measure.weights
    k = weights.size
    if delta_rounds == 0 or k < 2:
        return {}
    order = np.argsort(-weights, kind="stable")
    ws = weights[order]
    lens = k - 1 - np.arange(k)
    base_key = derive_key(seed, epoch)
    edges = {}
    for i, j, h in _survivor_batches(order, lens, row_keys(base_key, k),
                                     _zero_thresholds(ws, delta_rounds)):
        # weights[i] * weights[j] is bit for bit the ws[a] * ws[b] of the pair
        counts = _binomial_counts(base_key, h, i, j, delta_rounds,
                                  weights[i] * weights[j])
        nz = np.flatnonzero(counts)
        edges.update(zip(zip(i[nz].tolist(), j[nz].tolist()), counts[nz].tolist()))
        del i, j, h, counts, nz  # freed before the next batch is joined
    return edges


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
    edges = {(int(iu[t]), int(ju[t])): int(counts[t]) for t in nz}
    return MultiGraph(n_rounds, k, edges)


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
    merged = dict(state.graph.edge_counts)
    for pair, count in _draw_increment(state.measure, delta_rounds, state.seed, epoch).items():
        merged[pair] = merged.get(pair, 0) + count
    graph = MultiGraph(n_rounds, state.graph.atom_count, merged)
    return replace(state, graph=graph, epoch=epoch)


def binarize(graph: MultiGraph) -> BinaryGraph:
    """Threshold counts at one: the pairs connected at least once."""
    return BinaryGraph(frozenset(graph.edge_counts), graph.atom_count)


def write_edges_csv(graph: MultiGraph | BinaryGraph, path) -> None:
    """Write a MultiGraph as ``i,j,count`` rows or a BinaryGraph as ``i,j``
    rows, sorted by pair."""
    if isinstance(graph, MultiGraph):
        write_csv(path, _MULTIGRAPH_HEADER,
                  ((*pair, count) for pair, count in sorted(graph.edge_counts.items())))
    else:
        write_csv(path, _BINARYGRAPH_HEADER, sorted(graph.adjacency))


def _int_field(path, row: int, name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"{path}: data row {row} has {name} {text!r}, "
                             f"expected an integer") from None


def read_edges_csv(path) -> MultiGraph | BinaryGraph:
    """The graph an edge-list CSV's header names: a MultiGraph for
    ``i,j,count``, a BinaryGraph for ``i,j``.  No pair may repeat.  The atom
    count is one past the largest id and the round count the largest count,
    the smallest totals consistent with the data."""
    first, rows = read_csv(path)
    header = tuple(first)
    if header not in (_MULTIGRAPH_HEADER, _BINARYGRAPH_HEADER):
        raise ParameterError(f"{path}: unrecognized edge CSV header {','.join(header)!r}")
    edges = {}
    for k, row in enumerate(rows, 1):
        i, j, *count = (_int_field(path, k, name, text) for name, text in zip(header, row))
        if (i, j) in edges:
            raise ParameterError(f"{path}: pair {(i, j)} appears on more than one row")
        edges[i, j] = count[0] if count else None
    atom_count = 1 + max((j for _, j in edges), default=-1)
    if header == _BINARYGRAPH_HEADER:
        return BinaryGraph(frozenset(edges), atom_count)
    return MultiGraph(max(edges.values(), default=0), atom_count, edges)
