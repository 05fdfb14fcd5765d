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
does not depend on the filter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, islice

import numpy as np

from .fileio import read_csv, write_csv
from .measures import AtomicMeasure, ParameterError
from .rng import derive_key, pair_hashes, pair_uniforms, philox, row_keys

__all__ = [
    "MultiGraph",
    "BinaryGraph",
    "GrowthState",
    "generate",
    "generate_exact_rounds",
    "start_growth",
    "extend",
    "binarize",
    "write_multigraph_csv",
    "read_multigraph_csv",
    "write_binarygraph_csv",
    "read_binarygraph_csv",
]

# Pairs whose expected count n * w_i * w_j falls below this are not drawn at
# all; the union bound on edges lost this way is tracked per graph.
DEFAULT_PAIR_SKIP = 1e-12

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
    positive count; absent pairs have count zero.  ``skipped_pairs`` and
    ``skipped_edge_bound`` report the pruning done while sampling: the bound
    is the sum of n * w_i * w_j over all pair draws that were skipped, an
    upper bound on the expected number of missed edges.
    """

    n_rounds: int
    atom_count: int
    edge_counts: dict[tuple[int, int], int]
    skipped_pairs: int = 0
    skipped_edge_bound: float = 0.0

    def __post_init__(self):
        if self.n_rounds < 0:
            raise ParameterError(f"n_rounds must be >= 0, got {self.n_rounds}")
        _check_edges(self.edge_counts, self.atom_count, self.edge_counts.values(),
                     self.n_rounds)

    def total_edges(self) -> int:
        """Number of distinct connected pairs."""
        return len(self.edge_counts)


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


def _check_draw_args(n_rounds: int, seed: int, pair_skip: float = 0.0) -> int:
    """``n_rounds`` as an int, once it, the seed and pair_skip are checked."""
    if int(n_rounds) != n_rounds or n_rounds < 0:
        raise ParameterError(f"n_rounds must be a nonnegative integer, got {n_rounds}")
    if not 0 <= seed < 2**64:  # derive_key would alias it to another seed
        raise ParameterError(f"seed must be in [0, 2**64), got {seed}")
    if not 0.0 <= pair_skip < np.inf:
        raise ParameterError(f"pair_skip must be finite and >= 0, got {pair_skip}")
    return int(n_rounds)


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
    pair_skip: float = DEFAULT_PAIR_SKIP

    @property
    def n_rounds(self) -> int:
        return self.graph.n_rounds


def _select_pairs(weights: np.ndarray, n_rounds: int, pair_skip: float):
    """Which pairs are worth drawing, in descending-weight order.

    Returns the descending-weight ``order`` of the atoms, their sorted
    weights ``ws``, the row lengths ``lens`` (row a pairs position a with
    positions a+1 .. a+lens[a]), and the (skipped pair count, skipped
    expected-edge mass) accounting.  Every array is per atom; the pairs
    themselves are enumerated block by block by the caller.
    """
    k = weights.size
    order = np.argsort(-weights, kind="stable")
    ws = weights[order]
    total_pairs = k * (k - 1) // 2

    # first sorted position whose weight drops under pair_skip/(n * w_a), or k
    # at pair_skip 0; everything beyond it pairs with a below the threshold
    thresholds = pair_skip / (n_rounds * ws)
    cut = np.searchsorted(-ws, -thresholds, side="right")

    lens = np.clip(cut - np.arange(k) - 1, 0, None)
    skipped_bound = 0.0
    skipped = total_pairs - int(lens.sum())
    if skipped:
        suffix = np.concatenate([np.cumsum(ws[::-1])[::-1], [0.0]])
        first_skipped = np.maximum(cut, np.arange(k) + 1)
        skipped_bound = float(n_rounds * (ws * suffix[first_skipped]).sum())
    return order, ws, lens, skipped, skipped_bound


def _row_blocks(lens: np.ndarray, block: int | None = None):
    """Consecutive row ranges [start, stop) of at most ``block`` pairs.

    ``block`` defaults to ``_PAIR_BLOCK``.  A row longer than the block size
    forms a block on its own.
    """
    block = _PAIR_BLOCK if block is None else block
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
    hash scale of :func:`~crmgraph.rng.pair_uniforms`.  It is zero wherever
    the level is below 2**-53, which includes every row with a Philox pair.
    """
    heaviest = np.append(ws[:-1] * ws[1:], 0.0)  # the last row has no pairs
    q0 = np.exp(n_rounds * np.log1p(-heaviest))
    level = np.floor(q0 * (1.0 - _ZERO_SLACK) * 2.0**53).astype(np.uint64)
    return level << np.uint64(11)


def _binomial_counts(base_key: int, atom_keys: np.ndarray, i: np.ndarray,
                     j: np.ndarray, n_rounds: int, probs: np.ndarray) -> np.ndarray:
    """Exact Binomial(n_rounds, p) count per pair from its keyed stream.

    Counts come from inverse-CDF inversion of one keyed uniform per pair,
    finished from the per-atom halves of the keys in ``atom_keys``; a pair
    whose zero-count probability underflows instead draws from its own keyed
    Philox stream.  Either way the value depends only on
    (base_key, i, j, n_rounds, p).
    """
    counts = np.zeros(probs.size, dtype=np.int64)
    if probs.size == 0 or n_rounds == 0:
        return counts

    log_q0 = n_rounds * np.log1p(-probs)
    big = log_q0 < _LOG_PMF0_MIN
    u = pair_uniforms(atom_keys[i], j)

    alive = np.flatnonzero((u >= np.exp(log_q0)) & ~big)
    if alive.size:
        p = probs[alive]
        ratio = p / (1.0 - p)
        pmf = np.exp(log_q0[alive])
        cdf = pmf.copy()
        k = np.zeros(alive.size)
        ua = u[alive]
        while alive.size:
            pmf *= (n_rounds - k) / (k + 1.0) * ratio
            k += 1.0
            cdf += pmf
            done = (ua < cdf) | (k >= n_rounds)
            counts[alive[done]] = k[done].astype(np.int64)
            keep = ~done
            alive, pmf, cdf, k, ua, ratio = (
                alive[keep], pmf[keep], cdf[keep], k[keep], ua[keep], ratio[keep])

    for idx in np.flatnonzero(big):
        rng = philox(base_key, int(i[idx]), int(j[idx]))
        counts[idx] = rng.binomial(n_rounds, probs[idx])
    return counts


def _survivor_batches(order: np.ndarray, lens: np.ndarray, atom_keys: np.ndarray,
                      zero_below: np.ndarray):
    """The pairs whose count may be nonzero, as original indices (i, j),
    i < j, in row order, in batches of at most ``_PAIR_BLOCK`` pairs (more
    only when one hash block alone keeps more).

    A pair is kept when its hash is at or above its row's ``zero_below``
    threshold.  Rows are hashed ``_HASH_BLOCK`` pairs at a time (a longer row
    goes alone) in work buffers shared by every block.
    """
    row_len = lens.tolist()
    ends = np.concatenate([[0], np.cumsum(lens)])
    size = min(int(ends[-1]), max(_HASH_BLOCK, max(row_len)))
    hashes = np.empty(size, dtype=np.uint64)
    lo_buf, hi_buf = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    parts, held = [], 0
    for s, e in _row_blocks(lens, _HASH_BLOCK):
        n = int(ends[e] - ends[s])
        # row a pairs atom order[a] with the atoms order[a+1 : a+1+lens[a]]
        hi = np.concatenate([order[a + 1:a + 1 + row_len[a]] for a in range(s, e)],
                            out=hi_buf[:n])
        lo = np.repeat(order[s:e], lens[s:e])
        i = np.minimum(lo, hi, out=lo_buf[:n])
        j = np.maximum(lo, hi, out=hi)
        h = pair_hashes(atom_keys.take(i, out=hashes[:n], mode="clip"),
                        j.view(np.uint64), out=hashes[:n])
        keep = np.flatnonzero(h >= np.repeat(zero_below[s:e], lens[s:e]))
        if parts and held + keep.size > _PAIR_BLOCK:
            yield _drain(parts)
            held = 0
        parts.append((i[keep], j[keep]))
        held += keep.size
    if parts:
        yield _drain(parts)


def _drain(parts: list):
    """The (i, j) pieces in ``parts`` joined, emptying the list so that the
    pieces are freed before the joined arrays are used."""
    joined = tuple(np.concatenate(piece) for piece in zip(*parts))
    parts.clear()
    return joined


def _draw_increment(measure: AtomicMeasure, delta_rounds: int, seed: int,
                    epoch: int, pair_skip: float):
    """One epoch of pair draws: {pair: positive count}, skip accounting.

    Each kept pair is hashed and compared with its row's
    :func:`_zero_thresholds` entry.  A hash below it puts the pair's keyed
    uniform below the zero-count level of the row's heaviest pair, which is
    at most the pair's own level, so the pair's count is zero for certain.
    Only the other pairs reach :func:`_binomial_counts`, whose counts depend
    on nothing but the pair, so the counts and the order of the nonzero ones
    are those of drawing every pair.
    """
    weights = measure.weights
    if delta_rounds == 0 or weights.size < 2:
        return {}, 0, 0.0
    order, ws, lens, skipped, bound = _select_pairs(weights, delta_rounds, pair_skip)
    base_key = derive_key(seed, epoch)
    atom_keys = row_keys(base_key, weights.size)
    edges = {}
    for i, j in _survivor_batches(order, lens, atom_keys,
                                  _zero_thresholds(ws, delta_rounds)):
        # weights[i] * weights[j] is bit for bit the ws[a] * ws[b] of the pair
        counts = _binomial_counts(base_key, atom_keys, i, j, delta_rounds,
                                  weights[i] * weights[j])
        nz = np.flatnonzero(counts)
        edges.update(zip(zip(i[nz].tolist(), j[nz].tolist()), counts[nz].tolist()))
        del i, j, counts, nz  # freed before the next batch is joined
    return edges, skipped, bound


def generate(measure: AtomicMeasure, n_rounds: int, seed: int, *,
             pair_skip: float = DEFAULT_PAIR_SKIP) -> MultiGraph:
    """Sample the multigraph after ``n_rounds`` rounds of edge draws.

    Parameters
    ----------
    measure : AtomicMeasure
        Atom weights; graph vertices are the atom indices.
    n_rounds : int
        Number of Bernoulli rounds collapsed into one binomial per pair.
    seed : int
        Stream seed in [0, 2**64); (measure, n_rounds, seed) fixes the graph.
    pair_skip : float
        Pairs with ``n_rounds * w_i * w_j`` below this are never drawn; the
        resulting expected-missed-edge bound is recorded on the graph.  Zero
        draws every pair; a negative or non-finite value is rejected.
    """
    n_rounds = _check_draw_args(n_rounds, seed, pair_skip)
    edges, skipped, bound = _draw_increment(measure, n_rounds, seed, 0, pair_skip)
    return MultiGraph(n_rounds, len(measure), edges,
                      skipped_pairs=skipped, skipped_edge_bound=bound)


def generate_exact_rounds(measure: AtomicMeasure, n_rounds: int, seed: int) -> MultiGraph:
    """Literal round-by-round Bernoulli reference sampler.

    Same distribution as :func:`generate` with no pair skipping, in
    O(n_rounds * atoms^2) time.  Refuses inputs beyond the small scales it
    exists for; it is the honesty oracle for the binomial collapse, not a
    production path.
    """
    n_rounds = _check_draw_args(n_rounds, seed)
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


def start_growth(measure: AtomicMeasure, seed: int, *,
                 pair_skip: float = DEFAULT_PAIR_SKIP) -> GrowthState:
    """A fresh trajectory at zero rounds for the given measure and seed."""
    _check_draw_args(0, seed, pair_skip)
    empty = MultiGraph(0, len(measure), {})
    return GrowthState(measure, seed, empty, epoch=0, pair_skip=pair_skip)


def extend(state: GrowthState, delta_rounds: int) -> GrowthState:
    """Advance a trajectory by ``delta_rounds`` additional rounds.

    The increment is one Binomial(delta_rounds, w_i w_j) draw per pair from
    the next epoch's streams, added onto the existing counts, so the result
    has the same marginal law as a one-shot generate at the combined round
    count and every pair count is nondecreasing along the trajectory.
    """
    if int(delta_rounds) != delta_rounds or delta_rounds < 1:
        raise ParameterError(f"delta_rounds must be a positive integer, got {delta_rounds}")
    epoch = state.epoch + 1
    new_edges, skipped, bound = _draw_increment(
        state.measure, int(delta_rounds), state.seed, epoch, state.pair_skip)
    merged = dict(state.graph.edge_counts)
    for pair, count in new_edges.items():
        merged[pair] = merged.get(pair, 0) + count
    graph = MultiGraph(
        state.graph.n_rounds + int(delta_rounds), state.graph.atom_count, merged,
        skipped_pairs=state.graph.skipped_pairs + skipped,
        skipped_edge_bound=state.graph.skipped_edge_bound + bound)
    return replace(state, graph=graph, epoch=epoch)


def binarize(graph: MultiGraph) -> BinaryGraph:
    """Threshold counts at one: the pairs connected at least once."""
    return BinaryGraph(frozenset(graph.edge_counts), graph.atom_count)


def write_multigraph_csv(graph: MultiGraph, path) -> None:
    """Write ``i,j,count`` rows sorted by pair."""
    write_csv(path, _MULTIGRAPH_HEADER,
              ((i, j, count) for (i, j), count in sorted(graph.edge_counts.items())))


def _read_edges(path, header, atom_count):
    """An edge-list CSV's rows by pair, where no pair may repeat, and the atom count."""
    edges = {}
    for i, j, *rest in read_csv(path, header):
        pair = (int(i), int(j))
        if pair in edges:
            raise ParameterError(f"{path}: pair {pair} appears on more than one row")
        edges[pair] = rest
    if atom_count is None:
        atom_count = 1 + max((j for _, j in edges), default=-1)
    return edges, atom_count


def read_multigraph_csv(path, n_rounds: int | None = None,
                        atom_count: int | None = None) -> MultiGraph:
    """Read an ``i,j,count`` file.

    When ``n_rounds`` is unknown the largest count observed is used, the
    smallest round total consistent with the data.
    """
    rows, atom_count = _read_edges(path, _MULTIGRAPH_HEADER, atom_count)
    edges = {pair: int(count) for pair, (count,) in rows.items()}
    if n_rounds is None:
        n_rounds = max(edges.values(), default=0)
    return MultiGraph(n_rounds, atom_count, edges)


def write_binarygraph_csv(graph: BinaryGraph, path) -> None:
    """Write ``i,j`` rows sorted by pair."""
    write_csv(path, _BINARYGRAPH_HEADER, sorted(graph.adjacency))


def read_binarygraph_csv(path, atom_count: int | None = None) -> BinaryGraph:
    """Read an ``i,j`` file written by :func:`write_binarygraph_csv`."""
    pairs, atom_count = _read_edges(path, _BINARYGRAPH_HEADER, atom_count)
    return BinaryGraph(frozenset(pairs), atom_count)
