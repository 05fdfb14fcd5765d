"""In-memory span recorder for the traced benchmark run.

A span has a name, start, end, parent and counters.  Layer calls are
recorded by swapping module attributes for thin wrappers while a traced
round runs; nothing inside the package is changed.  The layer of a span is
the package module named before the dot (``graphs.extend`` is in
``graphs``); spans the benchmark opens for itself (``round``, ``seed``,
``count``) are in the ``bench`` layer, so that the self times of
all layers add up to the traced wall time.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager, nullcontext

BENCH_SPANS = ("round", "seed", "count")


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def no_span(name):
    """Stand-in for :meth:`Tracer.span` in untraced runs."""
    return nullcontext({})


def _no_counters(args, kwargs, out):
    return {}


class Tracer:
    """Records spans and the graph objects the output checks need."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.replicas: list[dict] = []  # per sampled measure: weights, snapshots
        self._last_binary = None
        self.missing: list[str] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counters": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rss0 = _max_rss_mb()
        try:
            yield rec["counters"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if name not in BENCH_SPANS:
                rec["counters"]["rss_rise_mb"] = _max_rss_mb() - rss0

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            with self.span(name) as counters:
                out = fn(*args, **kwargs)
            if count is not _no_counters:
                # counters are read after the layer span closes, in a span of
                # their own, so their cost lands in the bench layer
                with self.span("count"):
                    counters.update(count(args, kwargs, out))
            return out
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, modules):
        """Wrap the layer entry points that ``modules`` look up by name.

        ``modules`` maps a module object to the names to wrap in it.  A name
        the module does not have is listed in ``self.missing`` and skipped.
        """
        saved = []
        try:
            for module, names in modules.items():
                for attr in names:
                    fn = getattr(module, attr, None)
                    if fn is None:
                        self.missing.append(f"{module.__name__}.{attr}")
                        continue
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    count = getattr(self, "_count_" + attr.lstrip("_"), _no_counters)
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(f"{layer}.{attr}", fn, count))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # -- counters read from the returned objects ----------------------------

    def _count_sample_three_param_bp(self, args, kwargs, measure):
        self.replicas.append({"weights": measure.weights, "snapshots": [],
                              "final": None})
        return {"atoms": len(measure)}

    def _count_generate(self, args, kwargs, graph):
        k = graph.atom_count
        return {"pair_draws": k * (k - 1) // 2 - graph.skipped_pairs,
                "skipped_pairs": graph.skipped_pairs,
                "skip_bound": graph.skipped_edge_bound,
                "edges": graph.total_edges()}

    def _count_extend(self, args, kwargs, state):
        old, new = args[0].graph, state.graph
        k = new.atom_count
        skipped = new.skipped_pairs - old.skipped_pairs
        grown = sum(1 for pair, c in new.edge_counts.items()
                    if c > old.edge_counts.get(pair, 0))
        return {"pair_draws": k * (k - 1) // 2 - skipped,
                "skipped_pairs": skipped,
                "skip_bound": new.skipped_edge_bound,
                "edges": grown}

    def _count_binarize(self, args, kwargs, binary):
        self._last_binary = binary
        return {"edges": len(binary.adjacency)}

    def _count_summarize(self, args, kwargs, stats):
        tri = sum(r * c for r, c in stats.triangle_hist.items()) // 3
        if self.replicas:
            rep = self.replicas[-1]
            rep["snapshots"].append(stats)
            rep["final"] = (self._last_binary, stats)
        return {"V": stats.effective_vertices, "E": stats.total_edges,
                "triangles": tri}


def layer_of(name: str) -> str:
    return "bench" if name in BENCH_SPANS else name.split(".", 1)[0]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    The traced run is single-threaded, so children never overlap and their
    durations can simply be summed.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def subtree(spans: list[dict], root: int) -> list[dict]:
    """The spans under ``root``, root included (ids are in start order)."""
    inside = {root}
    out = [spans[root]]
    for s in spans[root + 1:]:
        if s["parent"] in inside:
            inside.add(s["id"])
            out.append(s)
    return out


def round_summary(spans: list[dict], root: int) -> dict:
    """Self time and summed counters per span name and per layer, for the
    subtree of one traced round."""
    selfs = self_times(spans)
    calls: dict[str, dict] = {}
    for s in subtree(spans, root):
        entry = calls.setdefault(s["name"], {"self_s": 0.0, "calls": 0})
        entry["self_s"] += selfs[s["id"]]
        entry["calls"] += 1
        for key, value in s["counters"].items():
            if key == "skip_bound":
                entry[key] = max(entry.get(key, 0.0), value)
            else:
                entry[key] = entry.get(key, 0) + value
    layers: dict[str, float] = {}
    for name, entry in calls.items():
        layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + entry["self_s"]
    return {"wall_s": spans[root]["end"] - spans[root]["start"],
            "self_sum_s": sum(layers.values()),
            "layer_self_s": layers, "calls": calls}


_DRAWS = ("graphs.generate", "graphs.extend", "graphs.start_growth")
_GRAPHS = _DRAWS + ("graphs.binarize",)


def per_layer_metrics(summary: dict, pooled_wall: float, serial_wall: float) -> dict:
    """The benchmark's per-layer metrics for one traced round.

    ``pooled_wall`` is the untraced wall time of the same round with the
    default worker count, ``serial_wall`` the untraced one-worker wall time.
    """
    calls, layers = summary["calls"], summary["layer_self_s"]
    traced_wall = summary["wall_s"]

    def total(names, key="self_s"):
        return sum(calls.get(name, {}).get(key, 0) for name in names)

    def ratio(a, b):
        return a / b if b else 0.0

    sample_s = total(["measures.sample_three_param_bp"])
    draw_s = total(_DRAWS)
    pair_draws = total(_DRAWS, "pair_draws")
    summarize_s = total(["stats.summarize"])
    return {
        "measures.sample_s": sample_s,
        "measures.atoms_per_s": ratio(total(["measures.sample_three_param_bp"], "atoms"),
                                      sample_s),
        "graphs.draw_s": draw_s,
        "graphs.pair_draws_per_s": ratio(pair_draws, draw_s),
        "graphs.pair_draws": pair_draws,
        "graphs.edge_yield": ratio(total(_DRAWS, "edges"), pair_draws),
        "graphs.rss_rise_mb": total(_GRAPHS, "rss_rise_mb"),
        "graphs.binarize_s": total(["graphs.binarize"]),
        "stats.summarize_s": summarize_s,
        "stats.edges_per_s": ratio(total(["stats.summarize"], "E"), summarize_s),
        "stats.rss_rise_mb": total(["stats.summarize"], "rss_rise_mb"),
        "powerlaw.classify_s": layers.get("powerlaw", 0.0),
        "experiment.self_s": layers.get("experiment", 0.0),
        "experiment.pool_speedup": ratio(traced_wall, pooled_wall),
        "trace.overhead_s": traced_wall - serial_wall,
    }
