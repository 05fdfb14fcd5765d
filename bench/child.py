"""One workload run in a fresh process; started by run.py, not by hand.

The process times whole rounds of the workload for the given seconds with
tracing off, records its CPU time and peak RSS, and then, outside the timed
region, replays rounds with one worker (traced, then untraced) and checks
every output.  It writes its figures to ``<run-dir>/child.json`` and the
spans of the traced rounds to ``<run-dir>/trace.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


MIN_ROUNDS = 2


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    # set-up: import the package and build the workload's inputs
    import numpy
    import crmgraph
    import workloads
    wl = workloads.make(args.workload, smoke=args.smoke)
    inputs = [wl.round_input(args.seed, 0)]
    setup_s = time.monotonic() - args.spawned_at
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(crmgraph.__file__).resolve().is_relative_to(src):
        print(f"crmgraph imported from {crmgraph.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from tracing import Tracer, no_span, per_layer_metrics, round_summary

    run_dir = Path(args.run_dir)
    os.environ.pop("CRMGG_THREADS", None)  # the default worker count
    pooled_workers = wl.worker_count()

    # whole rounds until the timed rounds add up to the run length, and at
    # least MIN_ROUNDS, so that one slow first round cannot end a run alone
    # and bias its median; each round is checked at once, outside its
    # timing, and only what the replays and the run-level checks need is
    # kept, so memory does not grow with the number of rounds
    outs, walls, cpus, items, problems, faults = [], [], [], [], [], []
    while len(walls) < MIN_ROUNDS or sum(walls) < args.seconds:
        r = len(outs)
        if r == len(inputs):
            inputs.append(wl.round_input(args.seed, r))
        cpu0 = _cpu_s()
        out, wall = _timed(lambda: wl.run(inputs[r], run_dir / f"round{r}" / "pooled", no_span))
        cpus.append(_cpu_s() - cpu0)
        walls.append(wall)
        items.append(wl.items(out))
        problems.append(wl.round_problems(out))
        faults.append(wl.round_faults(out))
        outs.append(wl.slim(out))
    peak_rss_mb = _peak_rss_mb()

    # replay with one worker, traced for the per-layer figures and the
    # oracle checks, untraced for the tracing overhead
    trace_rounds, layer_rows = [], []
    if args.trace or wl.replay_in_untraced_runs:
        os.environ["CRMGG_THREADS"] = "1"
        budget = args.seconds if args.trace else 0.0
        began = time.perf_counter()
        for r in range(len(outs)):
            # traced first: the RSS high-water mark of this process has not
            # yet been raised by a one-worker replay of the round
            tracer = Tracer()
            with tracer.patched(wl.patch_targets()):
                with tracer.span("round"):
                    traced = wl.run(inputs[r], run_dir / f"round{r}" / "traced", tracer.span)
            serial, serial_wall = _timed(
                lambda: wl.run(inputs[r], run_dir / f"round{r}" / "serial", no_span))
            problems[r] += wl.replay_problems(outs[r], serial, traced, tracer)
            summary = round_summary(tracer.spans, 0)
            if abs(summary["self_sum_s"] - summary["wall_s"]) > 1e-6:
                problems[r].append(f"layer self times sum to {summary['self_sum_s']}, "
                                   f"traced wall is {summary['wall_s']}")
            metrics = per_layer_metrics(summary, walls[r], serial_wall)
            layer_rows.append(metrics)
            trace_rounds.append({"round": r, "pooled_wall_s": walls[r],
                                 "serial_wall_s": serial_wall, "summary": summary,
                                 "per_layer": metrics, "unwrapped": tracer.missing,
                                 "spans": tracer.spans})
            if time.perf_counter() - began >= budget:
                break
        os.environ.pop("CRMGG_THREADS")

    run_problems = wl.run_problems(outs)

    failed = 0
    for r in range(len(outs)):
        if problems[r] or run_problems:
            failed += wl.checked_ops
        if faults[r]:
            failed += wl.fault_ops
    all_problems = run_problems + [f"round {r}: {p}" for r in range(len(outs))
                                   for p in problems[r]]
    fault_notes = sorted({p for f in faults for p in f})

    per_layer = None
    if layer_rows:
        # times and rates are per-round medians; a high-water mark rises
        # once per process, so its rises are summed over the traced rounds
        per_layer = {k: (sum if k.endswith("rss_rise_mb") else statistics.median)(
                         [row[k] for row in layer_rows]) for k in layer_rows[0]}
    result = {
        "setup_s": setup_s,
        "walls": walls,
        "cpus": cpus,
        "items": items,
        "item": wl.item,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(outs) * (wl.checked_ops + wl.fault_ops),
        "failed": failed,
        "correct": not all_problems,
        "problems": all_problems[:20],
        "known_faults": fault_notes,
        "per_layer": per_layer,
        "traced_rounds": len(layer_rows),
        "worker_counts": {"pooled": pooled_workers, "replay": 1},
        "numpy": numpy.__version__,
        "crmgraph": getattr(crmgraph, "__version__", None),
    }
    with open(run_dir / "trace.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "rounds": trace_rounds},
                  fh, indent=1)
    with open(run_dir / "child.json", "w") as fh:
        json.dump(result, fh, indent=1)
    for r in range(len(outs)):
        shutil.rmtree(run_dir / f"round{r}", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
