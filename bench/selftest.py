"""Self-test of the benchmark: smoke-size runs and negative cases.

Run through ``python3 bench/run.py --self-test``.  Every workload runs one
round at its smoke size through the same code as a real run, traced, and
must come out correct.  Then each output check is shown to pass on clean
output and to fail on a corrupted copy of it.  Exit status 0 means every
case behaved as expected.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import child
import workloads
from crmgraph import experiment, measures
from tracing import Tracer

RESULTS: list[tuple[str, bool]] = []


def expect(name: str, problems: list[str], should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    RESULTS.append((name, ok))
    verdict = "fails" if problems else "passes"
    print(f"{'ok  ' if ok else 'BAD '} {name}: {verdict}"
          + (f" ({problems[0]})" if problems else ""))


def smoke_runs(tmp: Path) -> None:
    for name in workloads.WORKLOADS:
        run_dir = tmp / name
        run_dir.mkdir()
        t0 = time.perf_counter()
        code = child.main(["--workload", name, "--seed", "1", "--seconds", "0",
                           "--trace", "1", "--run-dir", str(run_dir),
                           "--spawned-at", repr(time.monotonic()), "--smoke"])
        res = json.loads((run_dir / "child.json").read_text())
        # only the known-fault operation of each round, if any, fails
        fault_ops = workloads.make(name, smoke=True).fault_ops
        ok = (code == 0 and res["correct"] and res["traced_rounds"] == 1
              and res["failed"] == len(res["walls"]) * fault_ops)
        RESULTS.append((f"smoke {name}", ok))
        print(f"{'ok  ' if ok else 'BAD '} smoke {name}: {res['attempted']} attempted, "
              f"{res['failed']} failed, correct={res['correct']}, "
              f"{time.perf_counter() - t0:.1f} s {res['problems'][:1]}")


def sweep_negatives(tmp: Path) -> None:
    wl = workloads.make("desk", smoke=True)
    cfg = replace(wl.round_input(2, 0), out_dir=str(tmp / "clean"))
    tracer = Tracer()
    os.environ["CRMGG_THREADS"] = "1"  # wrapped layer calls stay in-process
    with tracer.patched(wl.patch_targets()):
        result = experiment.run_sweep(cfg)
    del os.environ["CRMGG_THREADS"]
    rows = result.rows
    replica, n, last = rows[-1]

    expect("identities, clean", checks.snapshot_identities(rows), False)
    dropped = rows[:-1] + [(replica, n, replace(last, total_edges=last.total_edges - 1))]
    expect("identities, a dropped edge", checks.snapshot_identities(dropped), True)

    binary, stats = tracer.replicas[-1]["final"]
    expect("triangle oracle, clean", checks.triangle_oracle(binary, stats), False)
    pairs = sorted(binary.adjacency)
    short = replace(binary, adjacency=frozenset(pairs[1:]))
    expect("triangle oracle, a dropped edge", checks.triangle_oracle(short, stats), True)
    tri = dict(stats.triangle_hist)
    r = max(k for k, c in tri.items() if c)
    tri[r] -= 1
    tri[r + 1] = tri.get(r + 1, 0) + 1
    expect("triangle oracle, a triangle count off by one",
           checks.triangle_oracle(binary, replace(stats, triangle_hist=tri)), True)

    weights, snaps = tracer.replicas[-1]["weights"], tracer.replicas[-1]["snapshots"]
    expect("edge-count law, clean", checks.edge_count_law(weights, snaps), False)
    far = snaps[:-1] + [replace(snaps[-1], total_edges=3 * snaps[-1].total_edges)]
    expect("edge-count law, three times the edges", checks.edge_count_law(weights, far), True)

    expect("coupled growth, clean", checks.coupled_growth(rows), False)
    first = [row for row in rows if row[0] == replica]
    shrunk = rows[:-1] + [(replica, n, replace(last, total_edges=first[0][2].total_edges - 1))]
    expect("coupled growth, E falls", checks.coupled_growth(shrunk), True)

    expect("skip bound, clean", checks.skip_bound(result.max_skip_bound), False)
    expect("skip bound, 2e-3", checks.skip_bound(2e-3), True)

    lq, uq = cfg.fit_lower_q, cfg.fit_upper_q
    expect("fit recomputation, clean", checks.fit_recomputation(cfg.out_dir, lq, uq), False)
    bad = tmp / "bad-fit"
    shutil.copytree(cfg.out_dir, bad)
    fits = json.loads((bad / "fits.json").read_text())
    fits[0]["slope"] += 1e-6
    (bad / "fits.json").write_text(json.dumps(fits))
    expect("fit recomputation, slope off by 1e-6", checks.fit_recomputation(bad, lq, uq), True)

    twin = tmp / "twin"
    shutil.copytree(cfg.out_dir, twin)
    expect("worker independence, clean", checks.worker_independence(cfg.out_dir, twin), False)
    hist = (twin / "hist.csv").read_text().splitlines(keepends=True)
    (twin / "hist.csv").write_text("".join(hist[:-1]))
    expect("worker independence, a hist.csv row lost",
           checks.worker_independence(cfg.out_dir, twin), True)


def mass_negatives() -> None:
    def totals(gamma):
        params = measures.BetaProcessParams(**dict(workloads.MASS_PARAMS, mass=gamma))
        return [measures.sample_three_param_bp(params, measures.StickBreakingConfig(
            rounds=workloads.MASS_ROUNDS, weight_floor=0.0, seed=s)).total_mass()
            for s in range(10)]
    p = workloads.MASS_PARAMS
    args = (p["mass"], p["concentration"], p["discount"])
    expect("mass moment, clean", checks.mass_moment(totals(p["mass"]), *args), False)
    expect("mass moment, a batch drawn at gamma 6", checks.mass_moment(totals(6.0), *args),
           True)

    full = SimpleNamespace(weights=np.array([0.5, 1e-12, 0.2, 3e-10]),
                           labels=np.array([0.1, 0.2, 0.3, 0.4]))
    kept = SimpleNamespace(weights=np.array([0.5, 0.2, 3e-10]),
                           labels=np.array([0.1, 0.3, 0.4]))
    expect("floor filter, a consistent pair", checks.floor_filter(full, kept, 1e-10), False)
    lost = SimpleNamespace(weights=kept.weights[:2], labels=kept.labels[:2])
    expect("floor filter, an atom lost", checks.floor_filter(full, lost, 1e-10), True)


def main() -> int:
    tmp = Path(__file__).resolve().parent / ".runs" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    smoke_runs(tmp)
    sweep_negatives(tmp)
    shutil.rmtree(tmp)
    mass_negatives()
    bad = [name for name, ok in RESULTS if not ok]
    print(f"self-test: {len(RESULTS) - len(bad)} of {len(RESULTS)} cases as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
