"""crmgraph benchmark: end-to-end and per-layer figures for three workloads.

Usage, from the root of a source checkout (nothing needs installing; the
package is imported from ``src``)::

    python3 bench/run.py --workload desk --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload in turn
    python3 bench/run.py --self-test             # smoke sizes + negative cases

Each workload runs in a fresh child process.  With ``--trace 0`` the last
line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced one-worker replay.
A run record and the spans of the traced rounds are written under
``bench/.runs/<workload>/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("desk", "stress", "mass_batch")
# Metric names and units come from BENCHMARK.json, the benchmark's definition.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# Set-up is timed in this many fresh processes per run; the median is kept.
SETUP_SAMPLES = 7
# Every run must end within this many seconds.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("CRMGG_THREADS", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(args: list[str], deadline: float) -> str:
    """Run a child to completion in its own process group; return stdout."""
    cmd = [sys.executable, str(BENCH / "child.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {' '.join(args)} ran past the time limit")
    finally:
        # pool workers of a crashed child would outlive it; end the group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited with {proc.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one workload; return (result line, run record)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = BENCH / ".runs" / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace), "--run-dir", str(run_dir)]

    setups = [json.loads(_spawn(common + ["--setup-only"], deadline).splitlines()[-1])["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    _spawn(common, deadline)
    with open(run_dir / "child.json") as fh:
        child = json.load(fh)
    setups.append(child["setup_s"])

    if trace:
        if child["per_layer"] is None:
            raise BenchError("the traced run recorded no rounds")
        values = child["per_layer"]
    else:
        walls = child["walls"]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(child["cpus"]),
            "peak_rss_mb": child["peak_rss_mb"],
            "items_per_s": statistics.median(n / w for n, w in zip(child["items"], walls)),
        }
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if set(values) != expected:
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    line = {"correct": child["correct"], "attempted": child["attempted"],
            "failed": child["failed"], "metrics": metrics}

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 20,
        "python": platform.python_version(), "numpy": child["numpy"],
        "crmgraph": child["crmgraph"],
        "worker_counts": child["worker_counts"],
        "CRMGG_THREADS": {"caller": os.environ.get("CRMGG_THREADS"),
                          "pooled_rounds": None, "replays": "1"},
        "setup_s": setups, "round_walls_s": child["walls"], "round_cpu_s": child["cpus"],
        "items_per_round": child["items"], "item": child["item"],
        "traced_rounds": child["traced_rounds"], "per_layer": child["per_layer"],
        "problems": child["problems"], "known_faults": child["known_faults"],
        "result": line,
    }
    with open(run_dir / "record.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return line, record


def _report(name: str, line: dict, record: dict) -> None:
    print(f"== {name}: {line['attempted']} operations attempted, {line['failed']} failed, "
          f"correct={line['correct']}, {len(record['round_walls_s'])} rounds "
          f"of {record['item']}, {record['traced_rounds']} traced")
    for key, m in line["metrics"].items():
        print(f"   {key:26s} {m['value']:.6g} {m['unit']}")
    for problem in record["problems"]:
        print(f"   check failed: {problem}")
    for fault in record["known_faults"]:
        print(f"   known fault: {fault}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run every workload at smoke size and the negative cases")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "crmgraph" / "__init__.py").is_file():
        print(f"no crmgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                              env=_child_env(), cwd=ROOT).returncode

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            line, record = run_workload(name, args.seed, args.seconds, args.trace)
            _report(name, line, record)
            lines[name] = line
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
