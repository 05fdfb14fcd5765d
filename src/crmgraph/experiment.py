"""Config-driven sweep experiments: measure, graph growth, stats, fits.

One run samples a measure per replica, grows (or independently regenerates)
the graph across a grid of round counts, summarizes every snapshot, fits the
power-law relationships over the pooled snapshots, and persists everything
as CSV plus a JSON fit mirror.  Every output byte is determined by the
configuration, including its master seed; replicas may run in parallel and
the worker count never affects results.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .fileio import open_text_sink, write_csv
from .graphs import binarize, extend, generate, start_growth
from .measures import (BetaProcessParams, ParameterError, StickBreakingConfig,
                       check_integer, check_real, sample_three_param_bp)
from .powerlaw import PowerLawReport, classify, write_fits_csv, write_fits_json
from .rng import derive_key
from .stats import GraphStats, _hist_rows, summarize

__all__ = [
    "ExperimentConfig",
    "SweepResult",
    "ExperimentError",
    "run_sweep",
    "load_config",
    "save_config",
    "worker_count",
    "write_scatter_svg",
    "DESK_PROFILE",
    "PAPER_PROFILE",
    "PROFILES",
]

THREADS_ENV = "CRMGG_THREADS"

GROWTH_MODES = ("coupled", "independent")

# Most snapshots (grid points x replicas) a sweep may take, 1,960 for the paper
# profile: every worker builds the whole grid and the pool holds a future per
# replica, so a larger sweep fails at construction, not out of memory.
_MAX_SNAPSHOTS = 10**6


class ExperimentError(RuntimeError):
    """A sweep could not complete; the message names the failed replicas."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of a sweep run (also the config.json schema)."""

    gamma: float = 3.0
    theta: float = 1.0
    alpha: float = 0.1
    rounds: int = 1000  # stick-breaking rounds per measure, in [1, 2**63)
    weight_floor: float = 1e-10
    n_start: int = 50  # grid of round counts N, from n_start in [0, 2**63)
    n_stop: int = 2000  # ... to n_stop in [n_start, 2**63), inclusive
    n_step: int = 50  # ... in steps of n_step in [1, 2**63)
    replicas: int = 10  # measures drawn, in [1, 2**63)
    growth_mode: str = "coupled"
    seed: int = 0  # master seed, in [0, 2**64)
    out_dir: str = "sweep-out"  # a str or an os.PathLike, stored as a str
    fit_lower_q: float = 0.5
    fit_upper_q: float = 1.0

    def __post_init__(self):
        # each field's type is checked here, and the process and stick ranges by
        # params() and sticks() below; a bad n_start fails before it bounds n_stop
        for name in ("gamma", "theta", "alpha", "weight_floor", "fit_lower_q", "fit_upper_q"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        for name, lo, hi in (("n_start", 0, 2**63), ("n_stop", self.n_start, 2**63),
                             ("n_step", 1, 2**63), ("replicas", 1, 2**63), ("seed", 0, 2**64)):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), lo, hi))
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise ParameterError(f"out_dir must be a str or os.PathLike, got {self.out_dir!r}")
        object.__setattr__(self, "out_dir", os.fspath(self.out_dir))
        points = (self.n_stop - self.n_start) // self.n_step + 1  # len(range()) overflows
        if points * self.replicas > _MAX_SNAPSHOTS:
            raise ParameterError(f"{points} grid points x {self.replicas} replicas exceed "
                                 f"the {_MAX_SNAPSHOTS} snapshots a sweep may take")
        if self.growth_mode not in GROWTH_MODES:
            raise ParameterError(f"growth_mode must be one of {GROWTH_MODES}")
        if not 0 <= self.fit_lower_q < self.fit_upper_q <= 1:
            raise ParameterError(
                f"need 0 <= fit_lower_q < fit_upper_q <= 1, got fit_lower_q "
                f"{self.fit_lower_q}, fit_upper_q {self.fit_upper_q}")
        self.params()  # validates gamma/theta/alpha
        object.__setattr__(self, "rounds", self.sticks(0).rounds)  # checks rounds/weight_floor

    def params(self) -> BetaProcessParams:
        return BetaProcessParams(concentration=self.theta, discount=self.alpha,
                                 mass=self.gamma)

    def sticks(self, seed: int) -> StickBreakingConfig:
        return StickBreakingConfig(rounds=self.rounds, weight_floor=self.weight_floor,
                                   seed=seed)

    def n_grid(self) -> list[int]:
        return list(range(self.n_start, self.n_stop + 1, self.n_step))


# Desk-scale default profile: runs in minutes on a laptop.
DESK_PROFILE = ExperimentConfig()
# The paper's N step of 10.  It keeps the desk's 1000 stick-breaking rounds:
# at the 1e-10 weight floor, later rounds yield no atom, and 5000 rounds gave
# the same measure, weights and labels, on all 80 replicas of master seeds 0-7.
PAPER_PROFILE = replace(DESK_PROFILE, n_step=10)
PROFILES = {"desk": DESK_PROFILE, "paper": PAPER_PROFILE}


@dataclass(frozen=True)
class SweepResult:
    """Everything a sweep produced, before and after serialization."""

    config: ExperimentConfig
    rows: list[tuple[int, int, GraphStats]]  # (replica, n_rounds, stats)
    report: PowerLawReport
    elapsed_seconds: float

    @property
    def max_skip_bound(self) -> float:
        """Always 0.0: no pair is skipped, so no edge is missed.  Kept only
        while the benchmark reads it; it goes once the benchmark stops."""
        return 0.0


def worker_count(replicas: int) -> int:
    """Workers to use: the CRMGG_THREADS cap, else min(cpus, replicas)."""
    env = os.environ.get(THREADS_ENV)
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise ParameterError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
        return min(check_integer(THREADS_ENV, cap, 1, 2**63), replicas)
    return min(os.cpu_count() or 1, replicas)


def _replica_rows(cfg: ExperimentConfig, replica: int):
    """All snapshots of one replica."""
    replica_seed = derive_key(cfg.seed, replica)
    measure = sample_three_param_bp(cfg.params(), cfg.sticks(replica_seed))
    rows = []
    if cfg.growth_mode == "coupled":
        state = start_growth(measure, derive_key(replica_seed, 1))
        prev = 0
        for n in cfg.n_grid():
            if n > prev:
                state = extend(state, n - prev)
                prev = n
            rows.append((replica, n, summarize(binarize(state.graph), n)))
    else:
        for n in cfg.n_grid():
            graph = generate(measure, n, derive_key(replica_seed, 2, n))
            rows.append((replica, n, summarize(binarize(graph), n)))
    return rows


def _gather_replicas(cfg: ExperimentConfig):
    """Run all replicas, containing per-replica failures until the end."""
    workers = worker_count(cfg.replicas)
    results: dict[int, list] = {}
    failures: list[tuple[int, BaseException]] = []
    if workers <= 1:
        for replica in range(cfg.replicas):
            try:
                results[replica] = _replica_rows(cfg, replica)
            except Exception as exc:  # noqa: BLE001 - reported with the index
                failures.append((replica, exc))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {replica: pool.submit(_replica_rows, cfg, replica)
                       for replica in range(cfg.replicas)}
            for replica in range(cfg.replicas):
                exc = futures[replica].exception()
                if exc is not None:
                    failures.append((replica, exc))
                else:
                    results[replica] = futures[replica].result()
    if failures:
        detail = "; ".join(f"replica {r}: {e}" for r, e in failures)
        raise ExperimentError(f"{len(failures)} replica(s) failed: {detail}")
    return results


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Execute a sweep and write its outputs under ``cfg.out_dir``.

    Files written: ``config.json``, ``sweep.csv`` (replica,N,V,E,D1,T0,T1),
    ``hist.csv`` (replica,N,kind,r,count), ``fits.csv`` and ``fits.json``
    (every fit ``classify`` returns, in its order).

    Raises
    ------
    ExperimentError
        If any replica fails; the message carries every failed index.
    OSError
        If the output directory cannot be created or written, before any
        sampling starts.
    """
    started = time.perf_counter()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise OSError(f"output directory {out} is not writable")

    results = _gather_replicas(cfg)
    rows = [row for replica in range(cfg.replicas) for row in results[replica]]

    report = classify(rows, lower_q=cfg.fit_lower_q, upper_q=cfg.fit_upper_q)

    save_config(cfg, out / "config.json")
    _write_sweep_csv(rows, out / "sweep.csv")
    _write_hist_csv(rows, out / "hist.csv")
    write_fits_csv(report.fits, out / "fits.csv")
    write_fits_json(report.fits, out / "fits.json")

    return SweepResult(cfg, rows, report, elapsed_seconds=time.perf_counter() - started)


def _write_sweep_csv(rows, path) -> None:
    write_csv(path, ("replica", "N", "V", "E", "D1", "T0", "T1"),
              ((replica, n, snap.effective_vertices, snap.total_edges,
                snap.degree_hist.get(1, 0), snap.triangle_hist.get(0, 0),
                snap.triangle_hist.get(1, 0)) for replica, n, snap in rows))


def _write_hist_csv(rows, path) -> None:
    write_csv(path, ("replica", "N", "kind", "r", "count"),
              ((replica, n, *row) for replica, n, snap in rows for row in _hist_rows(snap)))


def save_config(cfg: ExperimentConfig, path) -> None:
    """Write config.json in the field order of :class:`ExperimentConfig`."""
    with open_text_sink(path) as fh:
        json.dump(asdict(cfg), fh, indent=2)
        fh.write("\n")


def load_config(path) -> ExperimentConfig:
    """Read a config.json, a JSON object of :class:`ExperimentConfig` fields."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParameterError("config must be a JSON object")
    unknown = set(data) - {field.name for field in fields(ExperimentConfig)}
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**data)


def write_scatter_svg(points, path, *, x_label: str, y_label: str) -> None:
    """Minimal log-log scatter plot as a standalone SVG file.

    Data emission elsewhere is CSV; this exists only for a quick visual
    check without pulling in a plotting stack.
    """
    pts = [(x, y) for x, y in points if x > 0 and y > 0]
    if not pts:
        raise ParameterError("scatter needs at least one positive point")
    lx = [math.log10(x) for x, _ in pts]
    ly = [math.log10(y) for _, y in pts]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    xs = 1.0 if x1 == x0 else x1 - x0
    ys = 1.0 if y1 == y0 else y1 - y0
    width, height, pad, radius = 480, 360, 40, 2.5

    def to_px(u, v):
        px = pad + (u - x0) / xs * (width - 2 * pad)
        py = height - pad - (v - y0) / ys * (height - 2 * pad)
        return px, py

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
             f'y2="{height - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
             f'<text x="{width // 2}" y="{height - 8}" font-size="12" '
             f'text-anchor="middle">log10 {x_label}</text>',
             f'<text x="12" y="{height // 2}" font-size="12" text-anchor="middle" '
             f'transform="rotate(-90 12 {height // 2})">log10 {y_label}</text>']
    for u, v in zip(lx, ly):
        px, py = to_px(u, v)
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{radius}" '
                     f'fill="steelblue" fill-opacity="0.6"/>')
    parts.append("</svg>")
    with open_text_sink(path) as fh:
        fh.write("\n".join(parts) + "\n")
