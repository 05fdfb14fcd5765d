"""Log-log slope estimation and power-law classification of sweep output.

Five relationships are fitted.  Across the growth sweep: edge total against
effective vertices (type I), vertices of one fixed degree against effective
vertices (type IIa), and vertices with one fixed triangle count against
effective vertices (type IIb).  Within a single snapshot: the survival
function of per-vertex degrees (type IIIa) and of per-vertex triangle counts
(type IIIb) against the threshold.  Type I is also fitted within each
replica.  All fits are ordinary least squares on base-10 logs, restricted
to an x-quantile window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .fileio import open_text_sink, write_csv

__all__ = [
    "FitError",
    "LogLogFit",
    "CcdfCurve",
    "PowerLawReport",
    "fit_loglog",
    "ccdf",
    "classify",
    "write_fits_csv",
    "write_fits_json",
]

_MIN_POINTS = 5
_SWEEP_MIN_SNAPSHOTS = 10

# Types I/II default to fitting the higher vertex counts.
DEFAULT_LOWER_Q = 0.5
DEFAULT_UPPER_Q = 1.0
# Type III: the fit targets the lower thresholds of the survival curve.
DEFAULT_TAIL_LOWER_Q = 0.0
DEFAULT_TAIL_UPPER_Q = 0.8


class FitError(ValueError):
    """Input unusable for a log-log fit or survival curve."""


@dataclass(frozen=True)
class LogLogFit:
    """OLS line through (log10 x, log10 y) on a quantile-restricted window."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int
    lower_q: float
    upper_q: float


@dataclass(frozen=True)
class CcdfCurve:
    """Empirical survival curve P(X > M) at integer thresholds."""

    thresholds: np.ndarray
    survival: np.ndarray

    def __post_init__(self):
        thresholds = np.asarray(self.thresholds, dtype=np.int64)
        survival = np.asarray(self.survival, dtype=np.float64)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "survival", survival)
        if thresholds.shape != survival.shape:
            raise FitError("thresholds and survival must have equal length")
        if thresholds.size and np.any(np.diff(thresholds) <= 0):
            raise FitError("thresholds must be strictly ascending")
        if np.any(survival < 0.0) or np.any(survival > 1.0):
            raise FitError("survival values must lie in [0, 1]")
        if survival.size and np.any(np.diff(survival) > 0.0):
            raise FitError("survival must be nonincreasing")


@dataclass(frozen=True)
class PowerLawReport:
    """Per-type fits; a missing fit carries its reason in ``notes``."""

    fits: dict[str, LogLogFit | None]
    notes: dict[str, str]
    type_i_class: str | None = None  # "sparse" (slope < 2) or "dense"


def fit_loglog(xs, ys, lower_q: float = DEFAULT_LOWER_Q,
               upper_q: float = DEFAULT_UPPER_Q, *,
               min_points: int = _MIN_POINTS) -> LogLogFit:
    """Least-squares slope of log10(y) against log10(x).

    Parameters
    ----------
    xs, ys : array-like
        Finite, strictly positive values of equal length.
    lower_q, upper_q : float
        The fit uses only points whose x lies within this quantile range of
        the x values.
    min_points : int
        Fewest points allowed in range; 5 by default, at least 2 always
        (tiny reference fixtures lower it explicitly).

    Raises
    ------
    FitError
        On non-finite or nonpositive values, too few points in range, or constant x.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise FitError("xs and ys must be 1-d arrays of equal length")
    if not 0.0 <= lower_q < upper_q <= 1.0:
        raise FitError(f"invalid quantile range [{lower_q}, {upper_q}]")
    if min_points < 2:
        raise FitError(f"min_points must be at least 2, got {min_points}")
    if xs.size == 0 or not ((xs > 0.0) & (xs < np.inf) & (ys > 0.0) & (ys < np.inf)).all():
        raise FitError("all values must be finite and strictly positive")

    q_lo, q_hi = np.quantile(xs, [lower_q, upper_q])
    mask = (xs >= q_lo) & (xs <= q_hi)
    if int(mask.sum()) < min_points:
        raise FitError(f"only {int(mask.sum())} points in quantile range, need {min_points}")
    lx = np.log10(xs[mask])
    ly = np.log10(ys[mask])
    # equal logs minus their floating mean need not be exactly zero, so test
    # the values themselves rather than the sum of squared deviations
    if lx.min() == lx.max():
        raise FitError("x values are constant on the fit range")
    sxx = float(((lx - lx.mean()) ** 2).sum())
    slope = float(((lx - lx.mean()) * (ly - ly.mean())).sum()) / sxx
    intercept = float(ly.mean() - slope * lx.mean())
    ss_res = float(((ly - (slope * lx + intercept)) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LogLogFit(slope, intercept, r_squared, int(mask.sum()), lower_q, upper_q)


def ccdf(samples) -> CcdfCurve:
    """Empirical survival curve of nonnegative integer samples.

    ``survival[M] = #(samples > M) / #samples`` for every integer threshold
    from 0 to max(samples) - 1.
    """
    samples = np.asarray(samples, dtype=np.int64)
    if np.any(samples < 0):
        raise FitError("samples must be nonnegative integers")
    return _survival(np.bincount(samples))


def _survival(counts: np.ndarray) -> CcdfCurve:
    """The curve of :func:`ccdf` from ``counts[v]`` = #(samples == v)."""
    nonzero = np.flatnonzero(counts)
    if nonzero.size == 0:
        raise FitError("ccdf needs at least one sample")
    if nonzero[-1] == 0:
        raise FitError("ccdf needs at least one positive sample")
    at_most = np.cumsum(counts)  # at_most[M] = #(samples <= M)
    thresholds = np.arange(nonzero[-1])
    return CcdfCurve(thresholds, 1.0 - at_most[thresholds] / at_most[-1])


def _sweep_fit(rows, y_of, lower_q, upper_q):
    """Pooled fit of a per-snapshot quantity against effective vertices, and
    a note: why the fit is missing, or how many zero rows it dropped."""
    if len(rows) < _SWEEP_MIN_SNAPSHOTS:
        return None, f"{len(rows)} snapshots, need {_SWEEP_MIN_SNAPSHOTS}"
    xs = np.array([snap.effective_vertices for _, _, snap in rows], float)
    ys = np.array([y_of(snap) for _, _, snap in rows], float)
    keep = (xs > 0) & (ys > 0)
    dropped = len(rows) - int(keep.sum())
    if dropped == len(rows):
        return None, f"dropped all {dropped} zero-valued snapshots"
    try:
        fit = fit_loglog(xs[keep], ys[keep], lower_q, upper_q)
    except FitError as exc:
        return None, str(exc)
    return fit, f"dropped {dropped} zero-valued snapshots" if dropped else None


def _tail_fit(hists, tail_lower_q, tail_upper_q):
    """Survival-curve fit pooled over the histograms of one snapshot N, and its note."""
    values = np.fromiter((v for hist in hists for v in hist), np.int64)
    counts = np.fromiter((c for hist in hists for c in hist.values()), np.int64)
    try:
        if np.any(values < 0):
            raise FitError("samples must be nonnegative integers")
        curve = _survival(np.bincount(values, weights=counts).astype(np.int64))
        keep = (curve.thresholds >= 1) & (curve.survival > 0.0)
        fit = fit_loglog(curve.thresholds[keep].astype(float), curve.survival[keep],
                         tail_lower_q, tail_upper_q)
    except FitError as exc:
        return None, str(exc)
    dropped = int(curve.thresholds.size - keep.sum())
    return fit, f"dropped {dropped} zero-survival or zero thresholds" if dropped else None


def classify(sweep, *, degree_r: int = 1, triangle_r: int = 1,
             snapshot_n: int | None = None,
             lower_q: float = DEFAULT_LOWER_Q, upper_q: float = DEFAULT_UPPER_Q,
             tail_lower_q: float = DEFAULT_TAIL_LOWER_Q,
             tail_upper_q: float = DEFAULT_TAIL_UPPER_Q) -> PowerLawReport:
    """Fit the five power-law types over pooled sweep rows, then type I
    within each replica: ``fits`` holds I, IIa, IIb, IIIa, IIIb and then
    ``I_replica<r>`` for every replica r, ascending.

    Parameters
    ----------
    sweep
        Either a sequence of (replica, n_rounds, GraphStats) rows or any
        object exposing such a sequence as ``.rows``.
    degree_r, triangle_r : int
        The fixed histogram bins tracked by types IIa and IIb.
    snapshot_n : int, optional
        Round count whose snapshots feed the type III survival fits; defaults
        to the largest round count present.
    lower_q, upper_q, tail_lower_q, tail_upper_q : float
        Quantile windows for the sweep fits and the survival fits.

    A type with insufficient data is reported as ``None`` with the reason in
    ``notes`` rather than failing the whole classification; a pooled fit
    also notes the zero rows it dropped.
    """
    rows = list(getattr(sweep, "rows", sweep))
    sweep_targets = {
        "I": lambda s: s.total_edges,
        "IIa": lambda s: s.degree_hist.get(degree_r, 0),
        "IIb": lambda s: s.triangle_hist.get(triangle_r, 0),
    }
    results = {label: _sweep_fit(rows, y_of, lower_q, upper_q)
               for label, y_of in sweep_targets.items()}

    if snapshot_n is None:
        snapshot_n = max((n for _, n, _ in rows), default=None)
    chosen = [snap for _, n, snap in rows if n == snapshot_n]
    for label, hist in (("IIIa", "degree_hist"), ("IIIb", "triangle_hist")):
        hists = [getattr(s, hist) for s in chosen]
        results[label] = (_tail_fit(hists, tail_lower_q, tail_upper_q) if hists
                          else (None, f"no snapshots at N={snapshot_n}"))

    for replica in sorted({replica for replica, _, _ in rows}):
        fit, note = _sweep_fit([row for row in rows if row[0] == replica],
                               sweep_targets["I"], lower_q, upper_q)
        results[f"I_replica{replica}"] = fit, note if fit is None else None

    fits = {label: fit for label, (fit, _) in results.items()}
    notes = {label: note for label, (_, note) in results.items() if note}
    type_i = fits["I"]
    type_i_class = None if type_i is None else ("sparse" if type_i.slope < 2.0 else "dense")
    return PowerLawReport(fits, notes, type_i_class)


_FIT_COLUMNS = ("type", "slope", "intercept", "r2", "n_points", "lower_q", "upper_q")


def _fit_rows(fits: dict[str, LogLogFit | None]):
    for label, fit in fits.items():
        if fit is not None:
            yield {"type": label, "slope": fit.slope, "intercept": fit.intercept,
                   "r2": fit.r_squared, "n_points": fit.n_points,
                   "lower_q": fit.lower_q, "upper_q": fit.upper_q}


def write_fits_csv(fits: dict[str, LogLogFit | None], path) -> None:
    """Fit table: ``type,slope,intercept,r2,n_points,lower_q,upper_q``."""
    write_csv(path, _FIT_COLUMNS,
              ([row[column] for column in _FIT_COLUMNS] for row in _fit_rows(fits)))


def write_fits_json(fits: dict[str, LogLogFit | None], path) -> None:
    """JSON mirror of :func:`write_fits_csv` with identical values."""
    with open_text_sink(path) as fh:
        json.dump(list(_fit_rows(fits)), fh, indent=2)
        fh.write("\n")
