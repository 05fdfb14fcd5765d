"""Finite truncations of beta-process completely random measures.

A realization is an atomic measure: a list of weights in (0, 1) attached to
uniform random labels.  Weights come from the stick-breaking construction of
the three-parameter beta process: round ``i`` spawns ``Poisson(mass)`` atoms,
and each atom's weight is its round-``i`` stick times the product of the
complements of its earlier sticks, with stick ``l`` drawn from
``Beta(1 - discount, concentration + l * discount)``.  Setting the discount
to zero recovers the plain beta process.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fileio import ParameterError, column, read_csv, write_csv
from .rng import philox

__all__ = [
    "ParameterError",
    "check_integer",
    "check_real",
    "BetaProcessParams",
    "StickBreakingConfig",
    "AtomicMeasure",
    "sample_three_param_bp",
    "rate_density",
    "write_measure_csv",
    "read_measure_csv",
]

# Poisson rates above this are rejected outright: each round then spawns so
# many atoms that pair enumeration downstream stops being desk-scale.
MAX_MASS = 100.0

# Sticks are drawn in column blocks of this many rounds at a time so that a
# positive weight floor can stop drawing once no atom in the round can stay
# above it.
_STICK_CHUNK = 128

_MEASURE_HEADER = ("atom_id", "weight", "label")


def check_integer(name: str, value, lo: int, hi: int) -> int:
    """``value`` as an int if it is an integer in [lo, hi), else a ParameterError
    naming ``name`` and the value.  Numpy integers and integral floats such as
    ``5.0`` are integers; bools, nan, inf and fractions are not."""
    number = int(value) if isinstance(value, numbers.Integral) else value
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not lo <= number < hi or number != int(number)):
        hi_text = f"2**{hi.bit_length() - 1}" if hi in (2**63, 2**64) else hi
        raise ParameterError(f"{name} must be in [{lo}, {hi_text}) and an integer, got {value!r}")
    return int(number)


def check_real(name: str, value) -> float:
    """``value`` as a float if it is a finite real number, else a ParameterError
    naming ``name`` and the value.  Ints and numpy scalars are real; bools are not."""
    try:
        if not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int past the float range
        pass
    raise ParameterError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class BetaProcessParams:
    """Parameters of a (three-parameter) beta process.

    Attributes
    ----------
    concentration : float
        Must be positive.
    discount : float
        In [0, 1).  Zero gives the plain beta process.
    mass : float
        Total base-measure mass; also the Poisson rate of atoms per
        stick-breaking round.  Positive, at most ``MAX_MASS``.
    """

    concentration: float
    discount: float
    mass: float

    def __post_init__(self):
        for name in ("concentration", "discount", "mass"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if self.concentration <= 0.0:
            raise ParameterError(f"concentration must be > 0, got {self.concentration}")
        if not 0.0 <= self.discount < 1.0:
            raise ParameterError(f"discount must be in [0, 1), got {self.discount}")
        if self.mass <= 0.0:
            raise ParameterError(f"mass must be > 0, got {self.mass}")
        if self.mass > MAX_MASS:
            raise ParameterError(f"mass {self.mass} exceeds supported maximum {MAX_MASS}")


@dataclass(frozen=True)
class StickBreakingConfig:
    """Truncation controls for the stick-breaking sampler.

    Attributes
    ----------
    rounds : int
        Number of outer rounds drawn, an integer in [1, 2**63).
    weight_floor : float
        Atoms with weight below this are dropped.  In [0, 1).
    seed : int
        Stream seed, an integer in [0, 2**64).
    """

    rounds: int
    weight_floor: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rounds", check_integer("rounds", self.rounds, 1, 2**63))
        object.__setattr__(self, "weight_floor", check_real("weight_floor", self.weight_floor))
        if not 0.0 <= self.weight_floor < 1.0:
            raise ParameterError(f"weight_floor must be in [0, 1), got {self.weight_floor}")
        object.__setattr__(self, "seed", check_integer("seed", self.seed, 0, 2**64))


@dataclass(frozen=True)
class AtomicMeasure:
    """A finite atomic measure: parallel arrays of weights and labels.

    Atoms are stored in generation order.  ``params`` and ``config`` record
    the provenance when the measure came from the sampler; measures built by
    hand or read from disk carry ``None`` there.
    """

    weights: np.ndarray
    labels: np.ndarray
    params: BetaProcessParams | None = None
    config: StickBreakingConfig | None = None

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64).copy()
        labels = np.asarray(self.labels, dtype=np.float64).copy()
        weights.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "labels", labels)
        if weights.shape != labels.shape or weights.ndim != 1:
            raise ParameterError("weights and labels must be 1-d arrays of equal length")
        inside = (weights > 0.0) & (weights < 1.0)
        if not inside.all():
            k = np.flatnonzero(~inside)[0]
            raise ParameterError(f"weight {weights[k]} of atom {k} is not in (0, 1)")
        if np.unique(labels).size != labels.size:  # name the first repeat
            _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
            k = np.flatnonzero(first[inverse] != np.arange(labels.size))[0]
            raise ParameterError(f"atoms {first[inverse[k]]} and {k} share label {labels[k]}")

    def __len__(self) -> int:
        return int(self.weights.size)

    def total_mass(self) -> float:
        return float(self.weights.sum())


def _round_atoms(params: BetaProcessParams, cfg: StickBreakingConfig,
                 round_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights and labels of the atoms spawned in one round.

    Stream layout per round: one Poisson count, then the labels, then the
    stick matrix in fixed column blocks, so emitted values never depend on
    how many blocks were actually needed.  Every floor reads the same stream
    and multiplies the same way, so a positive floor is a pure filter on the
    floor-0 atoms.
    """
    rng = philox(cfg.seed, round_index)
    count = int(rng.poisson(params.mass))
    if count == 0:
        return np.empty(0), np.empty(0)
    labels = rng.random(count)

    a = 1.0 - params.discount
    b = params.concentration + params.discount * np.arange(1, round_index + 1,
                                                           dtype=np.float64)
    last = (round_index - 1) // _STICK_CHUNK * _STICK_CHUNK  # final block's first column
    if cfg.weight_floor == 0.0:
        # nothing can be dropped early, so draw every stick in one call, its
        # parameters laid out in the order the block loop below reads the
        # stream; the products then associate exactly as in that loop
        layout = np.empty(count * round_index)
        head = layout[:count * last].reshape(last // _STICK_CHUNK, count, _STICK_CHUNK)
        head[...] = b[:last].reshape(-1, 1, _STICK_CHUNK)
        layout[count * last:].reshape(count, -1)[...] = b[last:]
        sticks = rng.beta(a, layout)
        prod = (1.0 - sticks[:head.size].reshape(head.shape)).prod(axis=2).prod(axis=0)
        sticks = sticks[head.size:].reshape(count, -1)
    else:
        prod = np.ones(count)  # running product of (1 - stick) over earlier blocks
        for start in range(0, last, _STICK_CHUNK):
            sticks = rng.beta(a, b[start:start + _STICK_CHUNK], size=(count, _STICK_CHUNK))
            prod *= (1.0 - sticks).prod(axis=1)
            # prod only shrinks from here and the final stick is < 1, so once
            # every atom is under the floor the whole round is dropped
            if prod.max() < cfg.weight_floor:
                return np.empty(0), np.empty(0)
        sticks = rng.beta(a, b[last:], size=(count, round_index - last))
    weight = prod * (1.0 - sticks[:, :-1]).prod(axis=1) * sticks[:, -1]

    keep = (weight > 0.0) & (weight < 1.0) & (weight >= cfg.weight_floor)
    return weight[keep], labels[keep]


def sample_three_param_bp(params: BetaProcessParams,
                          cfg: StickBreakingConfig) -> AtomicMeasure:
    """Draw a truncated three-parameter beta process by stick breaking.

    Parameters
    ----------
    params : BetaProcessParams
    cfg : StickBreakingConfig

    Returns
    -------
    AtomicMeasure
        Atoms of rounds ``1..cfg.rounds`` with weight at or above the floor,
        in generation order.  Bit-identical for identical inputs, and
        independent of any round-level parallelism because each round reads
        its own stream keyed by (seed, round).
    """
    all_w, all_l = [], []
    for i in range(1, cfg.rounds + 1):
        w, lab = _round_atoms(params, cfg, i)
        if w.size:
            all_w.append(w)
            all_l.append(lab)
    if all_w:
        weights = np.concatenate(all_w)
        labels = np.concatenate(all_l)
    else:
        weights = np.empty(0)
        labels = np.empty(0)
    return AtomicMeasure(weights, labels, params=params, config=cfg)


def rate_density(params: BetaProcessParams, w: float) -> float:
    """Density of the process rate measure at weight ``w``.

    The density, with respect to Lebesgue measure in ``w`` times the uniform
    base measure and scaled by the total mass, is::

        mass * Gamma(1 + c) / (Gamma(1 - d) * Gamma(c + d))
             * w^(-1 - d) * (1 - w)^(c + d - 1)

    with c the concentration and d the discount.  At d = 0 this reduces to
    the plain beta-process form ``mass * c * w^-1 * (1 - w)^(c - 1)``.
    Evaluated in log space so large concentrations do not overflow.
    """
    if not 0.0 < w < 1.0:
        raise ParameterError(f"w must lie in the open interval (0, 1), got {w}")
    c, d = params.concentration, params.discount
    log_norm = math.lgamma(1.0 + c) - math.lgamma(1.0 - d) - math.lgamma(c + d)
    log_dens = log_norm + (-1.0 - d) * math.log(w) + (c + d - 1.0) * math.log1p(-w)
    return params.mass * math.exp(log_dens)


def write_measure_csv(measure: AtomicMeasure, path: str | Path) -> None:
    """Write atoms as ``atom_id,weight,label`` with 17 significant digits."""
    write_csv(path, _MEASURE_HEADER,
              ([k, f"{w:.17g}", f"{x:.17g}"]
               for k, (w, x) in enumerate(zip(measure.weights, measure.labels))))


def read_measure_csv(path: str | Path) -> AtomicMeasure:
    """Read a measure written by :func:`write_measure_csv` (no provenance),
    whose atom ids, the graph vertices, run 0..k-1 in row order."""
    header, rows = read_csv(path, _MEASURE_HEADER)
    for k, row in enumerate(rows):
        if row[0] != str(k):
            raise ParameterError(f"{path}: data row {k + 1} has atom_id {row[0]!r}, expected {k}")
    return AtomicMeasure(*(np.array(column(path, header, rows, name, float))
                           for name in ("weight", "label")))
