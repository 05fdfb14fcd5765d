"""The benchmark's workloads: pinned inputs, one round of work, its checks.

A run repeats whole rounds.  Round ``r`` of a run with seed ``s`` draws its
inputs from ``s`` and ``r`` only, so the same seed gives the same inputs.
Every workload pins its whole configuration here and reads none of the
package's profiles, which later changes may redefine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from crmgraph import experiment, measures

import checks

# Round r of a run with seed s uses master seeds from s * SEED_STRIDE + ...
SEED_STRIDE = 100_000

_SWEEP_BASE = dict(gamma=3.0, theta=1.0, fit_lower_q=0.5, fit_upper_q=1.0)

# The everyday desk-scale run: small coupled graphs, ten replicas over the
# process pool, fits and CSV output.  Stick breaking and extend dominate.
DESK = dict(_SWEEP_BASE, alpha=0.1, rounds=1000, weight_floor=1e-10,
            n_start=50, n_stop=2000, n_step=50, replicas=10, growth_mode="coupled")
# About 6k atoms per replica and 1.9e7 candidate pairs per one-shot
# generate: pair selection and statistics dominate, peak RSS near 1 GB.
STRESS = dict(_SWEEP_BASE, alpha=0.5, rounds=2000, weight_floor=1e-10,
              n_start=200_000, n_stop=1_000_000, n_step=200_000, replicas=2,
              growth_mode="independent")
# Criterion 4's measures: the floor-0 whole-matrix stick-breaking branch.
MASS_PARAMS = dict(concentration=1.0, discount=0.1, mass=3.0)
MASS_ROUNDS = 1000
# Floor-filter seeds do not depend on the run seed: the floored measure
# differs from the filtered floor-0 one on each of them, because the two
# floors draw the stick matrix in different chunks.
FLOOR_SEEDS = (3, 7, 11)
FLOOR = 1e-10

# Smoke sizes for the self-test: same code paths, seconds per round.
SMOKE = {
    "desk": dict(DESK, replicas=2, n_stop=500),
    "stress": dict(STRESS, rounds=300, n_start=20_000, n_stop=100_000, n_step=20_000),
}

# Names run_sweep looks up in the experiment module; the traced run wraps
# them.  _replica_rows gives the replica level of the span tree.
SWEEP_LAYER_CALLS = ("_replica_rows", "sample_three_param_bp", "start_growth", "extend",
                     "generate", "binarize", "summarize", "classify")


@dataclass
class RoundOutput:
    """What one round produced, kept for the checks after the timed region."""

    result: object
    out_dir: str | None = None
    extra: dict = field(default_factory=dict)


class Workload:
    """Operation accounting shared by the workloads.

    A round attempts ``checked_ops`` operations that fail when any check of
    the round or of the whole run fails, plus ``fault_ops`` operations that
    fail on a known fault of the program without making the run incorrect.
    """

    checked_ops = 1
    fault_ops = 0

    def round_faults(self, out: RoundOutput) -> list[str]:
        return []

    def slim(self, out: RoundOutput) -> RoundOutput:
        """What the replays and ``run_problems`` still need of a round."""
        return out

    def run_problems(self, outs: list[RoundOutput]) -> list[str]:
        return []


class SweepWorkload(Workload):
    """A sweep per round, at master seed s * SEED_STRIDE + r."""

    item = "snapshots"

    def __init__(self, fields: dict, *, replay_in_untraced_runs: bool):
        # The traced one-worker replay carries the oracle checks.  It runs
        # in every run of a workload whose serial sweep takes seconds, and
        # only in traced runs of one whose serial sweep takes half a minute.
        self.replay_in_untraced_runs = replay_in_untraced_runs
        self.base = experiment.ExperimentConfig(**fields, seed=0, out_dir="unused")

    def round_input(self, seed: int, r: int):
        return replace(self.base, seed=seed * SEED_STRIDE + r)

    def worker_count(self) -> int:
        return experiment.worker_count(self.base.replicas)

    def run(self, cfg, out_dir, span) -> RoundOutput:
        with span("experiment.run_sweep"):
            result = experiment.run_sweep(replace(cfg, out_dir=str(out_dir)))
        return RoundOutput(result, str(out_dir))

    def items(self, out: RoundOutput) -> int:
        return len(out.result.rows)

    def patch_targets(self):
        return {experiment: SWEEP_LAYER_CALLS}

    def slim(self, out: RoundOutput) -> RoundOutput:
        return RoundOutput(None, out.out_dir)

    def round_problems(self, out: RoundOutput) -> list[str]:
        res = out.result
        problems = checks.snapshot_identities(res.rows)
        if self.base.growth_mode == "coupled":
            problems += checks.coupled_growth(res.rows)
        problems += checks.skip_bound(res.max_skip_bound)
        problems += checks.fit_recomputation(out.out_dir, self.base.fit_lower_q,
                                             self.base.fit_upper_q)
        return problems

    def replay_problems(self, out: RoundOutput, serial: RoundOutput,
                        traced: RoundOutput, tracer) -> list[str]:
        problems = checks.worker_independence(out.out_dir, serial.out_dir)
        problems += checks.worker_independence(out.out_dir, traced.out_dir)
        if len(tracer.replicas) != self.base.replicas:
            problems.append(f"traced {len(tracer.replicas)} measures for "
                            f"{self.base.replicas} replicas")
        for rep in tracer.replicas:
            problems += checks.edge_count_law(rep["weights"], rep["snapshots"])
            binary, stats = rep["final"]
            problems += checks.triangle_oracle(binary, stats)
        return problems


class MassWorkload(Workload):
    """A batch of floor-0 measures per round, drawn serially.

    Each round draws ``batch`` measures at seeds from the run seed plus one
    at a fixed floor-filter seed; the floor-filter operation is known to
    fail (see ``FLOOR_SEEDS``), so every round fails exactly one operation
    until the sampler is mended.
    """

    item = "measures"
    fault_ops = 1

    def __init__(self, batch: int):
        self.batch = batch
        self.checked_ops = batch
        self.params = measures.BetaProcessParams(**MASS_PARAMS)
        self.replay_in_untraced_runs = False
        self._floored = {}  # floor-filter seed -> floored measure

    def round_input(self, seed: int, r: int):
        seeds = [seed * SEED_STRIDE + r * self.batch + b for b in range(self.batch)]
        return seeds, FLOOR_SEEDS[r % len(FLOOR_SEEDS)]

    def worker_count(self) -> int:
        return 1

    def run(self, inp, out_dir, span) -> RoundOutput:
        seeds, floor_seed = inp
        drawn = []
        for s in seeds + [floor_seed]:
            with span("seed"):
                drawn.append(measures.sample_three_param_bp(
                    self.params, measures.StickBreakingConfig(
                        rounds=MASS_ROUNDS, weight_floor=0.0, seed=s)))
        totals = [m.total_mass() for m in drawn[:-1]]
        return RoundOutput(totals, extra={"floor_seed": floor_seed, "full": drawn[-1]})

    def items(self, out: RoundOutput) -> int:
        return len(out.result) + 1

    def patch_targets(self):
        return {measures: ("sample_three_param_bp",)}

    def round_problems(self, out: RoundOutput) -> list[str]:
        return []  # the batch is checked as a whole by run_problems

    def round_faults(self, out: RoundOutput) -> list[str]:
        seed = out.extra["floor_seed"]
        if seed not in self._floored:
            self._floored[seed] = measures.sample_three_param_bp(
                self.params, measures.StickBreakingConfig(
                    rounds=MASS_ROUNDS, weight_floor=FLOOR, seed=seed))
        return checks.floor_filter(out.extra["full"], self._floored[seed], FLOOR)

    def slim(self, out: RoundOutput) -> RoundOutput:
        return RoundOutput(out.result)

    def run_problems(self, outs: list[RoundOutput]) -> list[str]:
        totals = [t for out in outs for t in out.result]
        return checks.mass_moment(totals, self.params.mass, self.params.concentration,
                                  self.params.discount)

    def replay_problems(self, out, serial, traced, tracer) -> list[str]:
        if traced.result != out.result or serial.result != out.result:
            return ["a replay of the batch gives other total masses"]
        return []


def make(name: str, smoke: bool = False):
    if name == "desk":
        return SweepWorkload(SMOKE["desk"] if smoke else DESK,
                             replay_in_untraced_runs=True)
    if name == "stress":
        return SweepWorkload(SMOKE["stress"] if smoke else STRESS,
                             replay_in_untraced_runs=False)
    if name == "mass_batch":
        return MassWorkload(batch=2 if smoke else 4)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("desk", "stress", "mass_batch")
