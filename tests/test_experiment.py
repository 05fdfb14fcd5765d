import json
import os
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from crmgraph import experiment
from crmgraph.experiment import (DESK_PROFILE, PAPER_PROFILE, ExperimentConfig,
                                 ExperimentError, load_config, run_sweep,
                                 save_config, worker_count, write_scatter_svg)
from crmgraph.measures import ParameterError, sample_three_param_bp
from crmgraph.powerlaw import classify
from crmgraph.rng import derive_key


def small_config(tmp_path, **overrides):
    base = dict(gamma=3.0, theta=1.0, alpha=0.1, rounds=100, weight_floor=1e-10,
                n_start=20, n_stop=100, n_step=20, replicas=2,
                growth_mode="coupled", seed=7, out_dir=str(tmp_path / "out"),
                fit_lower_q=0.5, fit_upper_q=1.0)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_grid(self):
        cfg = ExperimentConfig(n_start=50, n_stop=200, n_step=50)
        assert cfg.n_grid() == [50, 100, 150, 200]

    @pytest.mark.parametrize("overrides", [
        dict(n_start=-1), dict(n_stop=10, n_start=20), dict(n_step=0),
        dict(replicas=0), dict(growth_mode="sideways"),
        dict(alpha=1.0), dict(gamma=0.0), dict(rounds=0),
        dict(seed=-1), dict(seed=2**64), dict(fit_lower_q=-0.1),
        dict(fit_lower_q=0.6, fit_upper_q=0.5), dict(fit_upper_q=1.5),
        dict(seed=1.5), dict(seed=True), dict(replicas=2.5), dict(n_step=2.5),
        dict(n_start=True),
    ])
    def test_invalid(self, overrides):
        with pytest.raises(ParameterError):
            ExperimentConfig(**overrides)

    @pytest.mark.parametrize("overrides", [
        dict(n_start=0, n_stop=10**12, n_step=1), dict(replicas=2**62),
        dict(n_start=0, n_stop=2**63 - 1, n_step=1),
        dict(n_start=1, n_stop=100_001, n_step=1, replicas=10),
    ])
    def test_oversized_sweep_rejected(self, overrides):
        # built only: n_grid() or a sweep on these would not fit in memory
        with pytest.raises(ParameterError, match="snapshots"):
            ExperimentConfig(**overrides)

    def test_largest_sweep_accepted(self):
        cfg = ExperimentConfig(n_start=1, n_stop=100_000, n_step=1, replicas=10)
        assert len(cfg.n_grid()) * cfg.replicas == 10**6

    def test_integral_values_saved_as_ints(self, tmp_path):
        # every int field stores check_integer's int, so config.json holds ints
        path = tmp_path / "config.json"
        cfg = ExperimentConfig(rounds=100.0, n_step=np.int64(50), seed=np.uint64(2**64 - 1))
        save_config(cfg, path)
        assert load_config(path) == cfg == ExperimentConfig(rounds=100, n_step=50,
                                                            seed=2**64 - 1)

    @pytest.mark.parametrize("overrides, name", [
        (dict(gamma=True), "gamma"), (dict(gamma="3"), "gamma"),
        (dict(theta=None), "theta"), (dict(alpha=np.nan), "alpha"),
        (dict(weight_floor=10**400), "weight_floor"), (dict(fit_lower_q="a"), "fit_lower_q"),
        (dict(fit_upper_q=np.inf), "fit_upper_q"), (dict(out_dir=5), "out_dir"),
        (dict(out_dir=None), "out_dir"),
    ])
    def test_ill_typed_value_names_field(self, overrides, name):
        with pytest.raises(ParameterError, match=f"^{name} must be a"):
            ExperimentConfig(**overrides)

    def test_values_stored_as_their_field_type(self, tmp_path):
        cfg = ExperimentConfig(gamma=3, theta=np.int64(1), alpha=np.float32(0.5),
                               weight_floor=0, fit_lower_q=0, fit_upper_q=1,
                               replicas=5.0, out_dir=tmp_path / "out")
        assert cfg == replace(ExperimentConfig(), alpha=0.5, weight_floor=0.0, fit_lower_q=0.0,
                              replicas=5, out_dir=str(tmp_path / "out"))
        assert all(type(getattr(cfg, field.name)).__name__ == field.type
                   for field in fields(ExperimentConfig))
        path = tmp_path / "config.json"
        save_config(cfg, path)
        data = json.loads(path.read_text())
        assert data["theta"] == 1.0 and type(data["theta"]) is float
        assert data["out_dir"] == str(tmp_path / "out")

    def test_integral_float_in_json_loads_as_int(self, tmp_path):
        path = tmp_path / "config.json"
        save_config(small_config(tmp_path), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "replicas": 5.0,
                                    "theta": 1}))
        cfg = load_config(path)
        assert cfg == small_config(tmp_path, replicas=5)
        assert type(cfg.replicas) is int and type(cfg.theta) is float

    def test_valid_configs_round_trip(self, tmp_path):
        # built and saved only; nothing is sampled
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        def real(values):
            # a float, or the same value as an int or a numpy scalar
            return values.flatmap(lambda x: st.sampled_from(
                [x, np.float64(x), np.float32(x)] + ([int(x)] if x.is_integer() else [])))

        def integer(values):
            # an int, or the same value as an integral float or a numpy integer
            return values.flatmap(lambda k: st.sampled_from(
                [k, np.uint64(k)] + ([np.int64(k)] if k < 2**63 else [])
                + ([float(k)] if k < 2**53 else [])))

        @st.composite
        def configs(draw):
            n_start = draw(st.integers(0, 2**62))
            lower_q, upper_q = sorted(draw(st.lists(st.integers(0, 100), min_size=2,
                                                    max_size=2, unique=True)))
            return dict(
                gamma=draw(real(st.floats(0.01, 100.0))),
                theta=draw(real(st.floats(0.01, 1e6))),
                alpha=draw(real(st.integers(0, 99).map(lambda k: k / 100))),
                rounds=draw(integer(st.integers(1, 2**63 - 1))),
                weight_floor=draw(real(st.floats(0.0, 0.5))),
                n_start=draw(integer(st.just(n_start))),
                n_stop=draw(integer(st.integers(n_start, n_start + 9999))),
                n_step=draw(integer(st.integers(1, 2**63 - 1))),
                replicas=draw(integer(st.integers(1, 100))),
                growth_mode=draw(st.sampled_from(experiment.GROWTH_MODES)),
                seed=draw(integer(st.integers(0, 2**64 - 1))),
                out_dir=draw(st.text(st.characters(exclude_categories=("Cs",)), min_size=1,
                                     max_size=20).flatmap(lambda t: st.sampled_from([t, Path(t)]))),
                fit_lower_q=draw(real(st.just(lower_q / 100))),
                fit_upper_q=draw(real(st.just(upper_q / 100))),
            )

        path = tmp_path / "config.json"

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(configs())
        def check(values):
            cfg = ExperimentConfig(**values)
            save_config(cfg, path)
            first = path.read_bytes()
            again = load_config(path)
            assert again == cfg
            save_config(again, path)
            assert path.read_bytes() == first

        check()

    def test_profiles(self):
        assert DESK_PROFILE.rounds == 1000
        assert DESK_PROFILE.n_grid()[0] == 50 and DESK_PROFILE.n_grid()[-1] == 2000
        assert DESK_PROFILE.replicas == 10
        assert PAPER_PROFILE == replace(DESK_PROFILE, n_step=10)

    def test_rounds_past_the_desk_add_no_atom(self):
        # why PAPER_PROFILE keeps the desk's rounds: at the desk parameters and
        # floor, 5000 stick-breaking rounds give the same measure as 1000
        for replica in (0, 1):
            seed = derive_key(DESK_PROFILE.seed, replica)
            short = sample_three_param_bp(DESK_PROFILE.params(), DESK_PROFILE.sticks(seed))
            long = sample_three_param_bp(DESK_PROFILE.params(),
                                         replace(DESK_PROFILE, rounds=5000).sticks(seed))
            np.testing.assert_array_equal(long.weights, short.weights)
            np.testing.assert_array_equal(long.labels, short.labels)

    def test_json_round_trip_bytes(self, tmp_path):
        cfg = small_config(tmp_path)
        path = tmp_path / "config.json"
        save_config(cfg, path)
        first = path.read_bytes()
        again = load_config(path)
        assert again == cfg
        save_config(again, path)
        assert path.read_bytes() == first

    def test_canonical_key_order(self, tmp_path):
        path = tmp_path / "config.json"
        save_config(small_config(tmp_path), path)
        keys = list(json.loads(path.read_text()).keys())
        assert keys == ["gamma", "theta", "alpha", "rounds", "weight_floor",
                        "n_start", "n_stop", "n_step", "replicas", "growth_mode",
                        "seed", "out_dir", "fit_lower_q", "fit_upper_q"]

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        save_config(small_config(tmp_path), path)
        data = json.loads(path.read_text())
        data["mystery"] = 1
        path.write_text(json.dumps(data))
        with pytest.raises(ParameterError):
            load_config(path)


class TestWorkerCount:
    def test_env_caps_workers(self, monkeypatch):
        monkeypatch.setenv(experiment.THREADS_ENV, "1")
        assert worker_count(8) == 1
        monkeypatch.setenv(experiment.THREADS_ENV, "64")
        assert worker_count(3) == 3

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv(experiment.THREADS_ENV, raising=False)
        assert 1 <= worker_count(4) <= 4

    @pytest.mark.parametrize("value", ["0", "-3", str(2**63)])
    def test_cap_out_of_range_names_variable(self, monkeypatch, value):
        monkeypatch.setenv(experiment.THREADS_ENV, value)
        message = f"{experiment.THREADS_ENV} must be in [1, 2**63) and an integer, got {value}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            worker_count(2)

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv(experiment.THREADS_ENV, "0")
        with pytest.raises(ParameterError):
            worker_count(2)

    @pytest.mark.parametrize("value", ["2.5", "four", ""])
    def test_non_integer_env_names_variable(self, monkeypatch, value):
        monkeypatch.setenv(experiment.THREADS_ENV, value)
        with pytest.raises(ParameterError, match=experiment.THREADS_ENV):
            worker_count(2)


class TestRunSweep:
    def test_constant_replica_window_gives_note_not_fit(self, tmp_path, monkeypatch):
        monkeypatch.setenv(experiment.THREADS_ENV, "1")
        # one stick round: a few heavy atoms, all connected from the first N
        cfg = small_config(tmp_path, rounds=1, n_start=10, n_stop=200, n_step=10, seed=3)
        result = run_sweep(cfg)
        assert {s.effective_vertices for r, _, s in result.rows if r == 0} == {5}
        assert result.report.fits["I_replica0"] is None
        assert "constant" in result.report.notes["I_replica0"]

    def test_fit_table_is_one_classify_report(self, tmp_path, monkeypatch):
        monkeypatch.setenv(experiment.THREADS_ENV, "1")
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return classify(*args, **kwargs)

        monkeypatch.setattr(experiment, "classify", counted)
        # every pooled type is fitted; replicas 0 and 2 have a constant V
        # window, so only replica 1 has a type I fit
        cfg = small_config(tmp_path, rounds=2, n_start=10, n_stop=200, n_step=10,
                           seed=24, replicas=3)
        result = run_sweep(cfg)
        assert len(calls) == 1
        labels = [line.split(",")[0] for line in
                  (tmp_path / "out" / "fits.csv").read_text().splitlines()[1:]]
        present = [label for label, fit in result.report.fits.items() if fit is not None]
        assert labels == present
        assert labels == ["I", "IIa", "IIb", "IIIa", "IIIb", "I_replica1"]
        assert [result.report.fits[f"I_replica{r}"] is None for r in range(3)] == [
            True, False, True]

    def test_outputs_and_schema(self, tmp_path, monkeypatch):
        monkeypatch.setenv(experiment.THREADS_ENV, "1")
        cfg = small_config(tmp_path)
        result = run_sweep(cfg)
        out = tmp_path / "out"
        for name in ("config.json", "sweep.csv", "hist.csv", "fits.csv", "fits.json"):
            assert (out / name).exists()
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "replica,N,V,E,D1,T0,T1"
        assert len(lines) == 1 + cfg.replicas * len(cfg.n_grid())
        hist_header = (out / "hist.csv").read_text().splitlines()[0]
        assert hist_header == "replica,N,kind,r,count"
        assert len(result.rows) == cfg.replicas * len(cfg.n_grid())
        assert result.elapsed_seconds > 0.0
        assert {label for label in result.report.fits if label.startswith("I_replica")} == {
            "I_replica0", "I_replica1"}

    def test_coupled_rows_dominate_earlier_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv(experiment.THREADS_ENV, "1")
        result = run_sweep(small_config(tmp_path, replicas=3, rounds=200,
                                        n_stop=200, n_step=20))
        by_replica = {}
        for replica, n, snap in result.rows:
            by_replica.setdefault(replica, []).append((n, snap))
        for series in by_replica.values():
            series.sort()
            for (_, a), (_, b) in zip(series, series[1:]):
                assert b.effective_vertices >= a.effective_vertices
                assert b.total_edges >= a.total_edges

    def test_independent_mode_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv(experiment.THREADS_ENV, "1")
        result = run_sweep(small_config(tmp_path, growth_mode="independent"))
        assert len(result.rows) == 10

    def test_zero_grid_gives_empty_stats(self, tmp_path, monkeypatch):
        monkeypatch.setenv(experiment.THREADS_ENV, "1")
        cfg = small_config(tmp_path, replicas=1, n_start=0, n_stop=0, n_step=1)
        result = run_sweep(cfg)
        (_, n, snap), = result.rows
        assert n == 0
        assert snap.effective_vertices == 0 and snap.total_edges == 0
        assert snap.degree_hist == {} and snap.triangle_hist == {}

    def test_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv(experiment.THREADS_ENV, "1")
        cfg = small_config(tmp_path)
        run_sweep(cfg)
        out = tmp_path / "out"
        first = {name: (out / name).read_bytes() for name in os.listdir(out)}
        run_sweep(cfg)
        second = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert first == second

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        cfg1 = small_config(tmp_path, out_dir=str(tmp_path / "serial"))
        monkeypatch.setenv(experiment.THREADS_ENV, "1")
        run_sweep(cfg1)
        cfg2 = small_config(tmp_path, out_dir=str(tmp_path / "parallel"))
        monkeypatch.setenv(experiment.THREADS_ENV, "2")
        run_sweep(cfg2)
        for name in ("sweep.csv", "hist.csv", "fits.csv", "fits.json"):
            assert (tmp_path / "serial" / name).read_bytes() \
                == (tmp_path / "parallel" / name).read_bytes()

    def test_skip_bound_reported_and_tiny(self, tmp_path, monkeypatch):
        monkeypatch.setenv(experiment.THREADS_ENV, "1")
        result = run_sweep(small_config(tmp_path, rounds=400))
        assert result.max_skip_bound == 0.0

    def test_replica_failure_contained_and_reported(self, tmp_path, monkeypatch):
        monkeypatch.setenv(experiment.THREADS_ENV, "1")
        real = experiment._replica_rows

        def flaky(cfg, replica):
            if replica == 1:
                raise RuntimeError("boom")
            return real(cfg, replica)

        monkeypatch.setattr(experiment, "_replica_rows", flaky)
        with pytest.raises(ExperimentError, match="replica 1"):
            run_sweep(small_config(tmp_path, replicas=3))

    def test_path_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(experiment.THREADS_ENV, "1")
        out = tmp_path / "as-path"
        result = run_sweep(small_config(tmp_path, out_dir=out))
        assert result.config.out_dir == str(out)
        assert json.loads((out / "config.json").read_text())["out_dir"] == str(out)
        assert (out / "fits.json").exists()

    def test_unwritable_output_fails_before_sampling(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way")
        calls = []
        monkeypatch.setattr(experiment, "_gather_replicas",
                            lambda cfg: calls.append(1) or {})
        with pytest.raises(OSError):
            run_sweep(small_config(tmp_path, out_dir=str(blocker)))
        assert calls == []  # failed before any replica ran

    def test_adding_replicas_keeps_earlier_replicas_fixed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(experiment.THREADS_ENV, "1")
        few = run_sweep(small_config(tmp_path, replicas=2,
                                     out_dir=str(tmp_path / "few")))
        more = run_sweep(small_config(tmp_path, replicas=3,
                                      out_dir=str(tmp_path / "more")))
        prefix = [row for row in more.rows if row[0] < 2]
        assert prefix == few.rows

    def test_fits_include_pooled_and_per_replica_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv(experiment.THREADS_ENV, "1")
        cfg = small_config(tmp_path, n_stop=300, n_step=20, rounds=300)
        run_sweep(cfg)
        rows = (tmp_path / "out" / "fits.csv").read_text().splitlines()[1:]
        labels = [row.split(",")[0] for row in rows]
        assert "I" in labels
        assert any(lab.startswith("I_replica") for lab in labels)


class TestBenchContract:
    """The benchmark's traced replay records a sweep through the names it
    wraps in the experiment module: a measure per replica, and the binary
    graph and statistics of every snapshot.  A sweep that stopped calling
    them there would crash every replay's oracle checks."""

    @pytest.mark.parametrize("mode", ["coupled", "independent"])
    def test_sweep_calls_the_wrapped_names(self, tmp_path, monkeypatch, mode):
        monkeypatch.setenv(experiment.THREADS_ENV, "1")
        calls = []

        def counting(name, inner):
            def counted(*args, **kwargs):
                out = inner(*args, **kwargs)
                calls.append((name, args, out))
                return out
            return counted

        for name in ("sample_three_param_bp", "binarize", "summarize"):
            monkeypatch.setattr(experiment, name, counting(name, getattr(experiment, name)))
        cfg = small_config(tmp_path, growth_mode=mode, replicas=2, n_start=0)
        run_sweep(cfg)
        per_replica = ["sample_three_param_bp"] + ["binarize", "summarize"] * len(cfg.n_grid())
        assert [name for name, _, _ in calls] == per_replica * cfg.replicas
        # each summarize reads the binary graph binarize returned just before
        for (name, _, binary), (_, args, _) in zip(calls, calls[1:]):
            if name == "binarize":
                assert args[0] is binary


class TestScatterSvg:
    def test_writes_svg(self, tmp_path):
        path = tmp_path / "scatter.svg"
        write_scatter_svg([(1, 2), (10, 40), (100, 900)], path,
                          x_label="V", y_label="E")
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<circle") == 3

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ParameterError):
            write_scatter_svg([(0, 1)], tmp_path / "x.svg", x_label="a", y_label="b")
