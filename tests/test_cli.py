import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from crmgraph import experiment
from crmgraph.cli import cli_dispatch
from crmgraph.experiment import DESK_PROFILE, PAPER_PROFILE, ExperimentConfig, save_config
from crmgraph.measures import (BetaProcessParams, StickBreakingConfig, sample_three_param_bp,
                               write_measure_csv)


def run_cli(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def measure_csv(tmp_path, capsys):
    path = tmp_path / "w.csv"
    code, _, _ = run_cli(capsys, "measure", "--rounds", "60", "--seed", "3",
                         "--out", str(path))
    assert code == 0
    return path


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1 and "usage" in err.lower()

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1 and "usage" in err.lower()

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "measure", "--bogus", "1")
        assert code == 1

    def test_missing_required(self, capsys):
        code, _, _ = run_cli(capsys, "graph", "--n", "5")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
        assert run_cli(capsys, "sweep", "--help")[0] == 0


class TestMeasureCommand:
    def test_stdout_csv(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--rounds", "40", "--seed", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "atom_id,weight,label"
        assert len(lines) > 1

    def test_bad_parameter_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "measure", "--alpha", "1.5")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--gamma", "nan", "gamma must be a finite number, got nan"),
        ("--theta", "0", "theta must be > 0, got 0.0"),
        ("--alpha", "1.0", "alpha must be in [0, 1), got 1.0"),
        ("--gamma", "150", "gamma 150.0 exceeds supported maximum 100.0"),
    ])
    def test_flags_checked_as_config_fields(self, capsys, flag, value, message):
        code, out, err = run_cli(capsys, "measure", flag, value)
        assert code == 2 and out == "" and message in err

    def test_flags_map_to_the_process_fields(self, capsys, tmp_path):
        expected = tmp_path / "expected.csv"
        write_measure_csv(sample_three_param_bp(BetaProcessParams(1.0, 0.1, 3.0),
                                                StickBreakingConfig(60, seed=3)), expected)
        code, out, _ = run_cli(capsys, "measure", "--rounds", "60", "--seed", "3")
        assert code == 0 and out == expected.read_text()


class TestGraphCommand:
    def test_deterministic_edge_lists(self, capsys, measure_csv):
        args = ("graph", "--weights", str(measure_csv), "--n", "100", "--seed", "7")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[0] == "i,j,count"

    def test_binary_output(self, capsys, measure_csv):
        code, out, _ = run_cli(capsys, "graph", "--weights", str(measure_csv),
                               "--n", "50", "--seed", "2", "--binary")
        assert code == 0
        assert out.splitlines()[0] == "i,j"

    def test_exact_rounds_small(self, capsys, measure_csv):
        code, out, _ = run_cli(capsys, "graph", "--weights", str(measure_csv),
                               "--n", "20", "--seed", "2", "--exact-rounds")
        assert code == 0

    @pytest.mark.parametrize("skip_args", [("--pair-skip", "-1"), ("--pair-skip", "0"),
                                           ("--pair-skip=1e-12",)])
    def test_exact_rounds_takes_no_pair_skip(self, capsys, measure_csv, skip_args):
        # every pair is drawn; the old pruning threshold is no longer an option
        code, out, err = run_cli(capsys, "graph", "--weights", str(measure_csv),
                                 "--n", "20", "--exact-rounds", *skip_args)
        assert code == 1 and out == ""
        assert "usage" in err.lower() and "unrecognized arguments: --pair-skip" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exit_2(self, capsys, measure_csv, seed):
        code, out, err = run_cli(capsys, "graph", "--weights", str(measure_csv),
                                 "--n", "100", "--seed", seed)
        assert code == 2 and seed in err and out == ""

    def test_rounds_outside_int64_exit_2(self, capsys, measure_csv):
        code, out, err = run_cli(capsys, "graph", "--weights", str(measure_csv),
                                 "--n", str(2**63))
        assert code == 2 and "n_rounds" in err and out == ""

    def test_reordered_atom_ids_exit_2(self, capsys, tmp_path):
        weights = tmp_path / "w.csv"
        weights.write_text("atom_id,weight,label\n2,0.5,0.1\n0,0.25,0.2\n7,0.125,0.3\n")
        code, out, err = run_cli(capsys, "graph", "--weights", str(weights), "--n", "5")
        assert code == 2 and "atom_id '2'" in err and out == ""

    def test_ragged_measure_row_exit_2(self, capsys, tmp_path):
        weights = tmp_path / "w.csv"
        weights.write_text("atom_id,weight,label\n0,0.5\n")
        code, out, err = run_cli(capsys, "graph", "--weights", str(weights), "--n", "5")
        assert code == 2 and "data row 1 has 2 fields, expected 3" in err and out == ""

    def test_non_number_weight_exit_2(self, capsys, tmp_path):
        weights = tmp_path / "w.csv"
        weights.write_text("atom_id,weight,label\n0,x,0.1\n")
        code, out, err = run_cli(capsys, "graph", "--weights", str(weights), "--n", "5")
        assert code == 2 and out == ""
        assert f"{weights}: data row 1 has weight 'x', expected a number" in err

    @pytest.mark.parametrize("rows, message", [
        ("0,0.5,0.2\n1,1.5,0.3\n", "weight 1.5 of atom 1 is not in (0, 1)"),
        ("0,0.5,0.2\n1,nan,0.3\n", "weight nan of atom 1 is not in (0, 1)"),
        ("0,0.5,0.1\n1,0.25,0.1\n", "atoms 0 and 1 share label 0.1"),
    ], ids=["weight", "nan", "label"])
    def test_bad_atom_named_exit_2(self, capsys, tmp_path, rows, message):
        weights = tmp_path / "w.csv"
        weights.write_text("atom_id,weight,label\n" + rows)
        code, out, err = run_cli(capsys, "graph", "--weights", str(weights), "--n", "5")
        assert code == 2 and message in err and out == ""

    def test_missing_weights_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "graph", "--weights", str(tmp_path / "no.csv"),
                             "--n", "5")
        assert code == 2


class TestStatsCommand:
    def test_wide_from_multigraph(self, capsys, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("i,j,count\n0,1,3\n0,2,1\n1,2,2\n2,3,1\n")
        code, out, _ = run_cli(capsys, "stats", str(edges), "--n", "17")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,V,E,D_1,D_2,D_3,T_0,T_1"
        assert lines[1] == "17,4,4,1,2,1,1,3"

    def test_long_from_binary(self, capsys, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("i,j\n0,1\n0,2\n1,2\n")
        code, out, _ = run_cli(capsys, "stats", str(edges), "--n", "4", "--long")
        assert code == 0
        assert "4,degree,2,3" in out.splitlines()

    def test_bad_header(self, capsys, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("x,y\n0,1\n")
        code, out, err = run_cli(capsys, "stats", str(edges))
        assert code == 2 and out == ""
        assert f"{edges}: expected CSV header 'i,j,count' or 'i,j', got 'x,y'" in err

    def test_header_checked_before_row_widths(self, capsys, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("a,b,c\n0,1\n")
        code, out, err = run_cli(capsys, "stats", str(edges))
        assert code == 2 and out == ""
        assert f"{edges}: expected CSV header 'i,j,count' or 'i,j', got 'a,b,c'" in err

    @pytest.mark.parametrize("layout", [(), ("--long",)], ids=["wide", "long"])
    def test_binary_twin_gives_same_stats(self, capsys, measure_csv, tmp_path, layout):
        paths = [tmp_path / "multi.csv", tmp_path / "binary.csv"]
        for path, flag in zip(paths, ((), ("--binary",))):
            code, _, _ = run_cli(capsys, "graph", "--weights", str(measure_csv), "--n", "300",
                                 "--seed", "7", *flag, "--out", str(path))
            assert code == 0
        assert [p.read_text().split("\n", 1)[0] for p in paths] == ["i,j,count", "i,j"]
        multi, binary = (run_cli(capsys, "stats", str(p), "--n", "300", *layout)
                         for p in paths)
        assert multi == binary and multi[0] == 0 and multi[1].count("\n") >= 2

    @pytest.mark.parametrize("text,message", [
        ("i,j\n0,1\n0.0,2\n", "data row 2 has i '0.0', expected an integer"),
        ("i,j,count\n0,1,x\n", "data row 1 has count 'x', expected an integer"),
        ("i,j,count\n0,1,99999999999999999999\n",
         "data row 1 has count '99999999999999999999', expected an integer in [-2**63, 2**63)"),
        ("i,j\n0,9223372036854775808\n",
         "data row 1 has j '9223372036854775808', expected an integer in [-2**63, 2**63)"),
    ], ids=["binary", "multigraph", "count-over-int64", "id-over-int64"])
    def test_non_integer_field_exit_2(self, capsys, tmp_path, text, message):
        edges = tmp_path / "edges.csv"
        edges.write_text(text)
        code, out, err = run_cli(capsys, "stats", str(edges))
        assert code == 2 and f"{edges}: {message}" in err and out == ""
        assert "Traceback" not in err

    def test_negative_round_count_exit_2(self, capsys, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("i,j\n0,1\n")
        code, out, err = run_cli(capsys, "stats", str(edges), "--n", "-5")
        assert code == 2 and "n_rounds" in err and "-5" in err and out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["i,j,count\n0,1,3\n0,2,1\n0,1,5\n",
                                      "i,j\n0,1\n0,2\n0,1\n"])
    def test_repeated_rows_exit_2(self, capsys, tmp_path, text):
        edges = tmp_path / "edges.csv"
        edges.write_text(text)
        code, out, err = run_cli(capsys, "stats", str(edges))
        assert code == 2 and "pair (0, 1)" in err and out == ""


    @pytest.mark.parametrize("text,message", [
        ("i,j\n0,1\n1,2,5\n", "data row 2 has 3 fields, expected 2"),
        ("i,j,count\n0,1,2\n1\n", "data row 2 has 1 fields, expected 3"),
    ])
    def test_ragged_rows_exit_2(self, capsys, tmp_path, text, message):
        edges = tmp_path / "edges.csv"
        edges.write_text(text)
        code, out, err = run_cli(capsys, "stats", str(edges))
        assert code == 2 and message in err and out == ""


class TestSweepCommand:
    def test_happy_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CRMGG_THREADS", "1")
        cfg = ExperimentConfig(rounds=80, n_start=20, n_stop=100, n_step=20,
                               replicas=2, seed=5, out_dir=str(tmp_path / "out"))
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg, cfg_path)
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg_path))
        assert code == 0
        for name in ("config.json", "sweep.csv", "hist.csv", "fits.csv", "fits.json"):
            assert (tmp_path / "out" / name).exists()
        assert "sweep.csv" in out

    def test_out_override_and_svg(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CRMGG_THREADS", "1")
        cfg = ExperimentConfig(rounds=80, n_start=20, n_stop=100, n_step=20,
                               replicas=1, seed=5, out_dir=str(tmp_path / "ignored"))
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg, cfg_path)
        out_dir = tmp_path / "override"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg_path),
                             "--out", str(out_dir), "--svg")
        assert code == 0
        assert (out_dir / "sweep.csv").exists()
        assert (out_dir / "ve_scatter.svg").read_text().startswith("<svg")
        assert not (tmp_path / "ignored").exists()

    def test_missing_config(self, capsys, tmp_path):
        assert run_cli(capsys, "sweep", "--config", str(tmp_path / "no.json"))[0] == 2

    @pytest.mark.parametrize("key, value", [
        ("replicas", "10"), ("n_step", "5"), ("gamma", "3"), ("seed", -1),
        ("replicas", True), ("fit_lower_q", 1.5),
        ("out_dir", 5), ("theta", None), ("alpha", "0.1"), ("growth_mode", 3),
    ])
    def test_malformed_config_value_exit_1(self, capsys, tmp_path, key, value):
        cfg_path = tmp_path / "cfg.json"
        save_config(ExperimentConfig(out_dir=str(tmp_path / "out")), cfg_path)
        data = json.loads(cfg_path.read_text())
        data[key] = value
        cfg_path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
        assert code == 1
        assert key in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("theta", 0, "theta must be > 0, got 0.0"),
        ("alpha", 1.0, "alpha must be in [0, 1), got 1.0"),
        ("gamma", 150, "gamma 150.0 exceeds supported maximum 100.0"),
        ("growth_mode", 3, "growth_mode must be one of ('coupled', 'independent'), got 3"),
    ])
    def test_config_range_error_names_the_key_exit_1(self, capsys, tmp_path, key, value,
                                                      message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value, "out_dir": str(tmp_path / "out")}))
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
        assert code == 1 and f"{cfg_path}: {message}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ['{"gamma": ', '[1, 2]'])
    def test_unreadable_config_exit_1(self, capsys, tmp_path, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
        assert code == 1 and "config" in err

    @pytest.mark.parametrize("overrides,numbers", [
        (dict(n_start=0, n_stop=10**12, n_step=1), ("1000000000001 grid points", "10 replicas")),
        (dict(replicas=2**62), ("40 grid points", f"{2**62} replicas")),
    ], ids=["grid", "replicas"])
    def test_oversized_sweep_exit_1(self, capsys, tmp_path, monkeypatch, overrides, numbers):
        # nothing may be sampled, whatever the check lets through
        monkeypatch.setattr(experiment, "run_sweep", lambda cfg: 1 / 0)
        cfg_path = tmp_path / "cfg.json"
        save_config(ExperimentConfig(out_dir=str(tmp_path / "out")), cfg_path)
        cfg_path.write_text(json.dumps({**json.loads(cfg_path.read_text()), **overrides}))
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
        assert code == 1 and "exceed the 1000000 snapshots" in err
        assert all(number in err for number in numbers)

    def test_config_and_profile_mutually_exclusive(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sweep", "--config", "a.json", "--profile", "desk")
        assert code == 1
        assert run_cli(capsys, "sweep")[0] == 1

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_exit_1(self, capsys, tmp_path, seed):
        code, _, err = run_cli(capsys, "sweep", "--profile", "desk", "--seed", seed,
                               "--out", str(tmp_path / "out"))
        assert code == 1
        assert "seed must be in [0, 2**64)" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_desk_profile_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CRMGG_THREADS", "2")
        out_dir = tmp_path / "desk"
        code, _, _ = run_cli(capsys, "sweep", "--profile", "desk", "--seed", "2",
                             "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "fits.json").exists()

    def test_paper_profile_config(self, capsys, tmp_path, monkeypatch):
        seen = []

        def stop(cfg):
            seen.append(cfg)
            raise RuntimeError("not sampled")

        monkeypatch.setattr(experiment, "run_sweep", stop)
        out_dir = str(tmp_path / "paper")
        code, _, err = run_cli(capsys, "sweep", "--profile", "paper", "--seed", "3",
                               "--out", out_dir)
        assert code == 2 and "not sampled" in err
        assert seen == [replace(PAPER_PROFILE, seed=3, out_dir=out_dir)] \
            == [replace(DESK_PROFILE, n_step=10, seed=3, out_dir=out_dir)]


class TestFitCommand:
    def test_fit_columns(self, capsys, tmp_path):
        table = tmp_path / "sweep.csv"
        rows = ["replica,N,V,E"]
        for v in range(10, 110, 10):
            rows.append(f"0,{v},{v},{4 * v * v}")
        table.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "fit", str(table), "--x", "V", "--y", "E",
                               "--lower-q", "0.0", "--upper-q", "1.0")
        assert code == 0
        header, row = out.splitlines()
        assert header == "type,slope,intercept,r2,n_points,lower_q,upper_q"
        fields = row.split(",")
        assert fields[0] == "E~V"
        assert float(fields[1]) == pytest.approx(2.0, abs=1e-9)

    def test_non_finite_value_exit_2(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("V,E\n1,2\n2,4\n3,6\n4,8\n5,inf\n")
        code, out, err = run_cli(capsys, "fit", str(table), "--x", "V", "--y", "E",
                                 "--lower-q", "0")
        assert code == 2 and "finite" in err and out == ""

    def test_missing_column(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("a,b\n1,2\n")
        assert run_cli(capsys, "fit", str(table), "--x", "V", "--y", "E")[0] == 2

    def test_non_number_value_exit_2(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("V,E\n1,2\nx,4\n3,6\n")
        code, out, err = run_cli(capsys, "fit", str(table), "--x", "V", "--y", "E")
        assert code == 2 and out == ""
        assert f"{table}: data row 2 has V 'x', expected a number" in err


class TestCcdfCommand:
    def test_plain_integers(self, capsys, tmp_path):
        samples = tmp_path / "degrees.txt"
        samples.write_text("1\n2\n2\n3\n")
        code, out, _ = run_cli(capsys, "ccdf", str(samples))
        assert code == 0
        assert out.splitlines() == ["M,survival", "0,1.0", "1,0.75", "2,0.25"]

    def test_csv_column(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("v,degree\n9,1\n9,2\n9,2\n9,3\n")
        code, out, _ = run_cli(capsys, "ccdf", str(table), "--column", "degree")
        assert code == 0
        assert out.splitlines()[1] == "0,1.0"

    @pytest.mark.parametrize("name,text,extra", [
        ("plain.txt", "1\n2.7\n3\n", ()),
        ("t.csv", "v,degree\n9,1\n9,2.7\n9,3\n", ("--column", "degree")),
    ])
    def test_fractional_sample_exit_2(self, capsys, tmp_path, name, text, extra):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(capsys, "ccdf", str(path), *extra)
        assert code == 2 and "'2.7'" in err and out == ""

    @pytest.mark.parametrize("name,text,extra", [
        ("plain.txt", "1\n2.0\n2\n3e0\n", ()),
        ("t.csv", "v,degree\n9,1\n9,2.0\n9,2\n9,3e0\n", ("--column", "degree")),
    ])
    def test_integral_float_samples_accepted(self, capsys, tmp_path, name, text, extra):
        path = tmp_path / name
        path.write_text(text)
        code, out, _ = run_cli(capsys, "ccdf", str(path), *extra)
        assert code == 0
        assert out.splitlines() == ["M,survival", "0,1.0", "1,0.75", "2,0.25"]

    def test_non_number_sample_names_file_and_row(self, capsys, tmp_path):
        samples = tmp_path / "p.txt"
        samples.write_text("1\nx\n3\n")
        code, out, err = run_cli(capsys, "ccdf", str(samples))
        assert code == 2 and out == ""
        assert f"{samples}: data row 2 has sample 'x', expected a number" in err

    def test_stdin_samples(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n2\n3\n"))
        code, out, _ = run_cli(capsys, "ccdf", "-")
        assert code == 0
        assert out.splitlines() == ["M,survival", "0,1.0", "1,0.75", "2,0.25"]
        monkeypatch.setattr(sys, "stdin", io.StringIO("1\nx\n3\n"))
        code, out, err = run_cli(capsys, "ccdf", "-")
        assert code == 2 and out == ""
        assert "-: data row 2 has sample 'x', expected a number" in err

    @pytest.mark.parametrize("text,named", [("1\n-2\n", "sample '-2.0'"),
                                            ("1\n1e12\n", "10000000 thresholds")])
    def test_sample_outside_the_library_rule_exit_2(self, capsys, tmp_path, text, named):
        samples = tmp_path / "s.txt"
        samples.write_text(text)
        code, out, err = run_cli(capsys, "ccdf", str(samples))
        assert code == 2 and out == "" and named in err

    def test_all_zero_exit_2(self, capsys, tmp_path):
        samples = tmp_path / "z.txt"
        samples.write_text("0\n0\n")
        assert run_cli(capsys, "ccdf", str(samples))[0] == 2


@pytest.mark.parametrize("argv", [("fit", "--x", "V", "--y", "E", "--lower-q", "0"),
                                  ("ccdf", "--column", "E")], ids=["fit", "ccdf"])
@pytest.mark.parametrize("text,message", [
    ("V,E\n1,2\n2,3,99\n4,5\n5,6\n6,7\n", "data row 2 has 3 fields, expected 2"),
    ("V,E\n1,2\n3\n4,5\n5,6\n6,7\n", "data row 2 has 1 fields, expected 2"),
    ("V,E\n1,2\n\n4,5\n5,6\n6,7\n7,8\n", "data row 2 has 0 fields, expected 2"),
], ids=["long", "short", "blank"])
def test_ragged_column_table_exit_2(capsys, tmp_path, argv, text, message):
    table = tmp_path / "t.csv"
    table.write_text(text)
    command, *flags = argv
    code, out, err = run_cli(capsys, command, str(table), *flags)
    assert code == 2 and message in err and out == ""


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    """Every CSV table the CLI writes, each written once to a file."""
    d = tmp_path_factory.mktemp("tables")
    save_config(ExperimentConfig(rounds=80, n_start=10, n_stop=200, n_step=10,
                                 replicas=1, seed=5, out_dir=str(d / "sweep")),
                d / "cfg.json")
    commands = [
        ("measure", "--rounds", "60", "--seed", "3", "--out", d / "measure.csv"),
        ("graph", "--weights", d / "measure.csv", "--n", "100", "--out", d / "multi.csv"),
        ("graph", "--weights", d / "measure.csv", "--n", "100", "--binary",
         "--out", d / "binary.csv"),
        ("stats", d / "multi.csv", "--out", d / "stats_wide.csv"),
        ("stats", d / "multi.csv", "--long", "--out", d / "stats_long.csv"),
        ("sweep", "--config", d / "cfg.json"),
        ("fit", d / "sweep" / "sweep.csv", "--x", "V", "--y", "E", "--out", d / "fit.csv"),
        ("ccdf", d / "sweep" / "hist.csv", "--column", "count", "--out", d / "ccdf.csv"),
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CRMGG_THREADS", "1")
        for argv in commands:
            assert cli_dispatch([str(arg) for arg in argv]) == 0, argv
    return d


@pytest.mark.parametrize("name", [
    "measure.csv", "multi.csv", "binary.csv", "stats_wide.csv", "stats_long.csv",
    "sweep/sweep.csv", "sweep/hist.csv", "sweep/fits.csv", "fit.csv", "ccdf.csv",
])
def test_tables_end_lines_with_lf_only(table_dir, name):
    data = (table_dir / name).read_bytes()
    assert data.count(b"\n") >= 2 and b"\r" not in data


class TestConsoleScript:
    def test_module_entry_point(self):
        # runs from the source tree, so no installed console script is needed
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = subprocess.run([sys.executable, "-m", "crmgraph", "--help"],
                                capture_output=True, text=True, env=env)
        assert script.returncode == 0
        assert "measure" in script.stdout
