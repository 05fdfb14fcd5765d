import math
import re

import numpy as np
import pytest
from scipy import integrate, stats as st

from crmgraph.measures import (AtomicMeasure, BetaProcessParams, ParameterError,
                               StickBreakingConfig, _round_atoms, check_integer, check_real,
                               rate_density, read_measure_csv, sample_three_param_bp,
                               write_measure_csv)

STD_PARAMS = BetaProcessParams(concentration=1.0, discount=0.1, mass=3.0)


def cfg(rounds, floor=0.0, seed=0):
    return StickBreakingConfig(rounds=rounds, weight_floor=floor, seed=seed)


class TestParameterValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(concentration=0.0, discount=0.1, mass=3.0),
        dict(concentration=-1.0, discount=0.1, mass=3.0),
        dict(concentration=1.0, discount=-0.01, mass=3.0),
        dict(concentration=1.0, discount=1.0, mass=3.0),
        dict(concentration=1.0, discount=0.1, mass=0.0),
        dict(concentration=1.0, discount=0.1, mass=-2.0),
        dict(concentration=1.0, discount=0.1, mass=150.0),  # memory guard
    ])
    def test_bad_params(self, kwargs):
        with pytest.raises(ParameterError):
            BetaProcessParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(rounds=0), dict(rounds=-3),
        dict(rounds=1, weight_floor=-0.1), dict(rounds=1, weight_floor=1.0),
        dict(rounds=1, seed=-1), dict(rounds=1, seed=2 ** 64),
        dict(rounds=1, seed=1.5), dict(rounds=1, seed=True),
        dict(rounds=math.nan), dict(rounds=math.inf), dict(rounds=2.5), dict(rounds=True),
    ])
    def test_bad_config(self, kwargs):
        with pytest.raises(ParameterError):
            StickBreakingConfig(**kwargs)

    def test_alpha_zero_allowed(self):
        BetaProcessParams(concentration=2.0, discount=0.0, mass=1.0)

    @pytest.mark.parametrize("value", [1.5, True, np.True_, math.nan, math.inf, -1, 2**64,
                                       "3", None, np.float64(2**64)])
    def test_check_integer_names_field_and_value(self, value):
        message = f"seed must be in [0, 2**64) and an integer, got {value!r}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            check_integer("seed", value, 0, 2**64)

    @pytest.mark.parametrize("value", [np.uint64(2**64 - 1), np.int64(5), 5.0, np.float32(5)])
    def test_check_integer_returns_python_int(self, value):
        number = check_integer("seed", value, 0, 2**64)
        assert type(number) is int and number == value

    @pytest.mark.parametrize("value", [True, np.True_, math.nan, math.inf, -math.inf, "3",
                                       None, 10**400, np.float64("nan"), np.array(2.0)])
    def test_check_real_names_field_and_value(self, value):
        message = f"gamma must be a finite number, got {value!r}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            check_real("gamma", value)

    @pytest.mark.parametrize("value", [3, -2, 2.5, np.float32(0.5), np.int64(7), np.uint64(9),
                                       np.float64(1e-10), 2**64])
    def test_check_real_returns_python_float(self, value):
        number = check_real("gamma", value)
        assert type(number) is float and number == value

    @pytest.mark.parametrize("kwargs, name", [
        (dict(concentration=1.0, discount=0.1, mass=True), "mass"),
        (dict(concentration="1", discount=0.1, mass=3.0), "concentration"),
        (dict(concentration=1.0, discount=None, mass=3.0), "discount"),
        (dict(concentration=math.nan, discount=0.1, mass=3.0), "concentration"),
    ])
    def test_ill_typed_params_name_field(self, kwargs, name):
        with pytest.raises(ParameterError, match=f"^{name} must be a finite number"):
            BetaProcessParams(**kwargs)

    @pytest.mark.parametrize("floor", [None, "0", True, math.nan])
    def test_ill_typed_floor_named(self, floor):
        with pytest.raises(ParameterError, match="^weight_floor must be a finite number"):
            StickBreakingConfig(rounds=5, weight_floor=floor)

    def test_real_fields_stored_as_floats(self):
        params = BetaProcessParams(concentration=np.int64(1), discount=0, mass=np.float32(3))
        floor = StickBreakingConfig(rounds=5, weight_floor=0).weight_floor
        assert params == BetaProcessParams(1.0, 0.0, 3.0)
        assert {type(v) for v in (*vars(params).values(), floor)} == {float}

    @pytest.mark.parametrize("rounds, seed", [(5.0, np.uint64(2**64 - 1)),
                                              (np.int64(5), 2**64 - 1)])
    def test_integral_values_give_the_int_measure(self, rounds, seed):
        ref = sample_three_param_bp(STD_PARAMS, StickBreakingConfig(rounds=5, seed=2**64 - 1))
        config = StickBreakingConfig(rounds=rounds, seed=seed)
        assert config == ref.config and type(config.rounds) is type(config.seed) is int
        m = sample_three_param_bp(STD_PARAMS, config)
        assert np.array_equal(m.weights, ref.weights) and np.array_equal(m.labels, ref.labels)


class TestRateDensity:
    def test_plain_beta_process_value(self):
        # c * w^-1 * (1-w)^(c-1) at c=1, w=0.5 is exactly 2
        params = BetaProcessParams(concentration=1.0, discount=0.0, mass=1.0)
        assert rate_density(params, 0.5) == pytest.approx(2.0, rel=1e-12)

    def test_three_param_hand_value(self):
        # Gamma(2)/(Gamma(.5)Gamma(1.5)) * 0.5^-1.5 * 0.5^0.5 = 4/pi
        params = BetaProcessParams(concentration=1.0, discount=0.5, mass=1.0)
        assert rate_density(params, 0.5) == pytest.approx(4.0 / math.pi, rel=1e-12)

    def test_finite_near_boundary(self):
        value = rate_density(STD_PARAMS, 0.999)
        assert math.isfinite(value) and value > 0.0

    @pytest.mark.parametrize("w", [0.0, 1.0, -0.2, 1.5])
    def test_domain_error(self, w):
        with pytest.raises(ParameterError):
            rate_density(STD_PARAMS, w)

    @pytest.mark.parametrize("theta", [0.3, 1.0, 4.7])
    def test_discount_zero_matches_plain_formula(self, theta):
        params = BetaProcessParams(concentration=theta, discount=0.0, mass=2.5)
        for w in np.linspace(0.01, 0.99, 23):
            plain = 2.5 * theta * w ** -1.0 * (1.0 - w) ** (theta - 1.0)
            assert rate_density(params, w) == pytest.approx(plain, rel=1e-12)

    def test_large_concentration_no_overflow(self):
        params = BetaProcessParams(concentration=500.0, discount=0.3, mass=1.0)
        assert math.isfinite(rate_density(params, 0.5))

    def test_first_moment_quadrature_equals_mass(self):
        # the analytic identity behind the mass oracle: E[sum w] = mass
        for params in (STD_PARAMS,
                       BetaProcessParams(concentration=2.0, discount=0.4, mass=7.0)):
            value, _ = integrate.quad(lambda w: w * rate_density(params, w), 0.0, 1.0)
            assert value == pytest.approx(params.mass, rel=1e-6)


class TestSampler:
    def test_deterministic_and_seed_sensitive(self):
        a = sample_three_param_bp(STD_PARAMS, cfg(50, seed=3))
        b = sample_three_param_bp(STD_PARAMS, cfg(50, seed=3))
        c = sample_three_param_bp(STD_PARAMS, cfg(50, seed=4))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.weights, c.weights)

    def test_provenance_recorded(self):
        config = cfg(10, seed=1)
        m = sample_three_param_bp(STD_PARAMS, config)
        assert m.params == STD_PARAMS
        assert m.config == config

    def test_weights_strictly_inside_unit_interval(self):
        m = sample_three_param_bp(STD_PARAMS, cfg(400, seed=11))
        assert len(m) > 0
        assert np.all(m.weights > 0.0) and np.all(m.weights < 1.0)
        assert np.unique(m.labels).size == len(m)

    def test_empty_when_first_round_count_is_zero(self):
        # seed 8 draws Poisson(3) = 0 in round 1
        m = sample_three_param_bp(STD_PARAMS, cfg(1, seed=8))
        assert len(m) == 0
        assert m.total_mass() == 0.0

    def test_candidate_atom_count_near_poisson_mean(self):
        # with no floor the atom count is a sum over rounds of Poisson(mass)
        # draws; at the 5000-round truncation that is ~Poisson(3) * 5000
        rounds = 5000
        m = sample_three_param_bp(STD_PARAMS, cfg(rounds, floor=0.0, seed=21))
        mean = STD_PARAMS.mass * rounds
        assert abs(len(m) - mean) < 5.0 * math.sqrt(mean)

    def test_floor_drops_only_light_atoms(self):
        full = sample_three_param_bp(STD_PARAMS, cfg(200, floor=0.0, seed=5))
        floored = sample_three_param_bp(STD_PARAMS, cfg(200, floor=1e-6, seed=5))
        kept = full.weights[full.weights >= 1e-6]
        assert np.array_equal(np.sort(kept), np.sort(floored.weights))

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_floor_is_a_pure_filter(self, seed):
        # past one 128-column stick block both floors must read one stream
        full = sample_three_param_bp(STD_PARAMS, cfg(1000, floor=0.0, seed=seed))
        floored = sample_three_param_bp(STD_PARAMS, cfg(1000, floor=1e-10, seed=seed))
        kept = full.weights >= 1e-10
        assert np.array_equal(full.weights[kept], floored.weights)
        assert np.array_equal(full.labels[kept], floored.labels)

    def test_mean_total_mass_tracks_mass_parameter(self):
        # cheap module-level version of the mass oracle; the 2000-seed
        # acceptance run lives in test_acceptance.py
        totals = [sample_three_param_bp(STD_PARAMS, cfg(200, seed=s)).total_mass()
                  for s in range(300)]
        assert np.mean(totals) == pytest.approx(3.0, abs=0.3)

    def test_first_round_weights_are_beta_distributed(self):
        # R=1 weights are iid Beta(1 - discount, concentration + discount);
        # Kolmogorov-Smirnov must not reject at the 1% level
        params = BetaProcessParams(concentration=1.0, discount=0.1, mass=100.0)
        weights = np.concatenate([
            sample_three_param_bp(params, cfg(1, seed=s)).weights for s in range(120)])
        result = st.kstest(weights[:10_000], st.beta(0.9, 1.1).cdf)
        assert result.pvalue > 0.01

    def test_chunk_crossing_round_mass_matches_analytic_mean(self):
        # round 140 needs two stick chunks; its expected mass has a closed
        # form from the independent beta means
        i, t, a, g = 140, 1.0, 0.1, 3.0
        expected = g * (1 - a) / (1 + t + i * a - a)
        for ell in range(1, i):
            expected *= (t + ell * a) / (1 + t + ell * a - a)
        vals = np.array([
            _round_atoms(STD_PARAMS, cfg(i, seed=s), i)[0].sum()
            for s in range(4000)])
        se = vals.std() / math.sqrt(len(vals))
        assert abs(vals.mean() - expected) < 4.0 * se


class TestAtomicMeasure:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ParameterError):
            AtomicMeasure(np.array([0.5]), np.array([0.1, 0.2]))

    @pytest.mark.parametrize("w", [0.0, 1.0, -0.5, 1.5])
    def test_out_of_range_weight_rejected(self, w):
        with pytest.raises(ParameterError):
            AtomicMeasure(np.array([w]), np.array([0.3]))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ParameterError):
            AtomicMeasure(np.array([0.2, 0.3]), np.array([0.7, 0.7]))

    @pytest.mark.parametrize("weights, message", [
        ([0.5, 1.5], "weight 1.5 of atom 1 is not in (0, 1)"),
        ([0.5, 0.25, math.nan, 0.0], "weight nan of atom 2 is not in (0, 1)"),
        ([0.0], "weight 0.0 of atom 0 is not in (0, 1)"),
    ])
    def test_bad_weight_names_first_atom(self, weights, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            AtomicMeasure(np.array(weights), np.arange(len(weights)) / 8)

    def test_shared_label_names_first_repeat(self):
        # atom 2 is the first to repeat a label (atom 0's), before atom 3 repeats atom 1's
        with pytest.raises(ParameterError, match=re.escape("atoms 0 and 2 share label 0.7")):
            AtomicMeasure(np.full(4, 0.5), np.array([0.7, 0.1, 0.7, 0.1]))

    def test_arrays_are_immutable(self):
        m = AtomicMeasure(np.array([0.2, 0.3]), np.array([0.6, 0.7]))
        with pytest.raises(ValueError):
            m.weights[0] = 0.9


class TestMeasureCsv:
    def test_round_trip_is_lossless(self, tmp_path):
        m = sample_three_param_bp(STD_PARAMS, cfg(100, seed=13))
        path = tmp_path / "w.csv"
        write_measure_csv(m, path)
        back = read_measure_csv(path)
        assert np.array_equal(back.weights, m.weights)
        assert np.array_equal(back.labels, m.labels)

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "w.csv"
        write_measure_csv(AtomicMeasure(np.empty(0), np.empty(0)), path)
        assert len(read_measure_csv(path)) == 0

    def test_header_present(self, tmp_path):
        path = tmp_path / "w.csv"
        write_measure_csv(AtomicMeasure(np.array([0.5]), np.array([0.25])), path)
        assert path.read_text().splitlines()[0] == "atom_id,weight,label"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("a,b,c\n0,0.5,0.5\n")
        with pytest.raises(ParameterError):
            read_measure_csv(path)

    def test_header_checked_before_row_widths(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("a,b\n0,0.5,0.5\n")
        with pytest.raises(ParameterError, match="expected CSV header 'atom_id,weight,label'"):
            read_measure_csv(path)

    @pytest.mark.parametrize("text,row,fields", [
        ("atom_id,weight,label\n0,0.5\n", 1, 2),
        ("atom_id,weight,label\n0,0.5,0.1\n1,0.25,0.2,0.3\n", 2, 4),
    ], ids=["short", "long"])
    def test_ragged_rows_rejected(self, tmp_path, text, row, fields):
        path = tmp_path / "w.csv"
        path.write_text(text)
        with pytest.raises(ParameterError,
                           match=f"data row {row} has {fields} fields, expected 3"):
            read_measure_csv(path)

    @pytest.mark.parametrize("text,message", [
        ("atom_id,weight,label\n0,x,0.1\n", "data row 1 has weight 'x', expected a number"),
        ("atom_id,weight,label\n0,0.5,0.1\n1,0.25,\n",
         "data row 2 has label '', expected a number"),
    ], ids=["weight", "label"])
    def test_non_number_field_rejected(self, tmp_path, text, message):
        path = tmp_path / "w.csv"
        path.write_text(text)
        with pytest.raises(ParameterError, match=re.escape(f"{path}: {message}")):
            read_measure_csv(path)

    def test_reordered_atom_ids_rejected(self, tmp_path):
        # an atom's id is its graph vertex, so a reordered file would relabel them
        path = tmp_path / "w.csv"
        path.write_text("atom_id,weight,label\n2,0.5,0.1\n0,0.25,0.2\n7,0.125,0.3\n")
        with pytest.raises(ParameterError, match="row 1 has atom_id '2', expected 0"):
            read_measure_csv(path)
