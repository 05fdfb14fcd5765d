import json
import math
import re

import numpy as np
import pytest

from crmgraph import powerlaw
from crmgraph.powerlaw import (CcdfCurve, FitError, ccdf, classify, fit_loglog,
                               write_fits_csv, write_fits_json)
from crmgraph.stats import GraphStats


def ols_log10_oracle(xs, ys):
    """Closed-form least squares on (log10 x, log10 y), written out as sums."""
    lx = [math.log10(x) for x in xs]
    ly = [math.log10(y) for y in ys]
    n = len(lx)
    sx, sy = sum(lx), sum(ly)
    sxx = sum(v * v for v in lx)
    sxy = sum(u * v for u, v in zip(lx, ly))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    mean_y = sy / n
    ss_res = sum((v - (slope * u + intercept)) ** 2 for u, v in zip(lx, ly))
    ss_tot = sum((v - mean_y) ** 2 for v in ly)
    return slope, intercept, 1.0 - ss_res / ss_tot


def snapshot(n, v, e, degree_hist=None, triangle_hist=None):
    return GraphStats(n_rounds=n, effective_vertices=v, total_edges=e,
                      degree_hist=degree_hist or {}, triangle_hist=triangle_hist or {})


class TestFitLogLog:
    def test_exact_power_law_recovered(self):
        xs = np.arange(1.0, 101.0)
        fit = fit_loglog(xs, 2.0 * xs ** 1.5, 0.0, 1.0)
        assert fit.slope == pytest.approx(1.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log10(2.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 100

    def test_three_point_fixture_matches_independent_ols(self):
        xs, ys = [1.0, 10.0, 100.0], [1.0, 5.0, 30.0]
        slope, intercept, r2 = ols_log10_oracle(xs, ys)
        fit = fit_loglog(xs, ys, 0.0, 1.0, min_points=3)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept, abs=1e-9)
        assert fit.r_squared == pytest.approx(r2, abs=1e-9)
        # frozen values from the same closed form, computed before the build
        assert fit.slope == pytest.approx(0.738560627359831, abs=1e-9)
        assert fit.intercept == pytest.approx(-0.013196874341270556, abs=1e-9)
        assert fit.r_squared == pytest.approx(0.9990430806636604, abs=1e-9)

    def test_constant_y_gives_zero_slope(self):
        fit = fit_loglog([1, 10, 100, 1000, 10000], [7.0] * 5, 0.0, 1.0)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_equal_x_rejected_despite_rounding(self):
        # the floating mean of twenty equal logs differs from them in the
        # last bit, which once gave a slope fitted to rounding noise
        with pytest.raises(FitError, match="constant"):
            fit_loglog([49] * 20, np.linspace(100.0, 300.0, 20))

    def test_quantile_window_restricts_points(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 1e6, 2e6, 4e6, 8e6, 16e6])
        ys = np.concatenate([xs[:5] ** 1.0, xs[5:] ** 0.0 + 41.0])
        lower = fit_loglog(xs, ys, 0.0, 0.5)
        upper = fit_loglog(xs, ys, 0.5, 1.0)
        assert lower.n_points == 5 and upper.n_points == 5
        assert lower.slope == pytest.approx(1.0, abs=1e-12)
        assert upper.slope == pytest.approx(0.0, abs=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        xs = np.linspace(2.0, 300.0, 40)
        ys = 3.0 * xs ** 1.3 * np.exp(rng.normal(0, 0.1, xs.size))
        base = fit_loglog(xs, ys)
        for k in (2.0, 10.0, 1e-3):
            scaled = fit_loglog(xs, k * ys)
            assert scaled.slope == pytest.approx(base.slope, abs=1e-12)
            assert scaled.r_squared == pytest.approx(base.r_squared, abs=1e-12)
            assert scaled.intercept - base.intercept == pytest.approx(math.log10(k), abs=1e-12)

    def test_determinism(self):
        xs = np.linspace(1, 50, 20)
        ys = xs ** 2.2
        a, b = fit_loglog(xs, ys), fit_loglog(xs, ys)
        assert (a.slope, a.intercept, a.r_squared) == (b.slope, b.intercept, b.r_squared)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite_values_rejected(self, bad, axis):
        good = [1.0, 2.0, 3.0, 4.0, 5.0]
        xs, ys = (good[:4] + [bad], good) if axis == "x" else (good, good[:4] + [bad])
        with pytest.raises(FitError, match="finite"):
            fit_loglog(xs, ys, 0.0, 1.0)

    def test_errors(self):
        good_x, good_y = [1, 2, 3, 4, 5], [1, 2, 3, 4, 5]
        with pytest.raises(FitError):
            fit_loglog([1, 2, 3, 4], [1, 2, 3, 4], 0.0, 1.0)  # too few points
        with pytest.raises(FitError):
            fit_loglog(good_x, [1, 2, 0, 4, 5], 0.0, 1.0)  # nonpositive y
        with pytest.raises(FitError):
            fit_loglog([-1, 2, 3, 4, 5], good_y, 0.0, 1.0)  # nonpositive x
        with pytest.raises(FitError):
            fit_loglog([2, 2, 2, 2, 2], good_y, 0.0, 1.0)  # constant x
        with pytest.raises(FitError):
            fit_loglog(good_x, [1, 2, 3], 0.0, 1.0)  # length mismatch
        with pytest.raises(FitError):
            fit_loglog(good_x, good_y, 0.9, 0.1)  # inverted quantiles
        with pytest.raises(FitError):
            fit_loglog(np.arange(1.0, 101.0), np.arange(1.0, 101.0), 0.0, 0.01)


class TestCcdf:
    def test_counting_example(self):
        curve = ccdf([1, 2, 2, 3])
        assert curve.thresholds.tolist() == [0, 1, 2]
        assert curve.survival.tolist() == [1.0, 0.75, 0.25]

    def test_all_equal(self):
        curve = ccdf([3, 3, 3])
        assert curve.thresholds.tolist() == [0, 1, 2]
        assert curve.survival.tolist() == [1.0, 1.0, 1.0]

    def test_survival_at_zero_is_positive_fraction(self):
        curve = ccdf([0, 0, 1, 4])
        assert curve.survival[0] == 0.5

    def test_errors(self):
        with pytest.raises(FitError):
            ccdf([])
        with pytest.raises(FitError):
            ccdf([0, 0, 0])
        with pytest.raises(FitError):
            ccdf([1, -2])

    @pytest.mark.parametrize("samples,named", [
        ([1, 2.7, 3], "sample '2.7'"), ([float("nan")], "sample 'nan'"),
        ([float("inf")], "sample 'inf'"), ([1e30], "sample '1e+30'"),
        ([1, -2], "sample '-2'"), (["3", 2], "sample '3'"), ([True, 2], "sample 'True'"),
        ([2**53], f"sample '{2**53}'"), (np.ones((2, 2)), "shape (2, 2)"),
    ])
    def test_sample_that_is_not_an_integer_is_named(self, samples, named):
        with pytest.raises(FitError) as info:
            ccdf(samples)
        assert named in str(info.value)

    def test_curve_longer_than_threshold_limit_rejected_before_allocating(self, monkeypatch):
        # 10**12 thresholds would take 8 TB; the rule fails without allocating
        with pytest.raises(FitError, match=r"sample '1000000000000' .* 10000000 thresholds"):
            ccdf([1, 10**12])
        monkeypatch.setattr(powerlaw, "_MAX_THRESHOLDS", 3)
        assert ccdf([3.0]).thresholds.tolist() == [0, 1, 2]
        with pytest.raises(FitError, match="sample '4' .* 3 thresholds"):
            ccdf([3, 4])

    def test_integral_floats_give_the_curve_of_the_ints(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(st.lists(st.integers(0, 500), min_size=1, max_size=50))
        def check(ints):
            try:
                expected = ccdf(ints)
            except FitError as exc:
                with pytest.raises(FitError, match=re.escape(str(exc))):
                    ccdf([float(v) for v in ints])
                return
            for floats in ([float(v) for v in ints], np.array(ints, dtype=float)):
                curve = ccdf(floats)
                assert curve.thresholds.tolist() == expected.thresholds.tolist()
                assert curve.survival.tolist() == expected.survival.tolist()

        check()

    def test_monotone_on_random_input(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            samples = rng.integers(0, 40, size=rng.integers(2, 200))
            if samples.max() == 0:
                continue
            curve = ccdf(samples)
            assert np.all(np.diff(curve.survival) <= 0.0)

    def test_zipf_tail_slope_recovered(self):
        # inverse-CDF sampling: X = ceil(U^(-1/2)) has P(X > M) = M^-2 exactly
        # at integer thresholds M >= 1
        rng = np.random.default_rng(2024)
        samples = np.ceil(rng.random(10_000) ** -0.5).astype(np.int64)
        curve = ccdf(samples)
        keep = (curve.thresholds >= 1) & (curve.survival > 0)
        fit = fit_loglog(curve.thresholds[keep].astype(float), curve.survival[keep],
                         0.0, 0.8)
        assert -2.2 < fit.slope < -1.8

    def test_curve_validation(self):
        with pytest.raises(FitError):
            CcdfCurve(np.array([0, 1]), np.array([0.5, 0.9]))  # increasing
        with pytest.raises(FitError):
            CcdfCurve(np.array([1, 0]), np.array([0.9, 0.5]))  # not ascending
        with pytest.raises(FitError):
            CcdfCurve(np.array([0, 1]), np.array([1.5, 0.5]))  # out of range
        with pytest.raises(FitError):
            CcdfCurve(np.array([0, 1, 2]), np.array([1.0, 0.5]))  # lengths

    @pytest.mark.parametrize("thresholds,named", [
        ([0, 1.7, 2.9], "threshold '1.7'"), ([0, True, 2], "threshold 'True'"),
        (np.array([0.0, 1.5, 2.0]), "threshold '1.5'"), ([0, "1", 2], "threshold '1'"),
        ([0, 1, float("nan")], "threshold 'nan'"), (np.array([-1, 0, 1]), "threshold '-1'"),
        (np.array([0, 1, 2**53], dtype=np.uint64), f"threshold '{2**53}'"),
    ])
    def test_curve_threshold_that_is_not_an_integer_is_named(self, thresholds, named):
        with pytest.raises(FitError) as info:
            CcdfCurve(thresholds, [1.0, 0.5, 0.25])
        assert str(info.value) == f"{named} is not an integer in [0, 2**53)"

    @pytest.mark.parametrize("thresholds", [
        [0, 1, 2], [0.0, 1.0, 2.0], np.array([0, 1, 2], dtype=np.uint8),
        np.array([0.0, 1.0, 2.0])])
    def test_curve_keeps_integral_thresholds(self, thresholds):
        curve = CcdfCurve(thresholds, [1.0, 0.5, 0.25])
        assert curve.thresholds.dtype == np.int64 and curve.thresholds.tolist() == [0, 1, 2]


class TestClassify:
    def test_dense_boundary(self):
        rows = [(0, n, snapshot(n, v, v * v, {2 * v: v}, {0: v}))
                for n, v in enumerate(range(10, 210, 10), start=1)]
        report = classify(rows, lower_q=0.0, upper_q=1.0)
        assert report.fits["I"].slope == pytest.approx(2.0, abs=1e-9)
        assert report.type_i_class == "dense"

    def test_sparse_linear(self):
        rows = [(0, n, snapshot(n, v, v, {2: v}, {0: v}))
                for n, v in enumerate(range(10, 210, 10), start=1)]
        report = classify(rows, lower_q=0.0, upper_q=1.0)
        assert report.fits["I"].slope == pytest.approx(1.0, abs=1e-9)
        assert report.type_i_class == "sparse"

    def test_type_iia_recovers_exponent(self):
        rows = []
        for n, v in enumerate(range(10, 410, 10), start=1):
            d1 = v ** 1.1
            rows.append((0, n, snapshot(n, v, 3 * v, {1: d1}, {0: v})))
        report = classify(rows, lower_q=0.0, upper_q=1.0)
        assert report.fits["IIa"].slope == pytest.approx(1.1, abs=1e-9)

    def test_type_iib_uses_requested_bin(self):
        rows = []
        for n, v in enumerate(range(10, 410, 10), start=1):
            rows.append((0, n, snapshot(n, v, 3 * v, {1: v},
                                        {0: v, 2: v ** 0.7})))
        report = classify(rows, triangle_r=2, lower_q=0.0, upper_q=1.0)
        assert report.fits["IIb"].slope == pytest.approx(0.7, abs=1e-9)

    def test_type_iii_from_histograms(self):
        rng = np.random.default_rng(7)
        samples = np.ceil(rng.random(20_000) ** -0.5).astype(np.int64)
        values, counts = np.unique(samples, return_counts=True)
        hist = dict(zip(values.tolist(), counts.tolist()))
        rows = [(0, 100, snapshot(100, len(samples), 0, hist, {0: len(samples)}))]
        report = classify(rows)
        assert report.fits["IIIa"] is not None
        assert -2.2 < report.fits["IIIa"].slope < -1.8
        # triangles are all zero here, so IIIb is marked unavailable
        assert report.fits["IIIb"] is None
        assert "IIIb" in report.notes

    def test_snapshot_selection(self):
        flat = {r: 100 for r in range(1, 30)}
        steep = {1: 2000, 2: 500, 3: 80, 4: 30, 5: 10, 6: 4, 7: 2}
        rows = [(0, 100, snapshot(100, 2626, 0, steep, {0: 1})),
                (0, 200, snapshot(200, 2900, 0, flat, {0: 1}))]
        default = classify(rows)          # picks the largest N, 200
        chosen = classify(rows, snapshot_n=100)
        assert default.fits["IIIa"].slope != chosen.fits["IIIa"].slope

    def test_insufficient_snapshots_marked_unavailable(self):
        rows = [(0, 10, snapshot(10, 5, 5, {2: 5}, {0: 5}))] * 3
        report = classify(rows)
        for label in ("I", "IIa", "IIb"):
            assert report.fits[label] is None
            assert "snapshots" in report.notes[label]
        assert report.type_i_class is None

    def test_zero_rows_dropped_with_note(self):
        rows = [(0, n, snapshot(n, v, v, {1: v}, {0: v}))
                for n, v in enumerate(range(10, 210, 10), start=1)]
        rows.append((0, 999, snapshot(999, 0, 0)))
        report = classify(rows, lower_q=0.0, upper_q=1.0)
        assert report.fits["I"] is not None
        assert "dropped 1" in report.notes["I"]

    def test_all_zero_rows_named_in_note(self):
        # no vertex lies in exactly one triangle, so IIb has no row to fit
        rows = [(0, n, snapshot(n, v, 2 * v, {1: v}, {0: v}))
                for n, v in enumerate(range(10, 130, 10), start=1)]
        report = classify(rows)
        assert report.fits["I"] is not None and report.fits["IIb"] is None
        assert report.notes["IIb"] == "dropped all 12 zero-valued snapshots"
        empty = classify([(3, n, snapshot(n, 0, 0)) for n in range(12)])
        for label in ("I", "IIa", "IIb", "I_replica3"):
            assert empty.fits[label] is None
            assert empty.notes[label] == "dropped all 12 zero-valued snapshots"

    def test_accepts_object_with_rows_attribute(self):
        class Holder:
            rows = [(0, n, snapshot(n, v, v * v, {2 * v: v}, {0: v}))
                    for n, v in enumerate(range(10, 210, 10), start=1)]

        report = classify(Holder())
        assert report.fits["I"] is not None

    def test_replica_fits_match_each_replica_alone(self):
        # replicas 5, 0 and 2 interleaved: two with their own slope (replica 0
        # also drops a zero row), one with too few snapshots for a fit
        rows = []
        for n, v in enumerate(range(10, 210, 10), start=1):
            rows.append((5, n, snapshot(n, v, v ** 1.3, {2: v}, {0: v})))
            rows.append((0, n, snapshot(n, v + 3, (v + 3) ** 1.8, {2: v}, {0: v})))
            if n <= 4:
                rows.append((2, n, snapshot(n, v, v, {2: v}, {0: v})))
        rows.append((0, 999, snapshot(999, 0, 0)))
        report = classify(rows, lower_q=0.0, upper_q=1.0)
        assert list(report.fits) == ["I", "IIa", "IIb", "IIIa", "IIIb",
                                     "I_replica0", "I_replica2", "I_replica5"]
        for r in (0, 2, 5):
            alone = classify([row for row in rows if row[0] == r], lower_q=0.0, upper_q=1.0)
            assert report.fits[f"I_replica{r}"] == alone.fits["I"]
        assert report.fits["I_replica2"] is None
        assert report.notes["I_replica2"] == "4 snapshots, need 10"
        # a present per-replica fit carries no note, even after dropping rows
        assert "dropped 1" in classify([row for row in rows if row[0] == 0]).notes["I"]
        assert "I_replica0" not in report.notes and "I_replica5" not in report.notes

    def test_tail_fit_from_counts_matches_expanded_samples(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        hists = st.lists(st.dictionaries(st.integers(0, 60), st.integers(1, 50),
                                         max_size=30), min_size=1, max_size=4)

        def expanded_fit(hists):
            """The type III fit from one sample per vertex, as a reference."""
            samples = np.concatenate([np.repeat(np.array(list(h), dtype=np.int64),
                                                list(h.values())) for h in hists])
            try:
                curve = ccdf(samples)
                keep = (curve.thresholds >= 1) & (curve.survival > 0.0)
                return fit_loglog(curve.thresholds[keep].astype(float),
                                  curve.survival[keep], 0.0, 0.8), None
            except FitError as exc:
                return None, str(exc)

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(hists)
        def check(hists):
            rows = [(r, 100, snapshot(100, 1, 0, h, {0: 1})) for r, h in enumerate(hists)]
            report = classify(rows, tail_lower_q=0.0, tail_upper_q=0.8)
            fit, error = expanded_fit(hists)
            assert report.fits["IIIa"] == fit
            if error is not None:
                assert report.notes["IIIa"] == error

        check()


class TestFitReports:
    def test_csv_and_json_mirror_identical_values(self, tmp_path):
        xs = np.arange(1.0, 40.0)
        fits = {"I": fit_loglog(xs, 2 * xs ** 1.4, 0.0, 1.0),
                "IIa": None,
                "E~V": fit_loglog(xs, 0.5 * xs ** 0.9, 0.1, 0.9)}
        csv_path, json_path = tmp_path / "fits.csv", tmp_path / "fits.json"
        write_fits_csv(fits, csv_path)
        write_fits_json(fits, json_path)

        lines = csv_path.read_text().splitlines()
        assert lines[0] == "type,slope,intercept,r2,n_points,lower_q,upper_q"
        assert len(lines) == 3  # None rows are omitted
        rows = [line.split(",") for line in lines[1:]]
        mirrored = json.loads(json_path.read_text())
        assert [r["type"] for r in mirrored] == [r[0] for r in rows]
        for csv_row, json_row in zip(rows, mirrored):
            assert float(csv_row[1]) == json_row["slope"]
            assert float(csv_row[2]) == json_row["intercept"]
            assert float(csv_row[3]) == json_row["r2"]
            assert int(csv_row[4]) == json_row["n_points"]
            assert float(csv_row[5]) == json_row["lower_q"]
            assert float(csv_row[6]) == json_row["upper_q"]
