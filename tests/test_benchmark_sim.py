"""Benchmark generator, closed-form oracle, theory variance, coverage harness."""
from __future__ import annotations

import csv
import dataclasses

import numpy as np
import pytest
from scipy.stats import norm

from itedist import (DgpConfig, DgpOracle, Sample, StudyTarget, TheoryVariance,
                     gaussian_diagnostic, generate, make_grid, naive_ci_cdf,
                     run_coverage, theory_variance, true_ites)
from itedist._rng import derive_stream
from itedist.benchmark_sim import (GeneratedSample, write_coverage_csv,
                                   write_diagnostic_csv,
                                   write_variance_profile_csv)


class TestGenerate:
    def test_every_instrumented_row_is_treated(self):
        for rep in range(5):
            gen = generate(400, derive_stream(1, rep))
            z1 = gen.sample.instruments == 1
            assert np.all(gen.sample.treatments[z1] == 1)

    def test_untreated_share_without_instrument(self):
        gen = generate(10_000, derive_stream(2, 0))
        z0 = gen.sample.instruments == 0
        assert gen.sample.treatments[z0].mean() == pytest.approx(0.5, abs=0.02)

    def test_outcome_formula(self):
        gen = generate(500, derive_stream(3, 0))
        expected = (gen.outcome_rank + 1.0) ** (2 + gen.sample.treatments)
        assert np.allclose(gen.sample.outcomes, expected, rtol=0, atol=0)

    def test_single_cell(self):
        assert generate(10, derive_stream(4, 0)).sample.cells == [()]

    def test_deterministic(self):
        a = generate(100, derive_stream(5, 1)).sample.outcomes
        b = generate(100, derive_stream(5, 1)).sample.outcomes
        assert np.array_equal(a, b)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DgpConfig(latent_correlation=1.0)
        with pytest.raises(ValueError):
            DgpConfig(instrument_prob=0.0)
        with pytest.raises(ValueError):
            generate(0, derive_stream(0, 0))


class TestTrueItes:
    def test_formula_endpoints(self):
        sample = Sample(outcomes=[1.0, 8.0], treatments=[0, 1], instruments=[0, 1],
                        covariates=np.zeros((2, 0), dtype=int))
        gen = GeneratedSample(sample=sample,
                              outcome_rank=np.array([0.0, 1.0]),
                              selection_rank=np.array([0.5, 0.5]),
                              config=DgpConfig())
        assert true_ites(gen).tolist() == [0.0, 4.0]

    def test_midpoint(self):
        oracle = DgpOracle()
        assert float(oracle.ite(0.5)) == pytest.approx(1.125, abs=1e-15)

    def test_support(self):
        gen = generate(5000, derive_stream(6, 0))
        effects = true_ites(gen)
        assert effects.min() >= 0.0 and effects.max() <= 4.0

    def test_rejects_plain_samples(self):
        gen = generate(10, derive_stream(7, 0))
        with pytest.raises(TypeError):
            true_ites(gen.sample)


class TestOracle:
    oracle = DgpOracle()

    def test_quantile_values(self):
        assert self.oracle.quantile(0.5) == pytest.approx(1.125, abs=1e-12)
        assert self.oracle.quantile(0.25) == pytest.approx(0.390625, abs=1e-12)
        assert self.oracle.quantile(0.75) == pytest.approx(2.296875, abs=1e-12)

    def test_cdf_quantile_inverse_pair(self):
        taus = np.linspace(0.01, 0.99, 197)
        assert np.max(np.abs(self.oracle.cdf(self.oracle.quantile(taus)) - taus)) < 1e-10

    def test_ite_inverse_roundtrip(self):
        values = np.linspace(0.0, 4.0, 157)
        assert np.max(np.abs(self.oracle.ite(self.oracle.ite_inverse(values))
                             - values)) < 1e-10

    def test_cdf_outside_support(self):
        assert self.oracle.cdf(-1.0) == 0.0
        assert self.oracle.cdf(4.0) == 1.0
        assert self.oracle.cdf(9.0) == 1.0

    def test_density_form(self):
        taus = np.linspace(0.05, 0.95, 19)
        expected = 1.0 / ((1.0 + taus) * (1.0 + 3.0 * taus))
        assert np.allclose(self.oracle.density(self.oracle.quantile(taus)),
                           expected, atol=1e-10)
        assert self.oracle.density(5.0) == 0.0

    def test_counterfactual_maps_compose(self):
        y = np.linspace(1.0, 8.0, 29)
        assert np.allclose(self.oracle.map_to_treated(self.oracle.map_to_control(y)),
                           y, atol=1e-10)
        assert self.oracle.map_to_treated(2.25) == pytest.approx(3.375, abs=1e-12)

    def test_outcome_bounds(self):
        assert self.oracle.outcome_bounds(0) == (1.0, 4.0)
        assert self.oracle.outcome_bounds(1) == (1.0, 8.0)


class TestTheoryVariance:
    def test_sampling_component_closed_form(self):
        taus = np.linspace(0.05, 0.95, 37)
        closed = taus * (1 - taus) * (1 + taus) ** 2 * (1 + 3 * taus) ** 2
        theory = TheoryVariance()
        got = np.array([theory.quantile_sampling(t) for t in taus])
        assert np.max(np.abs(got - closed)) < 1e-8

    def test_known_values(self):
        v1, _ = theory_variance(0.5)
        assert v1 == pytest.approx(3.515625, abs=1e-12)
        v1_quarter, _ = theory_variance(0.25)
        assert v1_quarter == pytest.approx(0.89721680, abs=1e-7)

    def test_estimation_component_dominates(self):
        for tau in np.linspace(0.1, 0.9, 33):
            v1, v2 = theory_variance(float(tau))
            assert v2 > v1

    def test_components_positive(self):
        for tau in (0.1, 0.5, 0.9):
            v1, v2 = theory_variance(tau)
            assert v1 > 0.0 and v2 > 0.0

    def test_level_validation(self):
        with pytest.raises(ValueError):
            theory_variance(0.0)


class TestNaiveCi:
    def test_normal_arithmetic(self):
        values = np.concatenate([np.full(50, -1.0), np.full(50, 2.0)])
        out = naive_ci_cdf(values, 0.5, alpha=0.05)
        half = norm.ppf(0.975) * np.sqrt(0.25 / 100)
        assert out.lo == pytest.approx(0.5 - half, abs=1e-12)
        assert out.hi == pytest.approx(0.5 + half, abs=1e-12)
        assert half == pytest.approx(1.959964 * 0.05, abs=1e-6)

    def test_degenerate_at_extremes(self):
        values = np.array([1.0, 2.0, 3.0])
        assert naive_ci_cdf(values, 0.0, 0.05).length == 0.0
        assert naive_ci_cdf(values, 9.0, 0.05).length == 0.0


class TestGaussianDiagnostic:
    def test_structure(self):
        diag = gaussian_diagnostic(0.5, n=150, reps=40, seed=77, bins=12)
        assert diag.estimates.shape == (40,)
        assert diag.bin_counts.sum() == 40
        assert np.isfinite(diag.mean) and np.isfinite(diag.variance)

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            gaussian_diagnostic(0.5, n=100, reps=10, seed=0)


class TestRunCoverage:
    def test_deterministic_reports(self):
        targets = [StudyTarget(kind="cdf-ci", v=2.0),
                   StudyTarget(kind="cdf-ci-naive", v=2.0)]
        a = run_coverage(targets, n=120, reps=6, levels=[0.9], b=20, seed=31)
        b = run_coverage(targets, n=120, reps=6, levels=[0.9], b=20, seed=31,
                         threads=3)
        assert [dataclasses.asdict(r) for r in a] == [dataclasses.asdict(r) for r in b]

    def test_report_fields(self):
        reports = run_coverage([StudyTarget(kind="quantile-ci", tau=0.5)],
                               n=120, reps=5, levels=[0.9, 0.95], b=20, seed=32)
        assert len(reports) == 2
        for report in reports:
            assert 0.0 <= report.coverage <= 1.0
            assert report.mc_se == pytest.approx(
                np.sqrt(report.coverage * (1 - report.coverage) / report.reps))
            assert report.n == 120 and report.reps == 5

    def test_band_targets_run(self):
        grid_v = make_grid("values", 0.1, 3.8, 15)
        grid_t = make_grid("levels", 0.25, 0.75, 7)
        targets = [StudyTarget(kind="cdf-band", grid=grid_v, band="constant"),
                   StudyTarget(kind="cdf-band-interpolated", grid=grid_v),
                   StudyTarget(kind="quantile-band", grid=grid_t, band="variable"),
                   StudyTarget(kind="iqr-ci"),
                   StudyTarget(kind="prob-positive-ci")]
        reports = run_coverage(targets, n=150, reps=4, levels=[0.9], b=20, seed=33)
        assert len(reports) == 5
        assert all(np.isfinite(r.avg_length) for r in reports)

    # At B=20 the variable band's studentizer is floored in the grid's tails.
    @pytest.mark.filterwarnings("ignore:bootstrap spread:RuntimeWarning")
    def test_table2_scores_each_sample_once_per_grid(self, monkeypatch):
        # The table2 targets share one value grid; neither the replications'
        # CDF curves nor the truth depend on the level.
        from itedist import bootstrap_inference
        curves, grid_truths = [], []
        cdf_at, cdf = bootstrap_inference.cdf_at, DgpOracle.cdf

        def counted_cdf_at(sorted_values, points):
            if np.ndim(sorted_values) == 2:
                curves.append(points)
            return cdf_at(sorted_values, points)

        def counted_cdf(self, v):
            if np.ndim(v):
                grid_truths.append(v)
            return cdf(self, v)

        monkeypatch.setattr(bootstrap_inference, "cdf_at", counted_cdf_at)
        monkeypatch.setattr(DgpOracle, "cdf", counted_cdf)
        grid = make_grid("values", 0.04, 3.96, 393)
        targets = [StudyTarget(kind="cdf-band", grid=grid, band="constant"),
                   StudyTarget(kind="cdf-band", grid=grid, band="variable"),
                   StudyTarget(kind="cdf-band-interpolated", grid=grid)]
        reports = run_coverage(targets, n=150, reps=3, levels=[0.9, 0.95, 0.99],
                               b=20, seed=34)
        assert all(r.failures == 0 for r in reports)
        assert len(curves) == 3
        assert len(grid_truths) <= len(targets)

    @pytest.mark.filterwarnings("ignore:bootstrap spread:RuntimeWarning")
    def test_band_draws_and_column_sorts_once_per_set_grid_and_kind(self):
        # Over three levels, each sample's replicate set builds each band
        # kind's sup-statistic draws once per grid and sorts each grid's
        # replication curves down their columns once (the variable band and
        # the interpolated band share that sort), and sorts its rows once.
        from unittest import mock

        from itedist import bootstrap_inference, data_model
        values = make_grid("values", 0.04, 3.96, 393)
        levels = make_grid("levels", 0.05, 0.95, 91)
        targets = [StudyTarget(kind="cdf-band", grid=values, band="constant"),
                   StudyTarget(kind="cdf-band", grid=values, band="variable"),
                   StudyTarget(kind="cdf-band-interpolated", grid=values),
                   StudyTarget(kind="quantile-band", grid=levels, band="constant"),
                   StudyTarget(kind="quantile-band", grid=levels, band="variable")]
        sort = np.sort
        column_sorts = []

        def counted_sort(a, axis=-1, **kwargs):
            if axis == 0:
                column_sorts.append(np.shape(a))
            return sort(a, axis=axis, **kwargs)

        with mock.patch.object(bootstrap_inference, "_band_draws",
                               wraps=bootstrap_inference._band_draws) as draws, \
                mock.patch.object(data_model, "_row_order",
                                  wraps=data_model._row_order) as row_order, \
                mock.patch.object(np, "sort", counted_sort):
            reports = run_coverage(targets, n=150, reps=3, levels=[0.9, 0.95, 0.99],
                                   b=20, seed=34)
        assert all(r.failures == 0 for r in reports)
        kinds = sorted((call.args[0], call.args[2].shape[1])
                       for call in draws.call_args_list)
        assert kinds == sorted([("two-sided-constant", 393), ("two-sided-variable", 393),
                                ("two-sided-constant", 91), ("two-sided-variable", 91)] * 3)
        assert sorted(column_sorts) == sorted([(20, 393), (20, 91)] * 3)
        assert row_order.call_count == 3

    def test_target_validation(self):
        with pytest.raises(ValueError):
            StudyTarget(kind="cdf-ci")            # missing v
        with pytest.raises(ValueError):
            StudyTarget(kind="quantile-band", grid=make_grid("values", 0, 1, 5))
        with pytest.raises(ValueError):
            StudyTarget(kind="nope")


class TestCsvWriters:
    def test_coverage_csv_layout(self, tmp_path):
        reports = run_coverage([StudyTarget(kind="cdf-ci", v=2.0)],
                               n=100, reps=4, levels=[0.9, 0.95], b=20, seed=34)
        path = tmp_path / "coverage.csv"
        write_coverage_csv(reports, path)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["target", "n", "reps", "bootstrap", "failures",
                           "cp_0.9", "cp_0.95", "len_0.9", "len_0.95"]
        assert rows[1][0] == "cdf-ci@v=2"

    def test_variance_profile_csv(self, tmp_path):
        path = tmp_path / "profile.csv"
        write_variance_profile_csv(path, taus=np.linspace(0.2, 0.8, 5))
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["tau", "quantile_var_sampling", "quantile_var_estimation"]
        assert len(rows) == 6
        mid = rows[3]
        assert float(mid[1]) == pytest.approx(3.515625)

    def test_diagnostic_csv(self, tmp_path):
        diag = gaussian_diagnostic(0.5, n=120, reps=35, seed=35, bins=8)
        path = tmp_path / "diag.csv"
        write_diagnostic_csv(diag, path)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        sections = {row[0] for row in rows[1:]}
        assert sections == {"draw", "bin"}
        assert sum(1 for row in rows[1:] if row[0] == "draw") == 35
