"""Bootstrap engine, percentile intervals, uniform bands, two-group tests."""
from __future__ import annotations

import math

import numpy as np
import pytest

from itedist import (BootstrapConfig, NORMAL_QUARTILE_SPREAD,
                     ReplicationError, Sample, bootstrap_pseudo_ites, ci_cdf,
                     ci_prob_positive, ci_quantile_and_iqr, compare_quantiles,
                     draw_replicates, estimate_bounds, generate, make_grid,
                     percentile_interval, pseudo_ites, resample,
                     two_group_quantile_replicates, ucb_cdf_constant,
                     ucb_cdf_variable, ucb_quantile_constant,
                     ucb_quantile_variable, ucb_quantile_difference)
from itedist import test_distributions as distribution_test
from itedist._rng import derive_stream
from itedist.bootstrap_inference import _constant_band, _variable_band
from itedist.empirical_dist import Grid


def tiny_margin_sample(n_per_arm=2):
    y = np.arange(1.0, 2 * n_per_arm + 1)
    z = np.tile([0, 1], n_per_arm)
    d = np.tile([0, 1], n_per_arm)
    return Sample(outcomes=y, treatments=d, instruments=z,
                  covariates=np.zeros((2 * n_per_arm, 0), dtype=int))


def constant_outcome_sample(n=12, value=5.0):
    return Sample(outcomes=np.full(n, value), treatments=np.tile([0, 1], n // 2),
                  instruments=np.tile([0, 0, 1, 1], n // 4),
                  covariates=np.zeros((n, 0), dtype=int))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig(n_replications=1, seed=0)
        with pytest.raises(ValueError):
            BootstrapConfig(n_replications=10, seed=0, max_redraws=-1)

    def test_alpha_outside_unit_interval_rejected(self, bench_small, groups):
        gen, bounds = bench_small
        cfg = BootstrapConfig(n_replications=10, seed=0)
        reps = draw_replicates(gen.sample, bounds, cfg)
        values = make_grid("values", 0.5, 3.0, 5)
        levels = make_grid("levels", 0.25, 0.75, 5)   # holds 0.25, 0.5, 0.75
        s0, b0, s1, b1 = groups
        two = two_group_quantile_replicates(s0, s1, b0, b1, cfg, levels.points)
        products = [
            lambda a: percentile_interval([1.0, 2.0, 3.0], a),
            lambda a: ci_cdf(reps, a, 1.0),
            lambda a: ci_quantile_and_iqr(reps, a, 0.5),
            lambda a: ci_prob_positive(reps, a),
            lambda a: ucb_cdf_constant(reps, a, values),
            lambda a: ucb_cdf_variable(reps, a, values),
            lambda a: ucb_quantile_constant(reps, a, levels),
            lambda a: ucb_quantile_variable(reps, a, levels),
            lambda a: compare_quantiles(two, a, 0.5),
            *(lambda a, band=band: ucb_quantile_difference(two, a, levels, band=band)
              for band in ("constant", "variable", "one-sided-lower")),
            *(lambda a, h=h: distribution_test(two, a, levels, h)
              for h in ("equality", "location-shift", "dominance")),
        ]
        for alpha in (0.0, 1.0, 1.5, -0.1):
            for product in products:
                with pytest.raises(ValueError, match="alpha"):
                    product(alpha)


class TestNormalQuartileSpread:
    def test_against_normal_quantiles(self):
        from scipy.stats import norm
        spread = norm.ppf(0.75) - norm.ppf(0.25)
        assert abs(NORMAL_QUARTILE_SPREAD - spread) < 1e-12


class TestPercentileInterval:
    def test_rank_arithmetic(self):
        # B=4, level 0.5: ranks ceil(1)=1 and ceil(3)=3
        assert percentile_interval([1.0, 2.0, 3.0, 4.0], 0.5) == (1.0, 3.0)

    def test_endpoints_are_order_statistics(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=33)
        alpha = 0.08
        lo, hi = percentile_interval(values, alpha)
        srt = np.sort(values)
        assert lo == srt[math.ceil(33 * alpha / 2) - 1]
        assert hi == srt[math.ceil(33 * (1 - alpha / 2)) - 1]

    def test_nestedness(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=200)
        lo1, hi1 = percentile_interval(values, 0.01)
        lo2, hi2 = percentile_interval(values, 0.10)
        assert lo1 <= lo2 and hi2 <= hi1


class TestResample:
    def test_single_row(self):
        s = Sample(outcomes=[3.0], treatments=[1], instruments=[0],
                   covariates=np.zeros((1, 0), dtype=int))
        out = resample(s, derive_stream(0, 0))
        assert out.n == 1 and out.outcomes[0] == 3.0

    def test_deterministic_given_stream(self, bench_small):
        gen, _ = bench_small
        a = resample(gen.sample, derive_stream(9, 5))
        b = resample(gen.sample, derive_stream(9, 5))
        assert np.array_equal(a.outcomes, b.outcomes)
        c = resample(gen.sample, derive_stream(9, 6))
        assert not np.array_equal(a.outcomes, c.outcomes)

    def test_omitted_fraction_near_inverse_e(self):
        gen = generate(1000, derive_stream(123, 0))
        fractions = []
        for r in range(100):
            draw = resample(gen.sample, derive_stream(7, r))
            omitted = 1000 - len(np.unique(np.searchsorted(
                np.sort(gen.sample.outcomes), draw.outcomes)))
            fractions.append(omitted / 1000)
        assert abs(np.mean(fractions) - math.exp(-1)) < 0.01


class TestBootstrapPseudoItes:
    def test_identity_resample_reproduces_estimates(self, bench_small):
        gen, bounds = bench_small
        base = pseudo_ites(gen.sample, bounds)
        identity = gen.sample.take(np.arange(gen.sample.n))
        again = pseudo_ites(identity, bounds)
        assert np.array_equal(base.values, again.values)

    def test_deterministic_per_replication(self, bench_small):
        gen, bounds = bench_small
        cfg = BootstrapConfig(n_replications=5, seed=3)
        a = bootstrap_pseudo_ites(gen.sample, bounds, cfg, 2)
        b = bootstrap_pseudo_ites(gen.sample, bounds, cfg, 2)
        assert np.array_equal(a.values, b.values)

    def test_replication_index_validated(self, bench_small):
        gen, bounds = bench_small
        cfg = BootstrapConfig(n_replications=5, seed=3)
        with pytest.raises(ValueError):
            bootstrap_pseudo_ites(gen.sample, bounds, cfg, 5)

    def test_degenerate_with_no_redraws_errors(self):
        s = tiny_margin_sample(2)   # margins (2, 2): most resamples degenerate
        bounds = estimate_bounds(s)
        cfg = BootstrapConfig(n_replications=20, seed=0, max_redraws=0)
        failures = successes = 0
        for r in range(20):
            try:
                bootstrap_pseudo_ites(s, bounds, cfg, r)
                successes += 1
            except ReplicationError as err:
                assert err.attempts == 1
                failures += 1
        assert failures > 0 and successes > 0

    def test_redraws_recover_and_are_counted(self):
        s = tiny_margin_sample(2)
        bounds = estimate_bounds(s)
        cfg = BootstrapConfig(n_replications=30, seed=0, max_redraws=200)
        reps = draw_replicates(s, bounds, cfg)
        assert reps.redraws > 0
        assert reps.sorted_values.shape == (30, 4)


class TestIntervals:
    def test_degenerate_interval_on_constant_sample(self):
        s = constant_outcome_sample()
        bounds = estimate_bounds(s)
        reps = draw_replicates(s, bounds, BootstrapConfig(n_replications=25, seed=1))
        interval = ci_cdf(reps, 0.05, v=-0.5)
        assert interval.lo == interval.hi == 0.0
        interval = ci_cdf(reps, 0.05, v=0.0)
        assert interval.lo == interval.hi == 1.0   # all effects are exactly 0

    def test_cdf_interval_in_unit_range(self, bench_small):
        gen, bounds = bench_small
        cfg = BootstrapConfig(n_replications=40, seed=2)
        reps = draw_replicates(gen.sample, bounds, cfg)
        for v in (-1.0, 0.5, 2.0, 5.0):
            out = ci_cdf(reps, 0.05, v)
            assert 0.0 <= out.lo <= out.hi <= 1.0

    def test_endpoints_bit_identical_to_order_statistics(self, bench_small):
        gen, bounds = bench_small
        cfg = BootstrapConfig(n_replications=37, seed=5)
        reps = draw_replicates(gen.sample, bounds, cfg)
        q_int, iqr_int = ci_quantile_and_iqr(reps, 0.1, 0.5)
        n = reps.n
        stats = np.sort(reps.sorted_values[:, math.ceil(0.5 * n) - 1])
        assert q_int.lo == stats[math.ceil(37 * 0.05) - 1]
        assert q_int.hi == stats[math.ceil(37 * 0.95) - 1]
        assert iqr_int.lo >= 0.0   # replication IQRs are nonnegative

    def test_prob_positive_interval(self, bench_small):
        gen, bounds = bench_small
        cfg = BootstrapConfig(n_replications=30, seed=6)
        out = ci_prob_positive(draw_replicates(gen.sample, bounds, cfg), 0.05)
        assert out.target == "prob-positive"
        assert 0.0 <= out.lo <= out.hi <= 1.0

    def test_alpha_nestedness_on_shared_replicates(self, bench_small):
        gen, bounds = bench_small
        cfg = BootstrapConfig(n_replications=60, seed=7)
        reps = draw_replicates(gen.sample, bounds, cfg)
        wide = ci_cdf(reps, 0.02, 2.0)
        narrow = ci_cdf(reps, 0.2, 2.0)
        assert wide.lo <= narrow.lo and narrow.hi <= wide.hi


class TestBands:
    def test_single_replication_sup_formula(self):
        grid = Grid(kind="values", points=np.array([0.0, 1.0, 2.0]))
        center = np.array([0.1, 0.5, 0.9])
        boot = np.array([[0.3, 0.45, 0.7]])
        band = _constant_band("cdf", grid, center, boot, alpha=0.05,
                              b_used=1, redraws=0)
        assert band.critical_value == pytest.approx(0.2)
        assert np.all(band.half_width == band.critical_value)

    def test_band_may_exceed_unit_interval_unclipped(self, bench_small):
        gen, bounds = bench_small
        grid = make_grid("values", 1e-3, 3.9, 25)
        cfg = BootstrapConfig(n_replications=30, seed=8)
        band = ucb_cdf_constant(draw_replicates(gen.sample, bounds, cfg), 0.05, grid)
        lower_edge = band.center - band.half_width
        upper_edge = band.center + band.half_width
        assert lower_edge.min() < 0.0 or upper_edge.max() > 1.0

    def test_requires_matching_grid_kind(self, bench_small):
        gen, bounds = bench_small
        reps = draw_replicates(gen.sample, bounds,
                               BootstrapConfig(n_replications=20, seed=9))
        levels = make_grid("levels", 0.2, 0.8, 5)
        values = make_grid("values", 0.5, 3.0, 5)
        with pytest.raises(ValueError, match="values"):
            ucb_cdf_constant(reps, 0.05, levels)
        with pytest.raises(ValueError, match="values"):
            ucb_cdf_variable(reps, 0.05, levels)
        with pytest.raises(ValueError, match="levels"):
            ucb_quantile_constant(reps, 0.05, values)
        with pytest.raises(ValueError, match="levels"):
            ucb_quantile_variable(reps, 0.05, values)

    def test_uniform_radius_dominates_pointwise(self, bench_small):
        gen, bounds = bench_small
        grid = make_grid("levels", 0.25, 0.75, 11)
        cfg = BootstrapConfig(n_replications=50, seed=10)
        reps = draw_replicates(gen.sample, bounds, cfg)
        band = ucb_quantile_constant(reps, 0.05, grid)
        boot = reps.sorted_values[:, np.ceil(grid.points * reps.n).astype(int) - 1]
        point = reps.point_sorted[np.ceil(grid.points * reps.n).astype(int) - 1]
        for j in range(grid.size):
            pointwise = np.sort(np.abs(boot[:, j] - point[j]))[math.ceil(50 * 0.95) - 1]
            assert band.critical_value >= pointwise

    def test_variable_equals_constant_when_spread_uniform(self):
        grid = Grid(kind="levels", points=np.array([0.3, 0.5, 0.7]))
        center = np.array([1.0, 2.0, 3.0])
        rng = np.random.default_rng(3)
        noise = rng.normal(0, 0.4, size=(100, 1))
        boot = center[None, :] + noise          # same draw at every grid point
        constant = _constant_band("quantile", grid, center, boot, 0.1, 100, 0)
        variable = _variable_band("quantile", grid, center, boot, 0.1, 1.0, 100, 0)
        assert np.allclose(variable.half_width, constant.half_width, rtol=1e-12)

    def test_studentizer_floor_warns_on_constant_sample(self):
        s = constant_outcome_sample()
        bounds = estimate_bounds(s)
        grid = make_grid("levels", 0.3, 0.7, 5)
        reps = draw_replicates(s, bounds, BootstrapConfig(n_replications=20, seed=11))
        with pytest.warns(RuntimeWarning, match="floored"):
            band = ucb_quantile_variable(reps, 0.05, grid)
        assert np.all(band.half_width == 0.0)

    def test_cdf_variable_band_runs(self, bench_small):
        gen, bounds = bench_small
        grid = make_grid("values", 0.1, 3.5, 20)
        cfg = BootstrapConfig(n_replications=40, seed=12)
        band = ucb_cdf_variable(draw_replicates(gen.sample, bounds, cfg), 0.05, grid)
        assert band.kind == "two-sided-variable"
        assert np.all(band.half_width >= 0.0)

    def test_translation_equivariance_same_seed(self):
        gen = generate(200, derive_stream(30, 0))
        y = np.round(gen.sample.outcomes * 2 ** 20) / 2 ** 20
        base = Sample(outcomes=y, treatments=gen.sample.treatments,
                      instruments=gen.sample.instruments,
                      covariates=gen.sample.covariates)
        shifted = Sample(outcomes=y + 3.0, treatments=base.treatments,
                         instruments=base.instruments, covariates=base.covariates)
        grid = make_grid("levels", 0.3, 0.7, 9)
        cfg = BootstrapConfig(n_replications=40, seed=13)
        band0 = ucb_quantile_constant(
            draw_replicates(base, estimate_bounds(base), cfg), 0.05, grid)
        band1 = ucb_quantile_constant(
            draw_replicates(shifted, estimate_bounds(shifted), cfg), 0.05, grid)
        # effects are outcome differences, so a pure shift changes nothing
        assert np.array_equal(band0.center, band1.center)
        assert band0.critical_value == band1.critical_value

    def test_determinism_across_threads(self, bench_small):
        gen, bounds = bench_small
        cfg = BootstrapConfig(n_replications=24, seed=14)
        serial = draw_replicates(gen.sample, bounds, cfg, threads=1)
        pooled = draw_replicates(gen.sample, bounds, cfg, threads=4)
        assert np.array_equal(serial.sorted_values, pooled.sorted_values)
        assert serial.redraws == pooled.redraws


@pytest.fixture(scope="module")
def groups():
    g0 = generate(150, derive_stream(40, 0))
    g1 = generate(170, derive_stream(40, 1))
    return (g0.sample, estimate_bounds(g0.sample),
            g1.sample, estimate_bounds(g1.sample))


class TestTwoGroup:
    def test_coupled_identical_groups_zero(self, groups):
        s0, b0, _, _ = groups
        grid = make_grid("levels", 0.2, 0.8, 7)
        cfg = BootstrapConfig(n_replications=30, seed=15)
        reps = two_group_quantile_replicates(s0, s0, b0, b0, cfg, grid.points,
                                             couple_streams=True)
        assert np.all(reps.delta == 0.0) and np.all(reps.delta_boot == 0.0)
        d_int, s_int = compare_quantiles(
            two_group_quantile_replicates(s0, s0, b0, b0, cfg, [0.25, 0.5, 0.75],
                                          couple_streams=True), 0.05, 0.5)
        assert (d_int.lo, d_int.hi) == (0.0, 0.0)
        assert (s_int.lo, s_int.hi) == (0.0, 0.0)
        for hypothesis in ("equality", "location-shift", "dominance"):
            result = distribution_test(reps, 0.05, grid, hypothesis)
            assert not result.reject     # 0 > 0 is false: accept

    def test_interval_targets(self, groups):
        s0, b0, s1, b1 = groups
        cfg = BootstrapConfig(n_replications=40, seed=16)
        reps = two_group_quantile_replicates(s0, s1, b0, b1, cfg, [0.25, 0.5, 0.75])
        d_int, s_int = compare_quantiles(reps, 0.05, 0.5)
        assert d_int.target == "quantile-difference" and d_int.at == 0.5
        assert s_int.target == "iqr-difference"
        assert d_int.lo <= d_int.hi

    def test_band_kinds(self, groups):
        s0, b0, s1, b1 = groups
        grid = make_grid("levels", 0.2, 0.8, 7)
        cfg = BootstrapConfig(n_replications=40, seed=17)
        reps = two_group_quantile_replicates(s0, s1, b0, b1, cfg, grid.points)
        for kind, expected in (("constant", "two-sided-constant"),
                               ("variable", "two-sided-variable"),
                               ("one-sided-lower", "one-sided-lower")):
            band = ucb_quantile_difference(reps, 0.05, grid, band=kind)
            assert band.kind == expected
        values = make_grid("values", 0.2, 0.8, 7)
        with pytest.raises(ValueError, match="levels"):
            ucb_quantile_difference(reps, 0.05, values)
        with pytest.raises(ValueError, match="levels"):
            distribution_test(reps, 0.05, values, "equality")

    def test_outcome_shift_leaves_decisions_unchanged(self):
        # a location shift of the outcome cancels from every effect, so no
        # statistic moves at all (exact on a binary grid)
        g0 = generate(140, derive_stream(41, 0))
        g1 = generate(160, derive_stream(41, 1))
        y1 = np.round(g1.sample.outcomes * 2 ** 20) / 2 ** 20
        s1 = Sample(outcomes=y1, treatments=g1.sample.treatments,
                    instruments=g1.sample.instruments,
                    covariates=g1.sample.covariates)
        s1_shift = Sample(outcomes=y1 + 3.0, treatments=s1.treatments,
                          instruments=s1.instruments, covariates=s1.covariates)
        s0 = g0.sample
        b0 = estimate_bounds(s0)
        grid = make_grid("levels", 0.2, 0.8, 7)
        cfg = BootstrapConfig(n_replications=30, seed=18)
        base_reps = two_group_quantile_replicates(s0, s1, b0, estimate_bounds(s1),
                                                  cfg, grid.points)
        moved_reps = two_group_quantile_replicates(s0, s1_shift, b0,
                                                   estimate_bounds(s1_shift),
                                                   cfg, grid.points)
        for hypothesis in ("equality", "location-shift"):
            base = distribution_test(base_reps, 0.05, grid, hypothesis)
            moved = distribution_test(moved_reps, 0.05, grid, hypothesis)
            assert base.statistic == moved.statistic
            assert base.critical_value == moved.critical_value

    def test_injected_shift_separates_hypotheses(self, groups):
        s0, b0, _, _ = groups
        grid = make_grid("levels", 0.2, 0.8, 7)
        cfg = BootstrapConfig(n_replications=60, seed=19)
        reps = two_group_quantile_replicates(s0, s0, b0, b0, cfg, grid.points,
                                             ite_shift=2.5)
        equality = distribution_test(reps, 0.05, grid, "equality")
        shift = distribution_test(reps, 0.05, grid, "location-shift")
        assert equality.reject       # pure location alternative
        assert not shift.reject      # removed by centering

    def test_two_group_determinism_across_threads(self, groups):
        s0, b0, s1, b1 = groups
        grid = make_grid("levels", 0.3, 0.7, 5)
        cfg = BootstrapConfig(n_replications=20, seed=20)
        a = two_group_quantile_replicates(s0, s1, b0, b1, cfg, grid.points,
                                          threads=1)
        b = two_group_quantile_replicates(s0, s1, b0, b1, cfg, grid.points,
                                          threads=3)
        assert np.array_equal(a.boot0, b.boot0)
        assert np.array_equal(a.boot1, b.boot1)

    def test_reject_flag_consistency(self, groups):
        s0, b0, s1, b1 = groups
        grid = make_grid("levels", 0.2, 0.8, 7)
        cfg = BootstrapConfig(n_replications=30, seed=21)
        reps = two_group_quantile_replicates(s0, s1, b0, b1, cfg, grid.points)
        result = distribution_test(reps, 0.05, grid, "dominance")
        assert result.reject == (result.statistic > result.critical_value)

    def test_unknown_hypothesis(self, groups):
        s0, b0, s1, b1 = groups
        grid = make_grid("levels", 0.2, 0.8, 5)
        cfg = BootstrapConfig(n_replications=20, seed=22)
        reps = two_group_quantile_replicates(s0, s1, b0, b1, cfg, grid.points)
        with pytest.raises(ValueError, match="hypothesis"):
            distribution_test(reps, 0.05, grid, "misc")
