"""Empirical CDF, order-statistic quantiles, IQR, grids."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itedist import ecdf, iqr, make_grid, order_statistics, prob_positive, quantile
from itedist.empirical_dist import Grid, default_value_grid

values_arrays = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False, width=64),
    min_size=1, max_size=60).map(np.array)


class TestEcdf:
    def test_ties_counted(self):
        f = ecdf(np.array([1.0, 2.0, 2.0, 5.0]))
        assert f(2.0) == 0.75

    def test_boundaries(self):
        f = ecdf(np.array([1.0, 2.0, 3.0]))
        assert f(0.5) == 0.0
        assert f(3.0) == 1.0
        assert f(99.0) == 1.0

    def test_right_continuous_steps(self):
        f = ecdf(np.array([1.0, 2.0]))
        assert f(1.0) == 0.5 and f(np.nextafter(1.0, 0.0)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ecdf(np.array([]))

    def test_benchmark_true_effects_at_median(self):
        from itedist import generate, true_ites
        from itedist._rng import derive_stream
        gen = generate(10_000, derive_stream(4242, 0))
        f = ecdf(true_ites(gen))
        assert f(1.125) == pytest.approx(0.5, abs=0.015)   # 3 binomial sds


class TestQuantile:
    def test_order_statistic(self):
        assert quantile(np.array([3.0, 1.0, 2.0]), 0.5) == 2.0

    def test_integer_boundary(self):
        assert quantile(np.array([3.0, 1.0, 2.0]), 1 / 3) == 1.0

    def test_level_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                quantile(np.array([1.0]), bad)

    @given(values_arrays, st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=80, deadline=None)
    def test_galois_identity(self, values, tau):
        q = quantile(values, tau)
        f = ecdf(values)
        # smallest data value whose CDF reaches tau
        eligible = sorted(v for v in values if f(v) >= tau)
        assert q == eligible[0]
        assert f(q) >= tau
        assert all(f(v) < tau for v in values if v < q)

    @given(values_arrays, st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, values, t1, t2):
        lo, hi = sorted((t1, t2))
        assert quantile(values, lo) <= quantile(values, hi)

    def test_ceiling_semantics(self):
        values = np.arange(1.0, 11.0)
        for tau in (0.05, 0.1, 0.1000001, 0.25, 0.3, 0.999):
            assert quantile(values, tau) == values[math.ceil(tau * 10) - 1]


class TestOrderStatistics:
    def test_matches_ceiling_rank_oracle(self):
        rng = np.random.default_rng(1419)
        for _ in range(150):
            n = int(rng.integers(1, 10_001))
            # Random levels, rank boundaries k / n and the floats just below them.
            k = rng.integers(1, n + 1, size=3) / n
            levels = (1.0 - rng.uniform(size=3)).tolist() + k.tolist() + [
                float(np.nextafter(x, 0.0)) for x in k]
            ranks = [math.ceil(p * n) - 1 for p in levels]
            row = np.sort(rng.normal(size=n))
            for p, rank in zip(levels, ranks):
                assert order_statistics(row, p) == row[rank]
            assert np.array_equal(order_statistics(row, tuple(levels)), row[ranks])
            rows = np.sort(rng.normal(size=(3, n)), axis=-1)
            assert np.array_equal(order_statistics(rows, tuple(levels)), rows[:, ranks])
            assert np.array_equal(order_statistics(rows, levels[0]), rows[:, ranks[0]])
            cols = np.sort(rng.normal(size=(n, 3)), axis=0)
            assert np.array_equal(order_statistics(cols, tuple(levels), axis=0),
                                  cols[ranks, :])
            assert np.array_equal(order_statistics(cols, levels[0], axis=0),
                                  cols[ranks[0], :])

    def test_levels_outside_unit_interval_rejected(self):
        # rank ceil(0 * n) = 0 would read the largest value through index -1
        for bad in (0.0, -0.1, 1.5, float("nan"), (0.5, 0.0)):
            with pytest.raises(ValueError):
                order_statistics(np.arange(1.0, 5.0), bad)
        assert order_statistics(np.arange(1.0, 5.0), 1.0) == 4.0


class TestCallableForms:
    def test_ecdf_vectorized(self):
        f = ecdf(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(f(np.array([0.0, 1.5, 3.0])), [0.0, 1 / 3, 1.0])


class TestIqr:
    def test_constant_vector(self):
        assert iqr(np.full(7, 3.3)) == 0.0

    def test_four_values(self):
        assert iqr(np.array([1.0, 2.0, 3.0, 4.0])) == 2.0   # Q(.75)=3, Q(.25)=1

    @given(values_arrays)
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, values):
        assert iqr(values) >= 0.0

    def test_benchmark_truth(self):
        from itedist import DgpOracle
        assert DgpOracle().iqr() == pytest.approx(1.90625, abs=1e-12)


class TestProbPositive:
    def test_zero_counts_as_nonpositive(self):
        assert prob_positive(np.array([-1.0, 0.0, 2.0])) == pytest.approx(1 / 3)

    def test_all_positive(self):
        assert prob_positive(np.array([0.5, 1.0])) == 1.0


class TestGrid:
    def test_level_grid(self):
        grid = make_grid("levels", 0.1, 0.9, 5)
        assert np.allclose(grid.points, [0.1, 0.3, 0.5, 0.7, 0.9], atol=1e-12)
        assert grid.points[0] == 0.1 and grid.points[-1] == 0.9

    def test_study_value_grid_size(self):
        # 0.01 spacing over [0.04, 3.96] takes 393 points
        grid = make_grid("values", 0.04, 3.96, 393)
        assert grid.size == 393
        assert np.allclose(np.diff(grid.points), 0.01, atol=1e-12)

    def test_two_points(self):
        grid = make_grid("values", -1.0, 2.0, 2)
        assert grid.points.tolist() == [-1.0, 2.0]

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            make_grid("values", 2.0, 1.0, 5)
        with pytest.raises(ValueError):
            make_grid("levels", 0.0, 0.9, 5)
        with pytest.raises(ValueError):
            make_grid("values", 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            Grid(kind="nope", points=np.array([0.1, 0.2]))

    def test_defaults(self):
        values = np.linspace(0.0, 10.0, 500)
        value_grid = default_value_grid(values, 161)
        assert value_grid.points[0] == quantile(values, 0.05)
        assert value_grid.points[-1] == quantile(values, 0.95)
