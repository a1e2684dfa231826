"""Acceptance gates: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; the Monte Carlo
sections use frozen seeds, so each gate is deterministic.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from itedist import (BootstrapConfig, Sample, StudyTarget, build_context,
                     ci_quantile_and_iqr, draw_replicates, ecdf, estimate_bounds,
                     gaussian_diagnostic, generate, make_grid,
                     minimize_objective, objective_value, percentile_interval,
                     pseudo_ites, quantile, quantile_variance_gap, run_coverage,
                     theory_variance, two_group_quantile_replicates)
from itedist import test_distributions as distribution_test
from itedist._rng import derive_seed, derive_stream
from itedist.cli import main as cli_main
from itedist.data_model import min_instrument_margin

from test_counterfactual import grid_objective, make_cell, naive_objective


def _criterion(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# Shared desk-scale Monte Carlo runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_n250():
    """Pointwise CI study at n=250 (feeds criteria 4 and 5)."""
    targets = [StudyTarget("cdf-ci", 2.0),
               StudyTarget("cdf-ci-naive", 2.0),
               StudyTarget("quantile-ci", 0.5),
               StudyTarget("cdf-band-constant",
                           make_grid("values", 0.04, 3.96, 393))]
    started = time.perf_counter()
    reports = run_coverage(targets, n=250, reps=300, levels=[0.95], b=200,
                           seed=101)
    elapsed = time.perf_counter() - started
    return {r.target: r for r in reports}, elapsed


@pytest.fixture(scope="module")
def desk_n500():
    """Band study at n=500 (feeds criteria 6 and 7)."""
    targets = [StudyTarget("quantile-band-constant",
                           make_grid("levels", 0.20, 0.80, 61)),
               StudyTarget("cdf-band-interpolated",
                           make_grid("values", 0.04, 3.96, 393)),
               StudyTarget("cdf-band-variable",
                           make_grid("values", 0.04, 3.96, 393))]
    started = time.perf_counter()
    reports = run_coverage(targets, n=500, reps=200, levels=[0.95], b=200,
                           seed=102)
    elapsed = time.perf_counter() - started
    return {r.target: r for r in reports}, elapsed


def test_criterion_1_minimizer_oracle_equivalence():
    """Candidate minimization dominates a dense grid; evaluation matches a
    naive loop to 1e-10; 200 instances in under 10 seconds."""
    rng = np.random.default_rng(2001)
    started = time.perf_counter()
    instances = 0
    while instances < 200:
        s = make_cell(rng, int(rng.integers(6, 31)), decimals=None)
        if min_instrument_margin(s) < 1:
            continue
        bounds = estimate_bounds(s)
        d = int(rng.integers(0, 2))
        ctx = build_context(s, (), d, bounds)
        i = int(rng.integers(0, s.n)) if rng.random() < 0.7 else None
        y = float(rng.choice(s.outcomes))
        try:
            tstar = minimize_objective(ctx, i, y)
            vstar = objective_value(ctx, i, tstar, y)
        except Exception:
            continue
        rows = list(zip(s.outcomes, s.treatments, s.instruments))
        lo, hi = bounds.for_group(d, ())
        grid = np.arange(lo, hi + 1e-12, 1e-4)
        grid_values = grid_objective(rows, i, d, y, grid)
        assert vstar <= grid_values.min() + 1e-10
        t_probe = float(rng.uniform(lo, hi))
        assert abs(objective_value(ctx, i, t_probe, y)
                   - naive_objective(rows, i, d, t_probe, y)) <= 1e-10
        candidates = {lo, hi} | {
            float(s.outcomes[j]) for j in range(s.n)
            if (i is None or j != i) and s.treatments[j] == d
            and lo <= s.outcomes[j] <= hi}
        assert tstar in candidates
        instances += 1
    elapsed = time.perf_counter() - started
    _criterion(1, elapsed < 10.0,
               f"200 instances, grid-dominant and loop-exact, {elapsed:.1f}s < 10s")


def test_criterion_2_pipeline_identities():
    """Order-statistic quantiles, the Galois identity, percentile-rank
    endpoints, and CI nestedness hold exactly on 100 randomized cases."""
    rng = np.random.default_rng(2002)
    started = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(1, 120))
        values = np.round(rng.normal(0, 3, n), int(rng.integers(0, 4)))
        tau = float(rng.uniform(0.001, 0.999))
        q = quantile(values, tau)
        srt = np.sort(values)
        assert q == srt[math.ceil(tau * n) - 1]
        cdf = ecdf(values)
        assert q == min(v for v in values if cdf(v) >= tau)
        assert cdf(q) >= tau
        assert all(cdf(v) < tau for v in values if v < q)

        b = int(rng.integers(2, 300))
        draws = rng.normal(size=b)
        alpha = float(rng.uniform(0.01, 0.5))
        lo, hi = percentile_interval(draws, alpha)
        sorted_draws = np.sort(draws)
        assert lo == sorted_draws[math.ceil(b * alpha / 2) - 1]
        assert hi == sorted_draws[math.ceil(b * (1 - alpha / 2)) - 1]
        tighter = float(rng.uniform(alpha, 0.9))
        lo2, hi2 = percentile_interval(draws, tighter)
        assert lo <= lo2 and hi2 <= hi
    elapsed = time.perf_counter() - started
    _criterion(2, elapsed < 5.0, f"100 randomized cases exact, {elapsed:.1f}s < 5s")


def test_criterion_3_affine_equivariance():
    """Doubling-and-shifting the outcomes doubles every effect and quantile
    CI endpoint bit for bit and leaves location-shift test decisions alone."""
    started = time.perf_counter()

    def quantize(values):
        return np.round(values * 2 ** 20) / 2 ** 20

    def transformed(sample):
        return Sample(outcomes=2.0 * sample.outcomes + 3.0,
                      treatments=sample.treatments, instruments=sample.instruments,
                      covariates=sample.covariates)

    effects_exact = ci_exact = True
    for rep in range(5):
        gen = generate(250, derive_stream(3003, rep))
        base = Sample(outcomes=quantize(gen.sample.outcomes),
                      treatments=gen.sample.treatments,
                      instruments=gen.sample.instruments,
                      covariates=gen.sample.covariates)
        mapped = transformed(base)
        vec0 = pseudo_ites(base, estimate_bounds(base))
        vec1 = pseudo_ites(mapped, estimate_bounds(mapped))
        effects_exact &= bool(np.array_equal(vec1.values, 2.0 * vec0.values))
        cfg = BootstrapConfig(n_replications=150, seed=derive_seed(3003, rep))
        reps0 = draw_replicates(base, estimate_bounds(base), cfg)
        reps1 = draw_replicates(mapped, estimate_bounds(mapped), cfg)
        for tau in (0.25, 0.5, 0.75):
            q0, i0 = ci_quantile_and_iqr(reps0, 0.05, tau)
            q1, i1 = ci_quantile_and_iqr(reps1, 0.05, tau)
            ci_exact &= (q1.lo == 2.0 * q0.lo and q1.hi == 2.0 * q0.hi)
            ci_exact &= (i1.lo == 2.0 * i0.lo and i1.hi == 2.0 * i0.hi)

    decisions_stable = True
    grid = make_grid("levels", 0.2, 0.8, 7)
    for rep in range(5):
        g0 = generate(150, derive_stream(3103, rep, 0))
        g1 = generate(150, derive_stream(3103, rep, 1))
        s0 = Sample(outcomes=quantize(g0.sample.outcomes),
                    treatments=g0.sample.treatments,
                    instruments=g0.sample.instruments, covariates=g0.sample.covariates)
        s1 = Sample(outcomes=quantize(g1.sample.outcomes),
                    treatments=g1.sample.treatments,
                    instruments=g1.sample.instruments, covariates=g1.sample.covariates)
        cfg = BootstrapConfig(n_replications=120, seed=derive_seed(3103, rep))
        base = distribution_test(
            two_group_quantile_replicates(s0, s1, estimate_bounds(s0),
                                          estimate_bounds(s1), cfg, grid.points),
            0.05, grid, "location-shift")
        moved = distribution_test(
            two_group_quantile_replicates(transformed(s0), transformed(s1),
                                          estimate_bounds(transformed(s0)),
                                          estimate_bounds(transformed(s1)),
                                          cfg, grid.points),
            0.05, grid, "location-shift")
        decisions_stable &= (base.reject == moved.reject)
        decisions_stable &= (moved.statistic == 2.0 * base.statistic)
        decisions_stable &= (moved.critical_value == 2.0 * base.critical_value)

    elapsed = time.perf_counter() - started
    _criterion(3, effects_exact and ci_exact and decisions_stable and elapsed < 30.0,
               f"effects x2 exact={effects_exact}, CIs x2 exact={ci_exact}, "
               f"location-shift decisions stable={decisions_stable}, {elapsed:.1f}s < 30s")


def test_criterion_4_pointwise_cdf_coverage(desk_n250):
    """Percentile CI for the CDF at v=2, n=250: coverage near the published
    0.936; the naive normal interval undercovers badly."""
    reports, elapsed = desk_n250
    bp = reports["cdf-ci@v=2"]
    naive = reports["cdf-ci-naive@v=2"]
    ok = (abs(bp.coverage - 0.936) <= 0.05 and naive.coverage <= 0.55
          and elapsed < 600.0)
    _criterion(4, ok,
               f"BP coverage {bp.coverage:.3f} in 0.936+-0.05, naive "
               f"{naive.coverage:.3f} <= 0.55, {elapsed:.0f}s < 600s")


def test_criterion_5_median_ci_coverage_and_length(desk_n250):
    """Percentile CI for the median effect at n=250: coverage near the
    published 0.942 and average length near 1.751."""
    reports, elapsed = desk_n250
    med = reports["quantile-ci@tau=0.5"]
    ok = (abs(med.coverage - 0.942) <= 0.05
          and abs(med.avg_length - 1.751) <= 0.15 * 1.751
          and elapsed < 600.0)
    _criterion(5, ok,
               f"coverage {med.coverage:.3f} in 0.942+-0.05, length "
               f"{med.avg_length:.3f} in 1.751+-15%, {elapsed:.0f}s < 600s")


def test_criterion_6_quantile_band_coverage_and_width(desk_n500):
    """Constant-width quantile band at n=500 covers near the published 0.975;
    the variable-width band is narrower on average at n=1000."""
    reports, elapsed_500 = desk_n500
    const = reports["quantile-band-constant@[0.2,0.8]"]
    started = time.perf_counter()
    grid = make_grid("levels", 0.20, 0.80, 61)
    width_reports = run_coverage(
        [StudyTarget("quantile-band-constant", grid),
         StudyTarget("quantile-band-variable", grid)],
        n=1000, reps=60, levels=[0.95], b=200, seed=106)
    elapsed = elapsed_500 + time.perf_counter() - started
    widths = {r.target: r.avg_length for r in width_reports}
    w_const = widths["quantile-band-constant@[0.2,0.8]"]
    w_var = widths["quantile-band-variable@[0.2,0.8]"]
    ok = (abs(const.coverage - 0.975) <= 0.05 and w_var < w_const
          and elapsed < 1200.0)
    _criterion(6, ok,
               f"simultaneous coverage {const.coverage:.3f} in 0.975+-0.05, "
               f"n=1000 widths variable {w_var:.3f} < constant {w_const:.3f}, "
               f"{elapsed:.0f}s < 1200s")


def test_criterion_7_interpolated_pointwise_band_undercovers(desk_n500):
    """Stitching pointwise percentile intervals into a band badly misses the
    simultaneous level (published value 0.622; gate at 0.80)."""
    reports, elapsed = desk_n500
    interp = reports["cdf-band-interpolated@[0.04,3.96]"]
    ok = interp.coverage <= 0.80 and elapsed < 900.0
    _criterion(7, ok,
               f"simultaneous coverage {interp.coverage:.3f} <= 0.80 "
               f"(published 0.622), {elapsed:.0f}s < 900s")


def test_criterion_8_gaussian_diagnostic_and_variance_oracle():
    """The theory variance matches a brute-force variance-difference oracle
    within 10%, dominates the sampling part, and standardized median draws
    look standard normal."""
    started = time.perf_counter()
    gap = quantile_variance_gap([0.25, 0.5, 0.75], n=2000, reps=2000,
                                seed=20250809)
    ratios_ok = all(0.9 <= r <= 1.1 for r in gap.ratios)
    ordering_ok = all(theory_variance(t)[1] > theory_variance(t)[0]
                      for t in np.linspace(0.1, 0.9, 33))
    diag = gaussian_diagnostic(0.5, n=500, reps=300, seed=108)
    moments_ok = abs(diag.mean) <= 0.15 and 0.7 <= diag.variance <= 1.3
    elapsed = time.perf_counter() - started
    ok = ratios_ok and ordering_ok and moments_ok and elapsed < 900.0
    _criterion(8, ok,
               f"variance-gap ratios {tuple(round(r, 3) for r in gap.ratios)} "
               f"within 10%, estimation part dominates={ordering_ok}, "
               f"standardized mean {diag.mean:+.3f} var {diag.variance:.3f}, "
               f"{elapsed:.0f}s < 900s")


def test_criterion_9_two_group_null_tests():
    """Coupled identical groups accept all three hypotheses deterministically;
    an independent random split rejects equality at about the nominal rate."""
    started = time.perf_counter()
    gen = generate(300, derive_stream(109, 0))
    s = gen.sample
    bounds = estimate_bounds(s)
    grid = make_grid("levels", 0.2, 0.8, 7)
    cfg = BootstrapConfig(n_replications=100, seed=42)
    coupled = two_group_quantile_replicates(s, s, bounds, bounds, cfg, grid.points,
                                            couple_streams=True)
    coupled_accept = all(
        not distribution_test(coupled, 0.05, grid, hypothesis).reject
        for hypothesis in ("equality", "location-shift", "dominance"))

    runs, rejections = 200, 0
    for k in range(runs):
        population = generate(500, derive_stream(2024, k)).sample
        perm = derive_stream(2024, k, 99).permutation(population.n)
        s0 = population.take(np.sort(perm[:250]))
        s1 = population.take(np.sort(perm[250:]))
        cfg_k = BootstrapConfig(n_replications=200, seed=derive_seed(2024, k, 1))
        result = distribution_test(
            two_group_quantile_replicates(s0, s1, estimate_bounds(s0),
                                          estimate_bounds(s1), cfg_k, grid.points),
            0.05, grid, "equality")
        rejections += result.reject
    rate = rejections / runs
    elapsed = time.perf_counter() - started
    ok = coupled_accept and abs(rate - 0.05) <= 0.05 and elapsed < 900.0
    _criterion(9, ok,
               f"coupled groups accept={coupled_accept}, null rejection rate "
               f"{rate:.3f} in 0.05+-0.05 over {runs} runs, {elapsed:.0f}s < 900s")


def test_criterion_10_thread_count_determinism(tmp_path):
    """Every command repeated with the same seed and different worker caps
    produces byte-identical output files."""
    from itedist import ColumnMap, sample_to_csv
    started = time.perf_counter()
    single = tmp_path / "bench.csv"
    sample_to_csv(generate(300, derive_stream(110, 0)).sample, single)
    paired = tmp_path / "two.csv"
    g0 = generate(200, derive_stream(110, 1))
    g1 = generate(200, derive_stream(110, 2))
    sample_to_csv(
        Sample(np.concatenate([g0.sample.outcomes, g1.sample.outcomes]),
               np.concatenate([g0.sample.treatments, g1.sample.treatments]),
               np.concatenate([g0.sample.instruments, g1.sample.instruments]),
               np.repeat([0, 1], 200).reshape(-1, 1)),
        paired, ColumnMap("y", "d", "z", ("grp",)))

    commands = {
        "analyze": ["analyze", "--input", str(single), "--bootstrap", "60",
                    "--seed", "12", "--report", "prob-positive,quantile,iqr,bands",
                    "--grid-size", "11"],
        "compare": ["compare", "--input", str(paired), "--covariate-cols", "grp",
                    "--group0", "grp=0", "--group1", "grp=1", "--bootstrap", "60",
                    "--seed", "12", "--grid-size", "7", "--tau-range", "0.2,0.8"],
        "simulate": ["simulate", "table1", "--v", "2", "--n", "120", "--reps", "6",
                     "--B", "30", "--seed", "12", "--levels", "0.95"],
        "oracle": ["oracle", "--tau", "0.25,0.5", "--v", "2", "--y", "2.25"],
    }
    all_identical = True
    for name, argv in commands.items():
        outputs = []
        for threads in (1, 4):
            out = tmp_path / f"{name}_t{threads}.out"
            code = cli_main([*argv, "--threads", str(threads),
                             "--output", str(out)])
            assert code == 0, f"{name} failed with threads={threads}"
            outputs.append(out.read_bytes())
        all_identical &= outputs[0] == outputs[1]
    elapsed = time.perf_counter() - started
    ok = all_identical and elapsed < 120.0
    _criterion(10, ok,
               f"analyze/compare/simulate/oracle byte-identical across worker "
               f"caps, {elapsed:.0f}s < 120s")


def test_published_cdf_band_coverage(desk_n250, desk_n500):
    """Published CDF-band coverage values (not numbered gates): the
    constant-width band covers ~0.961 at n=250 and the variable-width band
    ~0.967 at n=500, both within the desk-scale 0.05 budget."""
    reports_250, _ = desk_n250
    reports_500, _ = desk_n500
    const_250 = reports_250["cdf-band-constant@[0.04,3.96]"]
    var_500 = reports_500["cdf-band-variable@[0.04,3.96]"]
    assert abs(const_250.coverage - 0.961) <= 0.05
    assert abs(var_500.coverage - 0.967) <= 0.05
    print(f"[extra] PASS: cdf-band coverage constant@n250 "
          f"{const_250.coverage:.3f} (published 0.961), variable@n500 "
          f"{var_500.coverage:.3f} (published 0.967)")
