"""Distributional inference for individual treatment effects.

Estimates the distribution (CDF, quantiles, interquartile range, subgroup
contrasts) of individual-level effects of a binary endogenous treatment
identified through a binary instrument, and provides nonparametric bootstrap
confidence intervals, uniform confidence bands, and two-group tests, plus a
Monte Carlo harness over a closed-form benchmark population.

Each exported name loads its submodule on first use, so ``import itedist``
loads neither numpy nor any submodule.  That lets ``itedist.cli`` cap numpy's
BLAS threads before numpy loads.
"""
import importlib

__version__ = "0.1.0"

# Each submodule and the names it exports, in the order of ``__all__``.
_EXPORTS = {
    "data_model": (
        "Sample", "GroupSelector", "Bounds", "EstimabilityReport",
        "CellEstimability", "ColumnMap", "IngestResult", "IngestError",
        "EstimabilityError", "EmptySelectionError", "ingest_csv", "estimate_bounds",
        "check_estimability", "select_group", "min_instrument_margin", "sample_to_csv"),
    "counterfactual": (
        "ObjectiveContext", "PseudoIteVector", "build_context", "objective_value",
        "minimize_objective", "pseudo_ites", "sign_left"),
    "empirical_dist": (
        "Ecdf", "Grid", "ecdf", "quantile", "iqr", "prob_positive", "make_grid",
        "order_statistics"),
    "bootstrap_inference": (
        "BootstrapConfig", "BootstrapReplicates", "TwoGroupReplicates",
        "IntervalResult", "BandResult", "TestResult", "ReplicationError",
        "NORMAL_QUARTILE_SPREAD", "resample", "draw_replicates",
        "percentile_interval", "ci_cdf", "ci_quantile_and_iqr",
        "ci_prob_positive", "ucb_cdf_constant", "ucb_cdf_variable",
        "ucb_quantile_constant", "ucb_quantile_variable", "compare_quantiles",
        "ucb_quantile_difference", "test_distributions",
        "two_group_quantile_replicates"),
    "benchmark_sim": (
        "DgpOracle", "TheoryVariance", "GeneratedSample",
        "CoverageReport", "StudyTarget", "VarianceGapReport", "GaussianDiagnostic",
        "generate", "true_ites", "theory_variance", "quantile_variance_gap",
        "run_coverage", "naive_ci_cdf", "gaussian_diagnostic"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME})
