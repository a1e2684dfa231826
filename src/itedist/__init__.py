"""Distributional inference for individual treatment effects.

Estimates the distribution (CDF, quantiles, interquartile range, subgroup
contrasts) of individual-level effects of a binary endogenous treatment
identified through a binary instrument, and provides nonparametric bootstrap
confidence intervals, uniform confidence bands, and two-group tests, plus a
Monte Carlo harness over a closed-form benchmark population.
"""

__version__ = "0.1.0"

from .bootstrap_inference import (BandResult, BootstrapConfig, BootstrapReplicates,
                                  IntervalResult, NORMAL_QUARTILE_SPREAD,
                                  ReplicationError, TestResult, TwoGroupReplicates,
                                  ci_cdf, ci_prob_positive, ci_quantile_and_iqr,
                                  compare_quantiles, draw_replicates,
                                  percentile_interval, resample,
                                  test_distributions, two_group_quantile_replicates,
                                  ucb_cdf_constant, ucb_cdf_variable,
                                  ucb_quantile_constant, ucb_quantile_difference,
                                  ucb_quantile_variable)
from .counterfactual import (ObjectiveContext, PseudoIteVector, build_context,
                             minimize_objective, objective_value, pseudo_ites,
                             sign_left)
from .data_model import (Bounds, CellEstimability, ColumnMap, EmptySelectionError,
                         EstimabilityError, EstimabilityReport, GroupSelector,
                         IngestError, IngestResult, Sample,
                         check_estimability, estimate_bounds, ingest_csv,
                         min_instrument_margin, sample_to_csv, select_group)
from .empirical_dist import (Ecdf, Grid, ecdf, iqr, make_grid, order_statistics,
                             prob_positive, quantile)

__all__ = [
    "__version__",
    # data model
    "Sample", "GroupSelector", "Bounds", "EstimabilityReport",
    "CellEstimability", "ColumnMap", "IngestResult", "IngestError",
    "EstimabilityError", "EmptySelectionError", "ingest_csv", "estimate_bounds",
    "check_estimability", "select_group", "min_instrument_margin", "sample_to_csv",
    # counterfactual maps
    "ObjectiveContext", "PseudoIteVector", "build_context", "objective_value",
    "minimize_objective", "pseudo_ites", "sign_left",
    # empirical distribution
    "Ecdf", "Grid", "ecdf", "quantile", "iqr", "prob_positive", "make_grid",
    "order_statistics",
    # bootstrap inference
    "BootstrapConfig", "BootstrapReplicates", "TwoGroupReplicates",
    "IntervalResult", "BandResult", "TestResult", "ReplicationError",
    "NORMAL_QUARTILE_SPREAD", "resample", "draw_replicates",
    "percentile_interval", "ci_cdf", "ci_quantile_and_iqr",
    "ci_prob_positive", "ucb_cdf_constant", "ucb_cdf_variable",
    "ucb_quantile_constant", "ucb_quantile_variable", "compare_quantiles",
    "ucb_quantile_difference", "test_distributions",
    "two_group_quantile_replicates",
    # benchmark
    "DgpConfig", "DgpOracle", "TheoryVariance", "GeneratedSample",
    "CoverageReport", "StudyTarget", "VarianceGapReport", "GaussianDiagnostic",
    "generate", "true_ites", "theory_variance", "quantile_variance_gap",
    "run_coverage", "naive_ci_cdf", "gaussian_diagnostic",
]

# The benchmark harness is loaded on first use of one of its names, so that
# analyze and compare do not pay for importing it.
_BENCHMARK_NAMES = frozenset((
    "CoverageReport", "DgpConfig", "DgpOracle", "GaussianDiagnostic",
    "GeneratedSample", "StudyTarget", "TheoryVariance", "VarianceGapReport",
    "gaussian_diagnostic", "generate", "naive_ci_cdf", "quantile_variance_gap",
    "run_coverage", "theory_variance", "true_ites"))


def __getattr__(name):
    if name in _BENCHMARK_NAMES:
        from . import benchmark_sim
        return getattr(benchmark_sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
