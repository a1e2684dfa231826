"""Nonparametric bootstrap engine and inference products.

Only ``draw_replicates`` and ``two_group_quantile_replicates`` resample: they
draw rows with replacement, recompute the leave-one-out pseudo treatment
effects on each resample (holding the original outcome bounds fixed), and
keep the sorted effects or per-level quantiles of every replication.  Every
inference product is a pure function of one such replicate set and the
level and grid it is asked for: it reads off percentile intervals or
sup-statistic critical values from the replication order statistics.
Interval endpoints are exact order statistics at ranks ``ceil(B * alpha / 2)``
and ``ceil(B * (1 - alpha / 2))``; no interpolation anywhere.

Replications are independent and keyed by (seed, replication, group,
attempt), so results are bit-identical regardless of worker count.
"""
from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._rng import derive_stream, parallel_map
from .counterfactual import PseudoIteVector, pseudo_ites
from .data_model import Bounds, Sample, min_instrument_margin
from .empirical_dist import Grid, iqr

logger = logging.getLogger(__name__)

# Quartile spread of the standard normal, z_{0.75} - z_{0.25}; used to turn a
# bootstrap interquartile range into a standard-deviation proxy.
NORMAL_QUARTILE_SPREAD = 1.3489795003921634

# Relative floor applied to a degenerate studentizer before dividing by it.
_STUDENTIZER_FLOOR = 1e-12

_BOUNDED_TARGETS = {"cdf", "prob-positive"}


class ReplicationError(RuntimeError):
    """A bootstrap replication stayed degenerate after all allowed redraws."""

    def __init__(self, message: str, *, replication: int, attempts: int):
        super().__init__(message)
        self.replication = replication
        self.attempts = attempts


@dataclass(frozen=True)
class BootstrapConfig:
    """Replication count, stream seed and redraw cap: what drawing needs."""

    n_replications: int
    seed: int
    max_redraws: int = 100

    def __post_init__(self):
        if self.n_replications < 2:
            raise ValueError(f"need at least 2 replications, got {self.n_replications}")
        if self.max_redraws < 0:
            raise ValueError(f"max_redraws must be >= 0, got {self.max_redraws}")


@dataclass(frozen=True)
class IntervalResult:
    """A percentile confidence interval for one scalar target."""

    target: str
    lo: float
    hi: float
    b_used: int
    redraws: int
    at: float | None = None

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")
        if self.target in _BOUNDED_TARGETS and not (0.0 <= self.lo and self.hi <= 1.0):
            raise ValueError(
                f"{self.target} interval must be a sub-interval of [0, 1], "
                f"got [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True, eq=False)
class BandResult:
    """A uniform confidence band over a grid.

    ``half_width`` is aligned with the grid (constant bands repeat a single
    value).  For kind ``one-sided-lower`` the band is
    ``[center - half_width, +inf)`` at every grid point.
    """

    target: str
    grid: Grid
    center: np.ndarray
    half_width: np.ndarray
    kind: str
    critical_value: float
    b_used: int
    redraws: int

    def __post_init__(self):
        if self.kind not in ("two-sided-constant", "two-sided-variable", "one-sided-lower"):
            raise ValueError(f"unknown band kind {self.kind!r}")
        if len(self.center) != self.grid.size or len(self.half_width) != self.grid.size:
            raise ValueError("band arrays must align with the grid")
        if np.any(self.half_width < 0):
            raise ValueError("band half-widths must be nonnegative")
        self.center.setflags(write=False)
        self.half_width.setflags(write=False)

    @property
    def average_width(self) -> float:
        return float(2.0 * self.half_width.mean())

    def covers(self, values) -> bool:
        """True when the whole function ``values`` lies inside the band."""
        values = np.asarray(values, dtype=np.float64)
        if self.kind == "one-sided-lower":
            return bool(np.all(self.center - self.half_width <= values))
        return bool(np.all(np.abs(values - self.center) <= self.half_width))


@dataclass(frozen=True)
class TestResult:
    """Decision for one of the two-group distributional hypotheses."""

    hypothesis: str
    statistic: float
    critical_value: float
    reject: bool
    alpha: float
    b_used: int
    redraws: int

    def __post_init__(self):
        if self.reject != (self.statistic > self.critical_value):
            raise ValueError("reject flag inconsistent with statistic > critical_value")


def _rank_index(b: int, p: float) -> int:
    """0-based index of the ``ceil(b * p)``-th order statistic."""
    return math.ceil(b * p) - 1


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def percentile_interval(values, alpha: float) -> tuple[float, float]:
    """Percentile interval endpoints from replication order statistics."""
    _check_alpha(alpha)
    values = np.sort(np.asarray(values, dtype=np.float64))
    b = len(values)
    return (float(values[_rank_index(b, alpha / 2.0)]),
            float(values[_rank_index(b, 1.0 - alpha / 2.0)]))


def resample(sample: Sample, rng: np.random.Generator) -> Sample:
    """n rows drawn i.i.d. uniformly with replacement; cells rebuilt."""
    indices = rng.integers(0, sample.n, size=sample.n)
    return sample.take(indices)


def _draw_estimable_resample(sample: Sample, cfg: BootstrapConfig, r: int,
                             group: int) -> tuple[Sample, int]:
    """Resample for replication ``r``, redrawing while any cell margin < 2."""
    for attempt in range(cfg.max_redraws + 1):
        rng = derive_stream(cfg.seed, r, group, attempt)
        draw = resample(sample, rng)
        if min_instrument_margin(draw) >= 2:
            if attempt:
                logger.info("replication %d (group %d): %d redraw(s)", r, group, attempt)
            return draw, attempt
    raise ReplicationError(
        f"replication {r} (group {group}) still degenerate after "
        f"{cfg.max_redraws} redraw(s): some cell keeps an instrument arm "
        f"with fewer than 2 rows",
        replication=r, attempts=cfg.max_redraws + 1)


def bootstrap_pseudo_ites(sample: Sample, bounds: Bounds, cfg: BootstrapConfig,
                          r: int, group: int = 0) -> PseudoIteVector:
    """Pseudo treatment effects recomputed on the ``r``-th resample.

    The resample stream is derived from (seed, r, group, attempt); bounds are
    the original-sample bounds, held fixed across replications.
    """
    if not 0 <= r < cfg.n_replications:
        raise ValueError(f"replication index {r} outside [0, {cfg.n_replications})")
    draw, _ = _draw_estimable_resample(sample, cfg, r, group)
    return pseudo_ites(draw, bounds)


@dataclass(frozen=True, eq=False)
class BootstrapReplicates:
    """Sorted pseudo-ITE vectors for every replication, plus the point fit."""

    sorted_values: np.ndarray     # (B, n), each row ascending
    point_sorted: np.ndarray      # (n,), original-sample pseudo-ITEs, ascending
    redraws: int

    @property
    def b_used(self) -> int:
        return self.sorted_values.shape[0]

    @property
    def n(self) -> int:
        return self.sorted_values.shape[1]


def draw_replicates(sample: Sample, bounds: Bounds, cfg: BootstrapConfig, *,
                    group: int = 0, threads: int = 1) -> BootstrapReplicates:
    """Run all replications once; every product can be read off the result."""
    point = pseudo_ites(sample, bounds)

    def one(r: int) -> tuple[np.ndarray, int]:
        draw, attempts = _draw_estimable_resample(sample, cfg, r, group)
        return np.sort(pseudo_ites(draw, bounds).values), attempts

    results = parallel_map(one, range(cfg.n_replications), threads)
    matrix = np.vstack([row for row, _ in results])
    return BootstrapReplicates(
        sorted_values=matrix,
        point_sorted=np.sort(point.values),
        redraws=sum(attempts for _, attempts in results))


def _quantile_columns(sorted_rows: np.ndarray, taus) -> np.ndarray:
    """Empirical quantiles of each (sorted) row at the given levels."""
    n = sorted_rows.shape[-1]
    taus = np.atleast_1d(np.asarray(taus, dtype=np.float64))
    idx = np.ceil(taus * n).astype(np.intp) - 1
    return sorted_rows[..., idx]


def _cdf_columns(sorted_rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Empirical CDF of each (sorted) row at the given value points."""
    rows = np.atleast_2d(sorted_rows)
    out = np.empty((rows.shape[0], len(points)), dtype=np.float64)
    for r in range(rows.shape[0]):
        out[r] = np.searchsorted(rows[r], points, side="right")
    out /= rows.shape[1]
    return out if sorted_rows.ndim > 1 else out[0]


# ---------------------------------------------------------------------------
# Pointwise percentile confidence intervals
# ---------------------------------------------------------------------------

def ci_cdf(reps: BootstrapReplicates, alpha: float, v: float) -> IntervalResult:
    """Percentile interval for the cumulative probability at ``v``.

    Each replication contributes its resampled empirical CDF value, so the
    interval is range preserving: always a sub-interval of [0, 1].
    """
    if not math.isfinite(v):
        raise ValueError(f"evaluation point must be finite, got {v}")
    stats = _cdf_columns(reps.sorted_values, np.array([float(v)]))[:, 0]
    lo, hi = percentile_interval(stats, alpha)
    return IntervalResult(target="cdf", at=float(v), lo=lo, hi=hi,
                          b_used=reps.b_used, redraws=reps.redraws)


def ci_quantile_and_iqr(reps: BootstrapReplicates, alpha: float,
                        tau: float) -> tuple[IntervalResult, IntervalResult]:
    """Percentile intervals for the ``tau`` quantile and the IQR."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {tau}")
    cols = _quantile_columns(reps.sorted_values, [tau, 0.25, 0.75])
    q_lo, q_hi = percentile_interval(cols[:, 0], alpha)
    i_lo, i_hi = percentile_interval(cols[:, 2] - cols[:, 1], alpha)
    return (IntervalResult(target="quantile", at=float(tau), lo=q_lo, hi=q_hi,
                           b_used=reps.b_used, redraws=reps.redraws),
            IntervalResult(target="iqr", lo=i_lo, hi=i_hi,
                           b_used=reps.b_used, redraws=reps.redraws))


def ci_prob_positive(reps: BootstrapReplicates, alpha: float) -> IntervalResult:
    """Percentile interval for the share of strictly positive effects."""
    stats = 1.0 - _cdf_columns(reps.sorted_values, np.array([0.0]))[:, 0]
    lo, hi = percentile_interval(stats, alpha)
    return IntervalResult(target="prob-positive", lo=lo, hi=hi,
                          b_used=reps.b_used, redraws=reps.redraws)


# ---------------------------------------------------------------------------
# Uniform confidence bands
# ---------------------------------------------------------------------------

def _critical_value(draws: np.ndarray, alpha: float) -> float:
    """The ``ceil(B(1-alpha))``-th order statistic of the sup-statistic draws."""
    _check_alpha(alpha)
    return float(np.sort(draws)[_rank_index(len(draws), 1.0 - alpha)])


def _constant_band(target: str, grid: Grid, center: np.ndarray,
                   boot: np.ndarray, alpha: float, b_used: int,
                   redraws: int) -> BandResult:
    crit = _critical_value(np.max(np.abs(boot - center[None, :]), axis=1), alpha)
    return BandResult(target=target, grid=grid, center=center,
                      half_width=np.full(grid.size, crit),
                      kind="two-sided-constant", critical_value=crit,
                      b_used=b_used, redraws=redraws)


def _studentizers(boot: np.ndarray, scale_reference: float) -> np.ndarray:
    """Per-grid-point bootstrap IQR over the normal quartile spread, floored."""
    b = boot.shape[0]
    srt = np.sort(boot, axis=0)
    spread = srt[_rank_index(b, 0.75), :] - srt[_rank_index(b, 0.25), :]
    stud = spread / NORMAL_QUARTILE_SPREAD
    floor = _STUDENTIZER_FLOOR * max(1.0, scale_reference)
    if np.any(stud < floor):
        warnings.warn(
            "bootstrap spread is (near) zero at some grid points; "
            "studentizer floored, variable-width band may be unreliable there",
            RuntimeWarning, stacklevel=3)
        stud = np.maximum(stud, floor)
    return stud


def _variable_band(target: str, grid: Grid, center: np.ndarray,
                   boot: np.ndarray, alpha: float, scale_reference: float,
                   b_used: int, redraws: int) -> BandResult:
    stud = _studentizers(boot, scale_reference)
    crit = _critical_value(
        np.max(np.abs(boot - center[None, :]) / stud[None, :], axis=1), alpha)
    return BandResult(target=target, grid=grid, center=center,
                      half_width=crit * stud, kind="two-sided-variable",
                      critical_value=crit, b_used=b_used, redraws=redraws)


def _check_grid(grid: Grid, kind: str) -> None:
    if grid.kind != kind:
        raise ValueError(f"this product needs a grid of kind {kind!r}, "
                         f"got {grid.kind!r}")


def _cdf_curves(reps: BootstrapReplicates,
                grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Original and per-replication empirical CDFs over a value grid."""
    _check_grid(grid, "values")
    return (_cdf_columns(reps.point_sorted, grid.points),
            _cdf_columns(reps.sorted_values, grid.points))


def _quantile_curves(reps: BootstrapReplicates,
                     grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Original and per-replication empirical quantiles over a level grid."""
    _check_grid(grid, "levels")
    return (_quantile_columns(reps.point_sorted, grid.points),
            _quantile_columns(reps.sorted_values, grid.points))


def ucb_cdf_constant(reps: BootstrapReplicates, alpha: float,
                     grid: Grid) -> BandResult:
    """Constant-width uniform band for the CDF over the value grid.

    The radius is the ``ceil(B(1-alpha))``-th order statistic of the maximal
    absolute deviation between the resampled and original CDF over the grid.
    The stored band is unclipped; display layers may clip to [0, 1].
    """
    center, boot = _cdf_curves(reps, grid)
    return _constant_band("cdf", grid, center, boot, alpha,
                          reps.b_used, reps.redraws)


def ucb_cdf_variable(reps: BootstrapReplicates, alpha: float,
                     grid: Grid) -> BandResult:
    """Variable-width uniform band for the CDF over the value grid."""
    center, boot = _cdf_curves(reps, grid)
    return _variable_band("cdf", grid, center, boot, alpha,
                          iqr(reps.point_sorted), reps.b_used, reps.redraws)


def ucb_quantile_constant(reps: BootstrapReplicates, alpha: float,
                          grid: Grid) -> BandResult:
    """Constant-width uniform band for the quantile function over the level grid."""
    center, boot = _quantile_curves(reps, grid)
    return _constant_band("quantile", grid, center, boot, alpha,
                          reps.b_used, reps.redraws)


def ucb_quantile_variable(reps: BootstrapReplicates, alpha: float,
                          grid: Grid) -> BandResult:
    """Variable-width uniform band for the quantile function.

    At each level the deviation is studentized by the bootstrap interquartile
    spread over the normal quartile spread, so the band narrows where the
    quantile is estimated more precisely.
    """
    center, boot = _quantile_curves(reps, grid)
    return _variable_band("quantile", grid, center, boot, alpha,
                          iqr(reps.point_sorted), reps.b_used, reps.redraws)


# ---------------------------------------------------------------------------
# Two-group comparisons
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TwoGroupReplicates:
    """Per-level quantiles for two independently resampled groups.

    ``shift`` is a diagnostic offset added to group-1 effects (a location
    shift of the effect distribution cannot be produced by shifting outcomes,
    so synthetic power checks inject it here).
    """

    levels: np.ndarray
    estimate0: np.ndarray
    estimate1: np.ndarray
    boot0: np.ndarray           # (B, T)
    boot1: np.ndarray           # (B, T)
    iqr0: float
    iqr1: float
    redraws: tuple[int, int]
    shift: float = 0.0

    @property
    def b_used(self) -> int:
        return self.boot0.shape[0]

    @property
    def total_redraws(self) -> int:
        return self.redraws[0] + self.redraws[1]

    @property
    def delta(self) -> np.ndarray:
        return (self.estimate1 + self.shift) - self.estimate0

    @property
    def delta_boot(self) -> np.ndarray:
        return (self.boot1 + self.shift) - self.boot0

    def level_index(self, tau: float) -> int:
        pos = int(np.searchsorted(self.levels, tau))
        if pos >= len(self.levels) or self.levels[pos] != tau:
            raise ValueError(f"level {tau} was not evaluated by this replicate set")
        return pos


def two_group_quantile_replicates(sample0: Sample, sample1: Sample,
                                  bounds0: Bounds, bounds1: Bounds,
                                  cfg: BootstrapConfig, levels, *,
                                  couple_streams: bool = False,
                                  ite_shift: float = 0.0,
                                  threads: int = 1) -> TwoGroupReplicates:
    """Resample both groups independently and collect per-level quantiles.

    The two groups use separate derived streams per replication.  With
    ``couple_streams=True`` both groups share one stream (a diagnostic hook:
    identical groups then produce identically zero differences).
    """
    levels = np.asarray(levels, dtype=np.float64)
    if np.any(levels <= 0.0) or np.any(levels >= 1.0):
        raise ValueError("all evaluation levels must lie strictly inside (0, 1)")
    if np.any(np.diff(levels) <= 0):
        raise ValueError("evaluation levels must be strictly increasing")

    point0 = np.sort(pseudo_ites(sample0, bounds0).values)
    point1 = np.sort(pseudo_ites(sample1, bounds1).values)

    def one(r: int):
        draw0, att0 = _draw_estimable_resample(sample0, cfg, r, 0)
        draw1, att1 = _draw_estimable_resample(sample1, cfg, r,
                                               0 if couple_streams else 1)
        q0 = _quantile_columns(np.sort(pseudo_ites(draw0, bounds0).values), levels)
        q1 = _quantile_columns(np.sort(pseudo_ites(draw1, bounds1).values), levels)
        return q0, q1, att0, att1

    results = parallel_map(one, range(cfg.n_replications), threads)
    return TwoGroupReplicates(
        levels=levels,
        estimate0=_quantile_columns(point0, levels),
        estimate1=_quantile_columns(point1, levels),
        boot0=np.vstack([r[0] for r in results]),
        boot1=np.vstack([r[1] for r in results]),
        iqr0=iqr(point0), iqr1=iqr(point1),
        redraws=(sum(r[2] for r in results), sum(r[3] for r in results)),
        shift=float(ite_shift))


def compare_quantiles(reps: TwoGroupReplicates, alpha: float,
                      tau: float) -> tuple[IntervalResult, IntervalResult]:
    """Percentile intervals for the group-1 minus group-0 quantile difference
    at ``tau`` and for the IQR difference.

    ``reps`` must have evaluated ``tau``, 0.25 and 0.75.  The two samples must
    come from disjoint group selections; callers are responsible for that
    check (the CLI enforces it).
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {tau}")
    delta_boot = reps.delta_boot
    d_lo, d_hi = percentile_interval(delta_boot[:, reps.level_index(tau)], alpha)
    spread = (delta_boot[:, reps.level_index(0.75)]
              - delta_boot[:, reps.level_index(0.25)])
    s_lo, s_hi = percentile_interval(spread, alpha)
    return (IntervalResult(target="quantile-difference", at=float(tau), lo=d_lo,
                           hi=d_hi, b_used=reps.b_used, redraws=reps.total_redraws),
            IntervalResult(target="iqr-difference", lo=s_lo, hi=s_hi,
                           b_used=reps.b_used, redraws=reps.total_redraws))


def _difference_curves(reps: TwoGroupReplicates,
                       grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Quantile difference and its replications over a level grid."""
    _check_grid(grid, "levels")
    idx = [reps.level_index(t) for t in grid.points]
    return reps.delta[idx], reps.delta_boot[:, idx]


def ucb_quantile_difference(reps: TwoGroupReplicates, alpha: float, grid: Grid, *,
                            band: str = "constant") -> BandResult:
    """Uniform band for the quantile-difference function over the level grid.

    ``band`` selects ``constant`` or ``variable`` width, or
    ``one-sided-lower`` for the dominance-style band ``[delta - crit, inf)``.
    """
    center, boot = _difference_curves(reps, grid)
    if band == "constant":
        return _constant_band("quantile-difference", grid, center, boot,
                              alpha, reps.b_used, reps.total_redraws)
    if band == "variable":
        return _variable_band("quantile-difference", grid, center, boot,
                              alpha, max(reps.iqr0, reps.iqr1),
                              reps.b_used, reps.total_redraws)
    if band == "one-sided-lower":
        crit = _critical_value(np.max(boot - center[None, :], axis=1), alpha)
        return BandResult(target="quantile-difference", grid=grid, center=center,
                          half_width=np.full(grid.size, max(crit, 0.0)),
                          kind="one-sided-lower", critical_value=crit,
                          b_used=reps.b_used, redraws=reps.total_redraws)
    raise ValueError(f"unknown band selector {band!r}")


_HYPOTHESES = ("equality", "location-shift", "dominance")


def test_distributions(reps: TwoGroupReplicates, alpha: float, grid: Grid,
                       hypothesis: str) -> TestResult:
    """Sup-statistic bootstrap test comparing the two effect distributions.

    ``equality``       both quantile functions coincide on the grid range;
                       statistic sup |delta|, two-sided critical value.
    ``location-shift`` the difference is constant; the grid mean of the
                       difference is removed before taking the sup.
    ``dominance``      group-0 weakly dominates group-1 (difference <= 0);
                       one-sided statistic sup delta.

    Rejection uses strict inequality: reject iff statistic > critical value.
    """
    if hypothesis not in _HYPOTHESES:
        raise ValueError(f"hypothesis must be one of {_HYPOTHESES}, got {hypothesis!r}")
    delta, boot = _difference_curves(reps, grid)
    if hypothesis == "equality":
        statistic = float(np.max(np.abs(delta)))
        draws = np.max(np.abs(boot - delta[None, :]), axis=1)
    elif hypothesis == "location-shift":
        centered = delta - delta.mean()
        centered_boot = boot - boot.mean(axis=1, keepdims=True)
        statistic = float(np.max(np.abs(centered)))
        draws = np.max(np.abs(centered_boot - centered[None, :]), axis=1)
    else:
        statistic = float(np.max(delta))
        draws = np.max(boot - delta[None, :], axis=1)
    critical = _critical_value(draws, alpha)
    return TestResult(hypothesis=hypothesis, statistic=statistic,
                      critical_value=critical, reject=statistic > critical,
                      alpha=alpha, b_used=reps.b_used,
                      redraws=reps.total_redraws)
