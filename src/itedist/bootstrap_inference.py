"""Nonparametric bootstrap engine and inference products.

Only ``draw_replicates`` and ``two_group_quantile_replicates`` resample:
they draw rows with replacement, recompute the leave-one-out pseudo
treatment effects on each resample (holding the original outcome bounds
fixed), and keep the sorted effects of every replication or, for two
groups, the difference of their per-level quantiles.  Both work through
chunks of consecutive replications, one chunk per group.  Each replication
draws its resample with :func:`resample` from its own keyed stream: the
parent's rows in their (cell, treatment, outcome) order, which the parent
sorts once, each repeated as often as it was drawn, with the parent's cell
codes.  A chunk stacks its draws into one sample whose cells are
(replication, cell), the codes offset rather than sorted again, checks
every margin with one ``bincount`` and redraws only the replications that
fail.  One ``pseudo_ites`` call then fits the whole chunk
on rows already in the order it sorts them into, and each replication's
effects are sorted in place in its row of one replicate matrix.  A row's
effect depends only on its cell, so neither the chunking nor the row order
ever changes a result.  Every inference product is a pure function of one
such replicate set and the level and grid it is asked for: it reads off
percentile intervals or sup-statistic critical values from the replication
order statistics.  A band's curves over its grid, their column-sorted copy,
and each band kind's studentizers and sorted sup-statistic draws depend on
neither the level nor the call, so a replicate set computes them on first
use and keeps them per grid object; a band at any further level reads one
rank.
Interval endpoints, studentizers and critical values are exact order
statistics of the replications, read by
:func:`itedist.empirical_dist.order_statistics` (rank ``ceil(p * B)`` at
level ``p``; no interpolation anywhere), and the CDF curves come from
:func:`itedist.empirical_dist.cdf_at`.  Replicate sets are read-only, also
after pickling.

Replications are independent and keyed by (seed, replication, group,
attempt), so results are bit-identical regardless of worker count.
"""
from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._frozen import FrozenArrays
from ._rng import derive_stream, parallel_map
from .counterfactual import pseudo_ites
from .data_model import Bounds, Sample
from .empirical_dist import Grid, cdf_at, iqr, order_statistics

logger = logging.getLogger(__name__)

# Quartile spread of the standard normal, z_{0.75} - z_{0.25}; used to turn a
# bootstrap interquartile range into a standard-deviation proxy.
NORMAL_QUARTILE_SPREAD = 1.3489795003921634

# Relative floor applied to a degenerate studentizer before dividing by it.
_STUDENTIZER_FLOOR = 1e-12

_BOUNDED_TARGETS = {"cdf", "prob-positive"}

# Resampled rows fitted by one pseudo_ites call: enough to spread its fixed
# cost over many small replications, few enough to bound the memory a fit of
# the stacked sample takes.
_CHUNK_ROWS = 4096


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
class BandResult(FrozenArrays):
    """A uniform confidence band over a grid.

    ``half_width`` is aligned with the grid (constant bands repeat a single
    value).  For kind ``one-sided-lower`` the band is
    ``[center - half_width, +inf)`` at every grid point.
    """

    copies_arrays = True

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
        super().__post_init__()

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


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def percentile_interval(values, alpha: float) -> tuple[float, float]:
    """Percentile interval endpoints from replication order statistics."""
    _check_alpha(alpha)
    lo, hi = order_statistics(np.sort(np.asarray(values, dtype=np.float64)),
                              (alpha / 2.0, 1.0 - alpha / 2.0))
    return float(lo), float(hi)


def resample(sample: Sample, rng: np.random.Generator) -> Sample:
    """n rows drawn i.i.d. uniformly with replacement; cell codes carried over.

    The drawn rows come in the parent's (cell, treatment, outcome) order:
    each row of :attr:`Sample.row_order` repeated as often as it was drawn.
    Every bootstrap attempt draws its rows here.
    """
    counts = np.bincount(rng.integers(0, sample.n, size=sample.n), minlength=sample.n)
    order = sample.row_order
    return sample.take(np.repeat(order, counts[order]))


@dataclass(frozen=True, eq=False)
class BootstrapReplicates(FrozenArrays):
    """Sorted pseudo-ITE vectors for every replication, plus the point fit."""

    sorted_values: np.ndarray     # (B, n), each row ascending
    point_sorted: np.ndarray      # (n,), original-sample pseudo-ITEs, ascending
    redraws: int
    # The level-free work of the bands, by (grid, piece) (see ``_memo``).
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def b_used(self) -> int:
        return self.sorted_values.shape[0]

    def _curves(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        """The point curve and the replications' curves over ``grid``, kept:
        empirical CDFs over a value grid, order statistics over a level grid."""
        read = cdf_at if grid.kind == "values" else order_statistics
        return _memo(self, grid, "curves",
                     lambda: (read(self.point_sorted, grid.points),
                              read(self.sorted_values, grid.points)))


def _chunks(n_replications: int, *sizes: int) -> list[range]:
    """Consecutive replications, about ``_CHUNK_ROWS`` rows of the largest
    sample per chunk and at least one replication."""
    per = max(1, _CHUNK_ROWS // max(sizes))
    return [range(lo, min(lo + per, n_replications))
            for lo in range(0, n_replications, per)]


def _fit_chunk(sample: Sample, bounds: Bounds, cfg: BootstrapConfig, chunk: range,
               group: int, out: np.ndarray) -> int:
    """Sorted pseudo-ITEs of the replications ``chunk``, written into the rows
    of ``out``; returns their redraws.

    Replication ``r`` resamples from the stream keyed (seed, r, group,
    attempt).  The draws are stacked into one sample whose cells are
    (replication, cell), each resample's codes offset by the cells of the
    resamples before it.  One ``bincount`` over the stacked (cell,
    instrument) codes checks every margin, and only the replications left
    with an instrument arm below 2 rows in a cell they hold draw again, with
    the next attempt.  One :func:`pseudo_ites` call then fits every
    replication against the original bounds of its cells.
    """
    draws = [resample(sample, derive_stream(cfg.seed, r, group, 0)) for r in chunk]
    attempts = [0] * len(chunk)
    while True:
        offsets = np.cumsum([0] + [len(draw.cell_table) for draw in draws])
        # every resample holds n rows
        codes = (np.concatenate([draw.cell_codes for draw in draws])
                 + np.repeat(offsets[:-1], sample.n))
        z = np.concatenate([draw.instruments for draw in draws])
        margins = np.bincount(2 * codes + z, minlength=2 * offsets[-1])
        short = np.flatnonzero(np.minimum.reduceat(margins, 2 * offsets[:-1]) < 2)
        if not len(short):
            break
        # Every short replication has failed each attempt so far, so all of
        # them run out together and the first one is reported.
        for i in short.tolist():
            if attempts[i] == cfg.max_redraws:
                raise ReplicationError(
                    f"replication {chunk[i]} (group {group}) still degenerate after "
                    f"{cfg.max_redraws} redraw(s): some cell keeps an instrument arm "
                    f"with fewer than 2 rows",
                    replication=chunk[i], attempts=cfg.max_redraws + 1)
            attempts[i] += 1
            draws[i] = resample(sample, derive_stream(cfg.seed, chunk[i], group,
                                                      attempts[i]))
    for r, redraws in zip(chunk, attempts):
        if redraws:
            logger.info("replication %d (group %d): %d redraw(s)", r, group, redraws)
    stacked = Sample._coded(
        np.concatenate([draw.outcomes for draw in draws]),
        np.concatenate([draw.treatments for draw in draws]), z, codes,
        tuple((r, *cell) for r, draw in zip(chunk, draws) for cell in draw.cell_table),
        margins.reshape(-1, 2).sum(axis=1))
    del draws
    stacked_bounds = Bounds({(d, (r, *cell)): support
                             for r in chunk
                             for (d, cell), support in bounds.by_group.items()})
    out[...] = pseudo_ites(stacked, stacked_bounds).values.reshape(out.shape)
    out.sort(axis=1)
    return sum(attempts)


def draw_replicates(sample: Sample, bounds: Bounds, cfg: BootstrapConfig, *,
                    threads: int = 1) -> BootstrapReplicates:
    """Run all replications once, keyed as group 0; every product can be read
    off the result."""
    point_sorted = np.sort(pseudo_ites(sample.take(sample.row_order), bounds).values)
    sorted_values = np.empty((cfg.n_replications, sample.n))

    def one(chunk: range) -> int:
        return _fit_chunk(sample, bounds, cfg, chunk, 0,
                          sorted_values[chunk.start:chunk.stop])

    redraws = parallel_map(one, _chunks(cfg.n_replications, sample.n), threads)
    return BootstrapReplicates(sorted_values=sorted_values, point_sorted=point_sorted,
                               redraws=sum(redraws))


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
    stats = cdf_at(reps.sorted_values, np.array([float(v)]))[:, 0]
    lo, hi = percentile_interval(stats, alpha)
    return IntervalResult(target="cdf", at=float(v), lo=lo, hi=hi,
                          b_used=reps.b_used, redraws=reps.redraws)


def ci_quantile_and_iqr(reps: BootstrapReplicates, alpha: float,
                        tau: float) -> tuple[IntervalResult, IntervalResult]:
    """Percentile intervals for the ``tau`` quantile and the IQR."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {tau}")
    cols = order_statistics(reps.sorted_values, (tau, 0.25, 0.75))
    q_lo, q_hi = percentile_interval(cols[:, 0], alpha)
    i_lo, i_hi = percentile_interval(cols[:, 2] - cols[:, 1], alpha)
    return (IntervalResult(target="quantile", at=float(tau), lo=q_lo, hi=q_hi,
                           b_used=reps.b_used, redraws=reps.redraws),
            IntervalResult(target="iqr", lo=i_lo, hi=i_hi,
                           b_used=reps.b_used, redraws=reps.redraws))


def ci_prob_positive(reps: BootstrapReplicates, alpha: float) -> IntervalResult:
    """Percentile interval for the share of strictly positive effects."""
    stats = 1.0 - cdf_at(reps.sorted_values, np.array([0.0]))[:, 0]
    lo, hi = percentile_interval(stats, alpha)
    return IntervalResult(target="prob-positive", lo=lo, hi=hi,
                          b_used=reps.b_used, redraws=reps.redraws)


# ---------------------------------------------------------------------------
# Uniform confidence bands
# ---------------------------------------------------------------------------

class _BandDraws(NamedTuple):
    """The level-free part of a band: what every level reads its rank from."""

    studentizers: np.ndarray | None   # variable bands only, floored
    floored: bool                     # some studentizer needed the floor
    sup: np.ndarray                   # sup-statistic draws, ascending


def _critical_value(sorted_draws: np.ndarray, alpha: float) -> float:
    """The ``ceil(B(1-alpha))``-th order statistic of the ascending draws."""
    _check_alpha(alpha)
    return float(order_statistics(sorted_draws, 1.0 - alpha))


def _studentizers(sorted_boot: np.ndarray,
                  scale_reference: float) -> tuple[np.ndarray, bool]:
    """Per-grid-point bootstrap IQR over the normal quartile spread, floored,
    and whether any point needed the floor; ``sorted_boot`` ascends down
    each column."""
    q1, q3 = order_statistics(sorted_boot, (0.25, 0.75), axis=0)
    stud = (q3 - q1) / NORMAL_QUARTILE_SPREAD
    floor = _STUDENTIZER_FLOOR * max(1.0, scale_reference)
    floored = bool(np.any(stud < floor))
    return (np.maximum(stud, floor) if floored else stud), floored


def _band_draws(kind: str, center: np.ndarray, boot: np.ndarray,
                sorted_boot: np.ndarray | None,
                scale_reference: float = 0.0) -> _BandDraws:
    """Sorted sup-statistic draws of the replications ``boot`` around
    ``center``; a variable band also gets its studentizers, read from
    ``sorted_boot``, ``boot`` sorted down each column (unused by the other
    kinds)."""
    deviation = boot - center[None, :]
    if kind == "two-sided-constant":
        return _BandDraws(None, False, np.sort(np.max(np.abs(deviation), axis=1)))
    if kind == "one-sided-lower":
        return _BandDraws(None, False, np.sort(np.max(deviation, axis=1)))
    stud, floored = _studentizers(sorted_boot, scale_reference)
    return _BandDraws(stud, floored,
                      np.sort(np.max(np.abs(deviation) / stud[None, :], axis=1)))


def _band(target: str, grid: Grid, center: np.ndarray, kind: str,
          draws: _BandDraws, alpha: float, b_used: int, redraws: int) -> BandResult:
    """The band of ``kind`` at level ``alpha``: one rank read off its draws."""
    if draws.floored:
        warnings.warn(
            "bootstrap spread is (near) zero at some grid points; "
            "studentizer floored, variable-width band may be unreliable there",
            RuntimeWarning, stacklevel=3)
    crit = _critical_value(draws.sup, alpha)
    if kind == "two-sided-variable":
        half_width = crit * draws.studentizers
    else:
        half_width = np.full(grid.size, max(crit, 0.0) if kind == "one-sided-lower"
                             else crit)
    return BandResult(target=target, grid=grid, center=center, half_width=half_width,
                      kind=kind, critical_value=crit, b_used=b_used, redraws=redraws)


def _check_grid(grid: Grid, kind: str) -> None:
    if grid.kind != kind:
        raise ValueError(f"this product needs a grid of kind {kind!r}, "
                         f"got {grid.kind!r}")


def _memo(reps, grid: Grid, piece: str, build):
    """``build()``, computed once per replicate set, grid object and piece.

    The pieces are ``"curves"`` (the set's ``_curves``), ``"sorted"`` (their
    column-sorted copy) and one per band kind (its draws).  None depends on
    the level or the call, so the replicate set keeps them, read-only.
    """
    key = (grid, piece)
    value = reps._memo.get(key)
    if value is None:
        value = build()
        for array in value if isinstance(value, tuple) else (value,):
            if isinstance(array, np.ndarray):
                array.setflags(write=False)
        reps._memo[key] = value
    return value


def _sorted_columns(reps, grid: Grid) -> np.ndarray:
    """The replications' curves over ``grid``, sorted down each column, kept."""
    return _memo(reps, grid, "sorted", lambda: np.sort(reps._curves(grid)[1], axis=0))


def _kept_draws(reps, grid: Grid, kind: str,
                scale_reference: float = 0.0) -> _BandDraws:
    """The draws of a band of ``kind`` over the set's curves on ``grid``,
    kept by the replicate set."""
    def build():
        center, boot = reps._curves(grid)
        sorted_boot = (_sorted_columns(reps, grid)
                       if kind == "two-sided-variable" else None)
        return _band_draws(kind, center, boot, sorted_boot, scale_reference)
    return _memo(reps, grid, kind, build)


def _kept_band(reps, alpha: float, grid: Grid, target: str, kind: str,
               scale_reference: float = 0.0) -> BandResult:
    """The band of ``target`` (a CDF over values, else a quantile function
    over levels) of ``kind`` at level ``alpha``."""
    _check_grid(grid, "values" if target == "cdf" else "levels")
    draws = _kept_draws(reps, grid, kind, scale_reference)
    return _band(target, grid, reps._curves(grid)[0], kind, draws, alpha,
                 reps.b_used, reps.redraws)


def ucb_cdf_constant(reps: BootstrapReplicates, alpha: float,
                     grid: Grid) -> BandResult:
    """Constant-width uniform band for the CDF over the value grid.

    The radius is the ``ceil(B(1-alpha))``-th order statistic of the maximal
    absolute deviation between the resampled and original CDF over the grid.
    The stored band is unclipped; display layers may clip to [0, 1].
    """
    return _kept_band(reps, alpha, grid, "cdf", "two-sided-constant")


def ucb_cdf_variable(reps: BootstrapReplicates, alpha: float,
                     grid: Grid) -> BandResult:
    """Variable-width uniform band for the CDF over the value grid."""
    return _kept_band(reps, alpha, grid, "cdf", "two-sided-variable",
                      iqr(reps.point_sorted))


def ucb_quantile_constant(reps: BootstrapReplicates, alpha: float,
                          grid: Grid) -> BandResult:
    """Constant-width uniform band for the quantile function over the level grid."""
    return _kept_band(reps, alpha, grid, "quantile", "two-sided-constant")


def ucb_quantile_variable(reps: BootstrapReplicates, alpha: float,
                          grid: Grid) -> BandResult:
    """Variable-width uniform band for the quantile function.

    At each level the deviation is studentized by the bootstrap interquartile
    spread over the normal quartile spread, so the band narrows where the
    quantile is estimated more precisely.
    """
    return _kept_band(reps, alpha, grid, "quantile", "two-sided-variable",
                      iqr(reps.point_sorted))


# ---------------------------------------------------------------------------
# Two-group comparisons
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TwoGroupReplicates(FrozenArrays):
    """Group-1 minus group-0 quantiles at each level, for two independently
    resampled groups."""

    levels: np.ndarray
    delta: np.ndarray           # (T,), the point fits' differences
    delta_boot: np.ndarray      # (B, T), each replication's differences
    scale_reference: float      # the larger of the point fits' IQRs
    redraws: int                # both groups' redraws
    # The level-free work of the bands and tests, by (grid, piece).
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def b_used(self) -> int:
        return self.delta_boot.shape[0]

    def level_index(self, tau: float) -> int:
        pos = int(np.searchsorted(self.levels, tau))
        if pos >= len(self.levels) or self.levels[pos] != tau:
            raise ValueError(f"level {tau} was not evaluated by this replicate set")
        return pos

    def _curves(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        """The difference and its replications over a level grid, kept; each
        grid point must be an evaluated level."""
        _check_grid(grid, "levels")

        def build():
            idx = [self.level_index(t) for t in grid.points]
            return self.delta[idx], self.delta_boot[:, idx]
        return _memo(self, grid, "curves", build)


def two_group_quantile_replicates(sample0: Sample, sample1: Sample,
                                  bounds0: Bounds, bounds1: Bounds,
                                  cfg: BootstrapConfig, levels, *,
                                  couple_streams: bool = False,
                                  threads: int = 1) -> TwoGroupReplicates:
    """Resample both groups independently and keep, at each level, the
    group-1 minus group-0 quantile difference of every replication.

    The two groups use separate derived streams per replication.  With
    ``couple_streams=True`` both groups share one stream (a diagnostic hook:
    identical groups then produce identically zero differences).
    """
    levels = np.array(levels, dtype=np.float64)
    if np.any(levels <= 0.0) or np.any(levels >= 1.0):
        raise ValueError("all evaluation levels must lie strictly inside (0, 1)")
    if np.any(np.diff(levels) <= 0):
        raise ValueError("evaluation levels must be strictly increasing")

    point0 = np.sort(pseudo_ites(sample0.take(sample0.row_order), bounds0).values)
    point1 = np.sort(pseudo_ites(sample1.take(sample1.row_order), bounds1).values)

    delta_boot = np.empty((cfg.n_replications, len(levels)))

    def one(chunk: range) -> int:
        redraws, columns = 0, []
        for sample, bounds, group in ((sample0, bounds0, 0),
                                      (sample1, bounds1, 0 if couple_streams else 1)):
            fitted = np.empty((len(chunk), sample.n))
            redraws += _fit_chunk(sample, bounds, cfg, chunk, group, fitted)
            columns.append(order_statistics(fitted, levels))
        delta_boot[chunk.start:chunk.stop] = columns[1] - columns[0]
        return redraws

    redraws = parallel_map(one, _chunks(cfg.n_replications, sample0.n, sample1.n),
                           threads)
    return TwoGroupReplicates(
        levels=levels,
        delta=order_statistics(point1, levels) - order_statistics(point0, levels),
        delta_boot=delta_boot,
        scale_reference=max(iqr(point0), iqr(point1)),
        redraws=sum(redraws))


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
                           hi=d_hi, b_used=reps.b_used, redraws=reps.redraws),
            IntervalResult(target="iqr-difference", lo=s_lo, hi=s_hi,
                           b_used=reps.b_used, redraws=reps.redraws))


_BAND_KINDS = {"constant": "two-sided-constant", "variable": "two-sided-variable",
               "one-sided-lower": "one-sided-lower"}


def ucb_quantile_difference(reps: TwoGroupReplicates, alpha: float, grid: Grid, *,
                            band: str = "constant") -> BandResult:
    """Uniform band for the quantile-difference function over the level grid.

    ``band`` selects ``constant`` or ``variable`` width, or
    ``one-sided-lower`` for the dominance-style band ``[delta - crit, inf)``.
    """
    if band not in _BAND_KINDS:
        raise ValueError(f"unknown band selector {band!r}")
    return _kept_band(reps, alpha, grid, "quantile-difference", _BAND_KINDS[band],
                      reps.scale_reference)


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
    delta, boot = reps._curves(grid)
    if hypothesis == "location-shift":
        centered = delta - delta.mean()
        statistic = float(np.max(np.abs(centered)))
        draws = _band_draws("two-sided-constant", centered,
                            boot - boot.mean(axis=1, keepdims=True), None)
    else:
        # The equality and dominance draws are those of the constant and
        # the one-sided band.
        equality = hypothesis == "equality"
        statistic = float(np.max(np.abs(delta) if equality else delta))
        draws = _kept_draws(reps, grid,
                            "two-sided-constant" if equality else "one-sided-lower")
    critical = _critical_value(draws.sup, alpha)
    return TestResult(hypothesis=hypothesis, statistic=statistic,
                      critical_value=critical, reject=statistic > critical,
                      alpha=alpha, b_used=reps.b_used,
                      redraws=reps.redraws)
