"""Empirical distribution of estimated treatment effects.

Every order statistic the package reads comes from :func:`order_statistics`:
the level-``p`` quantile of ``n`` values is the ``ceil(p * n)``-th smallest
(Hyndman and Fan's type 1, no interpolation), which keeps the bootstrap
percentile identities exact.  That one rule gives the quantile and IQR
estimates, the bootstrap percentile endpoints, the studentizers and the
sup-statistic critical values.  The empirical CDF, :func:`cdf_at`, counts
ties with multiplicity and is right continuous.  Every grid, over values or
over levels, comes from :func:`make_grid`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._frozen import FrozenArrays


def _as_values(values) -> np.ndarray:
    """Accept a pseudo-ITE vector or any array-like of reals."""
    arr = np.asarray(getattr(values, "values", values), dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional collection of values")
    if len(arr) == 0:
        raise ValueError("expected at least one value")
    return arr


def order_statistics(sorted_values: np.ndarray, levels, axis: int = -1):
    """The ``ceil(level * n)``-th smallest entry along ``axis``, per level.

    ``sorted_values`` is ascending along ``axis``, which holds ``n`` entries,
    and every level lies in (0, 1].  A scalar level drops ``axis``; a
    sequence of levels puts one entry per level in its place.
    """
    levels = np.asarray(levels, dtype=np.float64)
    if not np.all((levels > 0.0) & (levels <= 1.0)):
        raise ValueError(f"order-statistic levels must lie in (0, 1], got {levels}")
    ranks = np.ceil(levels * sorted_values.shape[axis]).astype(np.intp)
    return np.take(sorted_values, ranks - 1, axis=axis)


def cdf_at(sorted_values: np.ndarray, points) -> np.ndarray:
    """Share of the ascending ``sorted_values`` at or below each point.

    A two-dimensional ``sorted_values`` holds one ascending row per
    replication and gives one row of shares per replication.
    """
    n = sorted_values.shape[-1]
    if sorted_values.ndim == 1:
        return np.searchsorted(sorted_values, points, side="right") / n
    # One search per row is faster than searching all rows in one call.
    out = np.empty((len(sorted_values), len(points)), dtype=np.float64)
    for r, row in enumerate(sorted_values):
        out[r] = np.searchsorted(row, points, side="right")
    out /= n
    return out


@dataclass(frozen=True, eq=False)
class Ecdf(FrozenArrays):
    """Empirical CDF over a sorted copy of the values."""

    copies_arrays = True

    sorted_values: np.ndarray
    n: int

    def __call__(self, v) -> np.ndarray | float:
        return cdf_at(self.sorted_values, v)


def ecdf(values) -> Ecdf:
    arr = _as_values(values)
    return Ecdf(sorted_values=np.sort(arr), n=len(arr))


def quantile(values, tau: float) -> float:
    """The ``ceil(tau * n)``-th smallest value."""
    arr = _as_values(values)
    if not 0.0 < tau < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {tau}")
    return float(order_statistics(np.sort(arr), tau))


def iqr(values) -> float:
    """Interquartile range, always nonnegative."""
    q1, q3 = order_statistics(np.sort(_as_values(values)), (0.25, 0.75))
    return float(q3 - q1)


def prob_positive(values) -> float:
    """Share of strictly positive values; exact zeros count as non-positive."""
    arr = _as_values(values)
    return float((arr > 0.0).mean())


@dataclass(frozen=True, eq=False)
class Grid(FrozenArrays):
    """Equally spaced evaluation points, over values or probability levels."""

    copies_arrays = True

    kind: str                   # "values" | "levels"
    points: np.ndarray

    def __post_init__(self):
        if self.kind not in ("values", "levels"):
            raise ValueError(f"grid kind must be 'values' or 'levels', got {self.kind!r}")
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 1 or len(pts) < 2:
            raise ValueError("grid needs at least two points")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        if self.kind == "levels" and not (pts[0] > 0.0 and pts[-1] < 1.0):
            raise ValueError("level grids must lie strictly inside (0, 1)")
        object.__setattr__(self, "points", pts)
        super().__post_init__()

    @property
    def size(self) -> int:
        return len(self.points)


def make_grid(kind: str, lo: float, hi: float, size: int) -> Grid:
    """``size`` equally spaced points from ``lo`` to ``hi`` inclusive."""
    if not lo < hi:
        raise ValueError(f"grid range must satisfy lo < hi, got [{lo}, {hi}]")
    if size < 2:
        raise ValueError(f"grid needs at least two points, got {size}")
    return Grid(kind=kind, points=np.linspace(lo, hi, size))


# The value grid when the caller gives no range spans the central 90% of the
# estimated effects.
DEFAULT_VALUE_QUANTILES = (0.05, 0.95)
DEFAULT_GRID_SIZE = 161


def default_value_grid(values, size: int = DEFAULT_GRID_SIZE) -> Grid:
    lo = quantile(values, DEFAULT_VALUE_QUANTILES[0])
    hi = quantile(values, DEFAULT_VALUE_QUANTILES[1])
    return make_grid("values", lo, hi, size)
