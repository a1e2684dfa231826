"""Empirical distribution of estimated treatment effects.

The empirical CDF counts ties with multiplicity and is right continuous; the
quantile is the plain order statistic at rank ``ceil(tau * n)`` with no
interpolation, which keeps the bootstrap percentile identities exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _as_values(values) -> np.ndarray:
    """Accept a pseudo-ITE vector or any array-like of reals."""
    arr = np.asarray(getattr(values, "values", values), dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional collection of values")
    if len(arr) == 0:
        raise ValueError("expected at least one value")
    return arr


@dataclass(frozen=True, eq=False)
class Ecdf:
    """Empirical CDF over a sorted copy of the values."""

    sorted_values: np.ndarray
    n: int

    def __call__(self, v) -> np.ndarray | float:
        counts = np.searchsorted(self.sorted_values, v, side="right")
        return counts / self.n


@dataclass(frozen=True, eq=False)
class QuantileFn:
    """Left-continuous empirical quantile function on (0, 1)."""

    sorted_values: np.ndarray
    n: int

    def __call__(self, tau: float) -> float:
        if not 0.0 < tau < 1.0:
            raise ValueError(f"quantile level must lie in (0, 1), got {tau}")
        return float(self.sorted_values[math.ceil(tau * self.n) - 1])


def ecdf(values) -> Ecdf:
    arr = _as_values(values)
    return Ecdf(sorted_values=np.sort(arr), n=len(arr))


def quantile(values, tau: float) -> float:
    """The ``ceil(tau * n)``-th smallest value."""
    arr = _as_values(values)
    if not 0.0 < tau < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {tau}")
    return float(np.sort(arr)[math.ceil(tau * len(arr)) - 1])


def iqr(values) -> float:
    """Interquartile range, always nonnegative."""
    arr = np.sort(_as_values(values))
    n = len(arr)
    return float(arr[math.ceil(0.75 * n) - 1] - arr[math.ceil(0.25 * n) - 1])


def prob_positive(values) -> float:
    """Share of strictly positive values; exact zeros count as non-positive."""
    arr = _as_values(values)
    return float((arr > 0.0).mean())


@dataclass(frozen=True, eq=False)
class Grid:
    """Equally spaced evaluation points, over values or probability levels."""

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
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

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
