"""Counterfactual outcome maps and pseudo treatment effects.

For a covariate cell and a target treatment ``d``, the counterfactual map
sends an outcome observed under treatment ``1 - d`` to the outcome the same
individual would have had under ``d``.  Its sample estimate minimizes, over
the known outcome support, a leave-one-out objective that contrasts the two
instrument arms of the cell:

* rows with treatment ``d`` contribute absolute deviations ``|Y - t|``,
* rows with treatment ``1 - d`` contribute a sign term linear in ``t``,
* each instrument arm is normalized by its own (leave-one-out) row count.

The objective is piecewise linear in ``t`` with kinks only at the outcomes of
treatment-``d`` rows, so the exact global minimum over the closed support is
attained on the kink set plus the endpoints (the candidates).  We return the
smallest minimizer, which is deterministic and, for positive scale factors,
affine equivariant.

The sample objective is a difference of convex piecewise-linear functions and
need not be convex, so derivative or grid searches are unsafe.  Scaled by the
positive factor ``n_match * n_other``, it reads ``F(t) + K * t``, where

* ``F(t) = n_other * s_match(t) - n_match * s_other(t)``, where ``s_*`` sums
  ``|Y - t|`` over an arm's treatment-``d`` rows, depends only on those
  outcomes and the leave-one-out arm sizes, so every query of one (cell,
  target, instrument arm of the left-out row) shares it,
* ``K = n_match * g_other - n_other * g_match``, where ``g_*`` sums an arm's
  sign terms at the query's outcome, is an integer.

The smallest minimizer of ``F(t) + K * t`` over the candidates is the leftmost
vertex of the lower convex hull of ``F`` whose right edge has slope at least
``-K``.  One hull (Andrew's monotone chain) and one binary search per query
answer all ``q`` queries over ``m`` candidates in ``O((m + q) log m)``.

The result is exact, not merely close.  Between consecutive candidates the
slope of ``F`` is an integer, so only candidates where it strictly rises can be
hull vertices.  Every float hull and slope test carries an error bound built
from the magnitudes of the terms ``F`` sums (``sum |slope_j| * width_j``); a
test that bound cannot settle is decided in integer arithmetic over one
power-of-two denominator (floats are dyadic rationals), built once per
problem and O(1) per test.  Flat segments and exact ties therefore always
resolve to their leftmost point.

All contexts are immutable; evaluation is pure, so batches may run in
parallel without affecting results.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Bounds, Cell, EstimabilityError, Sample


def sign_left(u):
    """Left-continuous sign: +1 for u > 0, -1 for u <= 0 (so sign_left(0) == -1)."""
    if np.isscalar(u):
        return 1 if u > 0 else -1
    u = np.asarray(u)
    return np.where(u > 0, 1, -1)


def _prefix_sums(sorted_values: np.ndarray) -> np.ndarray:
    out = np.zeros(len(sorted_values) + 1, dtype=np.float64)
    np.cumsum(sorted_values, out=out[1:])
    return out


def _abs_sum(sorted_values: np.ndarray, prefix: np.ndarray, t):
    """Sum of |value - t| over the group via binary search and prefix sums.

    ``t`` may be a scalar or an array.
    """
    m = len(sorted_values)
    k = np.searchsorted(sorted_values, t, side="right")
    return (t * k - prefix[k]) + ((prefix[m] - prefix[k]) - t * (m - k))


def _sign_sum(sorted_values: np.ndarray, y):
    """Sum of sign_left(value - y) over the group; ties at y count as -1."""
    m = len(sorted_values)
    return m - 2 * np.searchsorted(sorted_values, y, side="right")


@dataclass(frozen=True, eq=False)
class ObjectiveContext:
    """Preprocessed arrays for one (cell, target treatment) objective.

    ``match`` refers to the instrument arm equal to the target treatment,
    ``other`` to the opposite arm.  ``abs_*`` hold the sorted outcomes of the
    treatment-``target`` rows (the absolute-deviation groups) with prefix
    sums; ``sgn_*`` hold the sorted outcomes of the remaining rows (the sign
    groups).  Row-level arrays allow leave-one-out queries by row id.
    """

    cell: Cell
    target: int
    lower: float
    upper: float
    abs_match: np.ndarray
    abs_match_prefix: np.ndarray
    abs_other: np.ndarray
    abs_other_prefix: np.ndarray
    sgn_match: np.ndarray
    sgn_other: np.ndarray
    n_match: int
    n_other: int
    row_ids: np.ndarray
    row_y: np.ndarray
    row_d: np.ndarray
    row_z: np.ndarray

    def _locate(self, i: int) -> int:
        pos = int(np.searchsorted(self.row_ids, i))
        if pos >= len(self.row_ids) or self.row_ids[pos] != i:
            raise ValueError(f"row {i} does not belong to cell x={self.cell}")
        return pos


def build_context(sample: Sample, cell: Cell, d: int, bounds: Bounds) -> ObjectiveContext:
    """Objective context for the map onto treatment ``d`` within ``cell``.

    Requires both instrument arms of the cell to be populated; evaluation and
    sign sums then cost O(log n_x) per query via binary search.
    """
    if d not in (0, 1):
        raise ValueError(f"target treatment must be 0 or 1, got {d}")
    if cell not in sample.cell_index:
        raise ValueError(f"cell x={cell} not present in the sample")
    rows = sample.cell_index[cell]
    y = sample.outcomes[rows]
    dv = sample.treatments[rows]
    zv = sample.instruments[rows]
    n_match = int((zv == d).sum())
    n_other = len(rows) - n_match
    if n_match == 0 or n_other == 0:
        raise EstimabilityError(
            f"cell x={cell} has an empty instrument arm "
            f"(z-counts: {n_match} with z={d}, {n_other} with z={1 - d})")
    abs_mask = dv == d
    abs_match = np.sort(y[abs_mask & (zv == d)])
    abs_other = np.sort(y[abs_mask & (zv != d)])
    lo, hi = bounds.for_group(d, cell)
    return ObjectiveContext(
        cell=cell, target=d, lower=float(lo), upper=float(hi),
        abs_match=abs_match, abs_match_prefix=_prefix_sums(abs_match),
        abs_other=abs_other, abs_other_prefix=_prefix_sums(abs_other),
        sgn_match=np.sort(y[~abs_mask & (zv == d)]),
        sgn_other=np.sort(y[~abs_mask & (zv != d)]),
        n_match=n_match, n_other=n_other,
        row_ids=rows, row_y=y, row_d=dv, row_z=zv)


def _loo_signs(ctx: ObjectiveContext, i, y):
    """Sign sums at ``y`` and instrument-arm sizes after removing row ``i``.

    Returns ``(g_match, g_other, n_match, n_other)``; ``i`` may be None.
    """
    g_match = _sign_sum(ctx.sgn_match, y)
    g_other = _sign_sum(ctx.sgn_other, y)
    n_match, n_other = ctx.n_match, ctx.n_other
    if i is not None:
        pos = ctx._locate(i)
        in_match = int(ctx.row_z[pos]) == ctx.target
        if in_match:
            n_match -= 1
        else:
            n_other -= 1
        if int(ctx.row_d[pos]) != ctx.target:
            if in_match:
                g_match = g_match - sign_left(ctx.row_y[pos] - y)
            else:
                g_other = g_other - sign_left(ctx.row_y[pos] - y)
    if n_match < 1 or n_other < 1:
        raise EstimabilityError(
            f"removing row {i} empties an instrument arm of cell x={ctx.cell}")
    return g_match, g_other, n_match, n_other


def objective_value(ctx: ObjectiveContext, i, t: float, y: float) -> float:
    """Leave-``i``-out objective at location ``t`` and reference outcome ``y``.

    ``i=None`` evaluates the full-sample analogue.  ``t`` must lie within the
    context's outcome bounds.
    """
    if not ctx.lower <= t <= ctx.upper:
        raise ValueError(
            f"t={t} outside the outcome bounds [{ctx.lower}, {ctx.upper}]")
    g_match, g_other, n_match, n_other = _loo_signs(ctx, i, y)
    s_match = _abs_sum(ctx.abs_match, ctx.abs_match_prefix, t)
    s_other = _abs_sum(ctx.abs_other, ctx.abs_other_prefix, t)
    if i is not None:
        pos = ctx._locate(i)
        if int(ctx.row_d[pos]) == ctx.target:
            if int(ctx.row_z[pos]) == ctx.target:
                s_match = s_match - np.abs(ctx.row_y[pos] - t)
            else:
                s_other = s_other - np.abs(ctx.row_y[pos] - t)
    return float((s_match - g_match * t) / n_match - (s_other - g_other * t) / n_other)


def minimize_objective(ctx: ObjectiveContext, i, y: float) -> float:
    """Exact global minimizer of the leave-``i``-out objective over the bounds.

    The objective is piecewise linear in ``t`` with kinks only at outcomes of
    treatment-``target`` rows, so the minimum over the closed interval is
    attained on those kinks or the interval endpoints; the smallest exact
    minimizer among them is returned.
    """
    g_match, g_other, n_match, n_other = _loo_signs(ctx, i, y)
    keep = ctx.row_d == ctx.target
    if i is not None:
        keep = keep & (ctx.row_ids != i)
    k = np.array([n_match * int(g_other) - n_other * int(g_match)], dtype=np.int64)
    return float(_smallest_minimizers(ctx.row_y[keep], ctx.row_z[keep] == ctx.target,
                                      ctx.lower, ctx.upper, n_match, n_other, k)[0])


# Unit roundoff of float64, and an absolute slack that keeps the float error
# bounds valid where products underflow; any test within them is decided
# exactly, so both only need to be large enough.
_UNIT = 2.0 ** -53
_TINY = 1e-300


def _dyadic_prefix(cands: np.ndarray, slopes: np.ndarray, pts) -> tuple[list, list]:
    """Candidates and ``F - F(c_0)`` at ``pts``, as integers over one denominator.

    Every float is an integer times a power of two, so scaling by the smallest
    power present makes all candidates integers; ``F`` rises by ``slope *
    width`` on each segment, so its prefix differences are integers too.
    """
    mant, expo = np.frexp(cands)
    nums = (mant * 2.0 ** 53).astype(np.int64).tolist()
    shifts = (expo - expo.min()).tolist()
    xs = [num << shift for num, shift in zip(nums, shifts)]
    rises = [0]
    for slope, left, right in zip(slopes.tolist(), xs, xs[1:]):
        rises.append(rises[-1] + slope * (right - left))
    return [xs[p] for p in pts], [rises[p] for p in pts]


def _edge_slope(x, g, err, a, b):
    """Slope of ``g`` from point ``a`` to point ``b`` and a bound on its error.

    ``err`` bounds the error of every float ``g``; the other terms cover the
    roundings in the width, the difference, the division and a later
    comparison.  Takes list items or array slices alike.
    """
    width = x[b] - x[a]
    slope = (g[b] - g[a]) / width
    return slope, 2.02 * err / width + 6.0 * _UNIT * abs(slope) + _TINY


# Float overflow only widens a test's error bound to infinity, which sends
# the test to the exact path, so it needs no warning.
@np.errstate(over="ignore", invalid="ignore")
def _smallest_minimizers(abs_y, abs_in_match, lo, hi, n_match, n_other,
                         k) -> np.ndarray:
    """Smallest exact minimizer of ``F(t) + k * t`` over the candidates, per ``k``.

    ``abs_y`` holds the treatment-target outcomes (leave-one-out removal
    already applied) and ``abs_in_match`` marks those in the matching
    instrument arm; ``n_match``/``n_other`` are the leave-one-out arm sizes
    and ``k`` the integer query coefficients (see the module docstring).
    """
    abs_match = np.sort(abs_y[abs_in_match])
    abs_other = np.sort(abs_y[~abs_in_match])
    in_support = abs_y[(abs_y >= lo) & (abs_y <= hi)]
    cands = np.unique(np.concatenate((np.array([lo, hi]), in_support)))

    # Integer slope of F on each segment between consecutive candidates, and
    # the float rise of F along it.
    left = cands[:-1]
    slopes = (n_other * (2 * np.searchsorted(abs_match, left, side="right")
                         - len(abs_match))
              - n_match * (2 * np.searchsorted(abs_other, left, side="right")
                           - len(abs_other)))
    rise = slopes * np.diff(cands)
    # Only candidates where the slope strictly rises can be hull vertices:
    # these are the points of the chain.  Their G = F - F(lo), summed in
    # floats, is off by at most ``err``.
    pts = np.flatnonzero(np.concatenate(([True], slopes[1:] > slopes[:-1],
                                         [len(cands) > 1])))
    x = cands[pts]
    g = np.concatenate(([0.0], np.cumsum(rise)))[pts]
    err = (2.0 * _UNIT * float(np.abs(rise).sum()) + _TINY) * (len(cands) + 1)
    if not np.isfinite(cands[-1] - cands[0]):
        err = np.inf   # an overflowing width would hide the slope error
    exact = None   # the points in integers, built at the first doubtful test

    # Andrew's monotone chain over the points; edges between neighbouring
    # points come precomputed.
    adj_s, adj_e = _edge_slope(x, g, err, slice(None, -1), slice(1, None))
    adj_s, adj_e = adj_s.tolist(), adj_e.tolist()
    xs, gs = x.tolist(), g.tolist()
    hull, hull_s, hull_e = [0], [], []
    for p in range(1, len(xs)):
        if hull[-1] == p - 1:
            sp, ep = adj_s[p - 1], adj_e[p - 1]
        else:
            sp, ep = _edge_slope(xs, gs, err, hull[-1], p)
        # Drop the top vertex j while slope(i, j) >= slope(j, p).
        while hull_s and not hull_s[-1] + hull_e[-1] < sp - ep:
            if not hull_s[-1] - hull_e[-1] > sp + ep:
                if exact is None:
                    exact = _dyadic_prefix(cands, slopes, pts)
                cx, cg = exact
                i, j = hull[-2], hull[-1]
                if (cg[j] - cg[i]) * (cx[p] - cx[j]) < (cg[p] - cg[j]) * (cx[j] - cx[i]):
                    break
            hull.pop()
            hull_s.pop()
            hull_e.pop()
            sp, ep = _edge_slope(xs, gs, err, hull[-1], p)
        hull.append(p)
        hull_s.append(sp)
        hull_e.append(ep)

    # Made monotone, the bounds on the hull's edge slopes bracket the first
    # edge with exact slope >= -k between two searchsorted positions.
    hull_s, hull_e = np.array(hull_s), np.array(hull_e)
    lower = np.fmax.accumulate(np.fmax(hull_s - hull_e, -np.inf))
    upper = np.fmin.accumulate(np.fmin(hull_s + hull_e, np.inf)[::-1])[::-1]
    target = -np.asarray(k, dtype=np.float64)
    pos = np.searchsorted(upper, target, side="left")
    last = np.searchsorted(lower, target, side="left")
    for q in np.flatnonzero(pos < last).tolist():
        if exact is None:
            exact = _dyadic_prefix(cands, slopes, pts)
        cx, cg = exact
        kq, a, b = int(k[q]), int(pos[q]), int(last[q])
        while a < b:
            mid = (a + b) // 2
            u, v = hull[mid], hull[mid + 1]
            if cg[v] - cg[u] + kq * (cx[v] - cx[u]) < 0:
                a = mid + 1
            else:
                b = mid
        pos[q] = a
    return x[np.array(hull)[pos]]


@dataclass(frozen=True, eq=False)
class PseudoIteVector:
    """Estimated treatment effects aligned with sample rows.

    ``map_treatment[i]`` is the treatment the counterfactual map produced
    (the opposite of the row's own treatment) and ``minimizers[i]`` the
    minimizer found, always inside its group's outcome bounds.
    """

    values: np.ndarray
    map_treatment: np.ndarray
    minimizers: np.ndarray

    def __post_init__(self):
        for arr in (self.values, self.map_treatment, self.minimizers):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.values)


def pseudo_ites(sample: Sample, bounds: Bounds) -> PseudoIteVector:
    """Leave-one-out treatment effect estimates for every row of the sample.

    For a treated row the effect is the outcome minus its mapped untreated
    counterfactual; for an untreated row it is the mapped treated
    counterfactual minus the outcome.  Deterministic given the sample.

    Raises :class:`EstimabilityError` if any cell has an instrument arm with
    fewer than two observations (leaving that row out would empty the arm).
    """
    values = np.empty(sample.n, dtype=np.float64)
    maps = np.empty(sample.n, dtype=np.int8)
    minimizers = np.empty(sample.n, dtype=np.float64)
    for cell, rows in sample.cell_index.items():
        cell_y = sample.outcomes[rows]
        cell_d = sample.treatments[rows]
        cell_z = sample.instruments[rows]
        n_z1 = int(cell_z.sum())
        if min(n_z1, len(rows) - n_z1) < 2:
            raise EstimabilityError(
                f"cell x={cell} needs at least 2 observations in each instrument arm "
                f"for leave-one-out estimation (z-counts: {len(rows) - n_z1}, {n_z1})")
        for d in (0, 1):
            # Query rows have treatment 1 - d: they form the two sign groups,
            # and leaving one out only touches its sign sum and arm size.
            query_pos = np.flatnonzero(cell_d == 1 - d)
            if len(query_pos) == 0:
                continue
            lo, hi = bounds.for_group(d, cell)
            abs_mask = cell_d == d
            abs_y = cell_y[abs_mask]
            abs_in_match = cell_z[abs_mask] == d
            y_q = cell_y[query_pos]
            in_match = cell_z[query_pos] == d
            # Each query's own sign term is sign_left(0) = -1; removing it adds 1.
            g_match = _sign_sum(np.sort(y_q[in_match]), y_q) + in_match
            g_other = _sign_sum(np.sort(y_q[~in_match]), y_q) + ~in_match
            n_match_full = int((cell_z == d).sum())
            n_other_full = len(rows) - n_match_full
            phi = np.empty(len(query_pos), dtype=np.float64)
            for arm in (True, False):
                sel = in_match == arm
                if not sel.any():
                    continue
                n_match = n_match_full - arm
                n_other = n_other_full - (not arm)
                k = n_match * g_other[sel] - n_other * g_match[sel]
                phi[sel] = _smallest_minimizers(abs_y, abs_in_match, float(lo), float(hi),
                                                n_match, n_other, k)
            targets = rows[query_pos]
            if d == 1:
                values[targets] = phi - y_q
            else:
                values[targets] = y_q - phi
            maps[targets] = d
            minimizers[targets] = phi
    return PseudoIteVector(values=values, map_treatment=maps, minimizers=minimizers)
