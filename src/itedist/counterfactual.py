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
``-K``.  One hull and one binary search per query answer all ``q`` queries
over ``m`` candidates.

:func:`pseudo_ites` solves every (cell, target, instrument arm) problem of a
sample in one kernel call, over concatenated arrays with problem ids, so a
fit costs a fixed number of array operations per pass, not per problem:

* one sort by (cell, treatment, outcome) serves both arms of every (cell,
  target), and one pass of cumulative arm counts over it gives both the
  queries' sign sums and the integer slopes of ``F`` between candidates;
  segmented prefix sums (Hillis and Steele's doubling scan, over contiguous
  slices) give ``F`` at the candidates;
* only candidates where the slope strictly rises can be hull vertices; the
  slope of the edge from each of these points to its successor, with its
  error bound, is computed once and kept.  An elimination pass deletes, in
  every problem at once, each point that lies on or above the chord of its
  current neighbours, reading its two edges from that store; it computes
  only the edges that join the survivors, and later passes re-test only the
  neighbours of deleted points;
* one ``searchsorted`` over every problem's monotone upper bounds on its
  hull edge slopes, keyed by problem, answers every query; a second one,
  over the lower bounds, runs only for the queries those leave in doubt.

The result is exact, not merely close.  An edge between adjacent candidates
spans one segment, so its slope is that segment's integer slope, exact in
float below ``2**53``; a query whose ``-K`` ties it is settled by the float
bracket alone.  Every other float hull and slope test carries an error bound
built from the magnitudes of the terms its problem's ``F`` sums (``sum
|slope_j| * width_j``), which holds for any order in which a problem's own
terms are summed; a test that bound cannot settle is decided in integer
arithmetic over one power-of-two denominator (floats are dyadic rationals),
built once per problem and O(1) per test.  Flat segments and exact ties
therefore always resolve to their leftmost point.
:func:`minimize_objective` calls the same kernel with one problem and one
query.

All contexts are immutable; evaluation is pure, so batches may run in
parallel without affecting results.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._frozen import FrozenArrays
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
class ObjectiveContext(FrozenArrays):
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
    values = np.concatenate((ctx.row_y[keep], [ctx.lower, ctx.upper]))
    in_match = np.concatenate((ctx.row_z[keep] == ctx.target, [False, False]))
    in_other = np.concatenate((ctx.row_z[keep] != ctx.target, [False, False]))
    order = np.argsort(values)
    group = np.zeros(len(values), dtype=np.intp)
    one = np.zeros(1, dtype=np.intp)
    k = np.array([n_match * int(g_other) - n_other * int(g_match)], dtype=np.int64)
    return float(_smallest_minimizers(
        values[order], group, _arm_balance(group, in_match[order], 1),
        _arm_balance(group, in_other[order], 1), np.array([ctx.lower]),
        np.array([ctx.upper]), one, np.array([n_match]), np.array([n_other]), one, k)[0])


# Unit roundoff of float64, and an absolute slack that keeps the float error
# bounds valid where products underflow; any test within them is decided
# exactly, so both only need to be large enough.
_UNIT = 2.0 ** -53
_TINY = 1e-300


def _segmented_cumsum(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums of ``values`` within segments.

    ``first[e]`` is the index where element ``e``'s segment starts.  Hillis
    and Steele's doubling scan over contiguous slices: each sum adds only
    terms of its own segment (across a segment start it adds an exact zero),
    so its rounding error is bounded by those terms alone.
    """
    out = values.copy()
    reach = np.arange(len(out)) - first
    step = 1
    while step <= reach.max(initial=0):
        out[step:] += np.where(reach[step:] >= step, out[:-step], 0.0)
        step *= 2
    return out


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


def _edge_slope(x, g, err, a, b, at, unit):
    """Slope of ``g`` from points ``a`` to points ``b`` and a bound on its error.

    ``err`` bounds the error of every float ``g`` involved; the other terms
    cover the roundings in the width, the difference, the division and a
    later comparison.  ``at`` holds each point's position among its
    problem's candidates: an edge between adjacent candidates spans one
    segment, so its slope is that segment's integer slope ``unit[a]``, with
    no error wherever that is finite.
    """
    width = x[b] - x[a]
    slope = (g[b] - g[a]) / width
    bound = 2.02 * err / width + 6.0 * _UNIT * np.abs(slope) + _TINY
    one = (at[b] - at[a] == 1) & np.isfinite(unit[a])
    return np.where(one, unit[a], slope), np.where(one, 0.0, bound)


def _run_ends(group: np.ndarray, y: np.ndarray) -> np.ndarray:
    """True at the last element of each run of equal ``(group, y)``."""
    last = np.ones(len(y), dtype=bool)
    last[:-1] = (group[1:] != group[:-1]) | (y[1:] != y[:-1])
    return last


def _arm_balance(group: np.ndarray, flags: np.ndarray, n_groups: int) -> np.ndarray:
    """For each element, the flagged elements of its group up to and including
    it minus the flagged elements after it."""
    total = np.bincount(group[flags], minlength=n_groups)
    return 2 * np.cumsum(flags) - (2 * np.cumsum(total) - total)[group]


def _keyed(problem: np.ndarray, value: np.ndarray) -> np.ndarray:
    """``(problem, value)`` as complex numbers, which numpy orders
    lexicographically, so one ascending array holds every problem's values."""
    out = np.empty(len(problem), dtype=np.complex128)
    out.real = problem
    out.imag = value
    return out


# Float overflow only widens a test's error bound to infinity, which sends
# the test to the exact path, so it needs no warning.
@np.errstate(over="ignore", invalid="ignore")
def _smallest_minimizers(y, group, net_match, net_other, lo, hi, p_group, p_n_match,
                         p_n_other, q_problem, k) -> np.ndarray:
    """Smallest exact minimizer of ``F_p(t) + k * t`` for each query, all at once.

    Group ``g`` holds the treatment-target outcomes of one (cell, target):
    ``y`` is sorted by ``(group, y)``, and a group that any problem reads
    also holds its bounds ``lo[g]`` and ``hi[g]`` as elements in no arm.
    ``net_match``/``net_other`` give, for each element, the matching/other
    instrument arm's outcomes of its group at or before it minus those after
    it (see :func:`_arm_balance`).  Problem ``p`` minimizes over group
    ``p_group[p]`` with the leave-one-out arm sizes
    ``p_n_match[p]``/``p_n_other[p]``; query ``q`` asks problem
    ``q_problem[q]`` with the integer coefficient ``k[q]`` (see the module
    docstring).
    """
    # Candidates: the distinct in-bounds values of each group.
    cand = np.flatnonzero(_run_ends(group, y) & (y >= lo[group]) & (y <= hi[group]))
    c_first = np.searchsorted(group[cand], np.arange(len(lo)))
    c_count = np.diff(np.append(c_first, len(cand)))

    # Each problem copies its group's candidates.  F's slope on the segment
    # right of each candidate is an integer; G = F - F(lo) sums the rises.
    m = c_count[p_group]
    start = np.cumsum(m) - m
    prob = np.repeat(np.arange(len(m)), m)
    local = np.arange(len(prob)) - start[prob]
    src = cand[c_first[p_group[prob]] + local]
    x_all = y[src]
    slope = p_n_other[prob] * net_match[src] - p_n_match[prob] * net_other[src]
    step_up = np.zeros(len(prob))
    inner = np.flatnonzero(local > 0)
    step_up[inner] = slope[inner - 1] * (x_all[inner] - x_all[inner - 1])
    g_all = _segmented_cumsum(step_up, start[prob])
    # Any summation order of a problem's rises is off by at most ``err``.
    err = (2.0 * _UNIT * np.add.reduceat(np.abs(step_up), start) + _TINY) * (m + 1)
    err[~np.isfinite(x_all[start + m - 1] - x_all[start])] = np.inf

    # Only candidates where the slope strictly rises can be hull vertices:
    # these, with both ends, are the chain points.
    is_pt = (local == 0) | (local == m[prob] - 1)
    rest = np.flatnonzero(~is_pt)
    is_pt[rest] = slope[rest] > slope[rest - 1]
    pts = np.flatnonzero(is_pt)
    x, g, pp = x_all[pts], g_all[pts], prob[pts]
    perr = err[pp]
    # The integer slope right of each point, where a float holds it exactly.
    unit = np.where(np.abs(slope[pts]) < 2 ** 53, slope[pts], np.inf)
    pt_first = np.searchsorted(pp, np.arange(len(m) + 1))

    exact: dict[int, tuple[list, list]] = {}   # built at a problem's first doubtful test

    def exact_points(p):
        if p not in exact:
            lo_e, hi_e = start[p], start[p] + m[p]
            exact[p] = _dyadic_prefix(x_all[lo_e:hi_e], slope[lo_e:hi_e - 1],
                                      pts[pt_first[p]:pt_first[p + 1]] - lo_e)
        return exact[p]

    # The chain, as links to each point's neighbours, and the slope and its
    # error bound of the edge from each point to its successor; a problem's
    # last point has no edge and keeps slope +inf.
    prev = np.arange(len(pts)) - 1
    succ = np.arange(len(pts)) + 1
    ends = np.flatnonzero(np.diff(pp) != 0)
    prev[0], succ[-1] = -1, -1
    prev[ends + 1], succ[ends] = -1, -1
    edge_s = np.full(len(pts), np.inf)
    edge_e = np.zeros(len(pts))
    linked = np.flatnonzero(succ >= 0)
    edge_s[linked], edge_e[linked] = _edge_slope(x, g, perr[linked], linked, succ[linked],
                                                 pts, unit)

    # Elimination passes: every point on or above the chord of its current
    # neighbours is not a hull vertex, so all of them go at once; only the
    # neighbours of deleted points need testing again, and only the edges
    # that join them need computing.
    alive = np.ones(len(pts), dtype=bool)
    work = np.flatnonzero((prev >= 0) & (succ >= 0))
    while len(work):
        left, right = prev[work], succ[work]
        s1, e1 = edge_s[left], edge_e[left]
        s2, e2 = edge_s[work], edge_e[work]
        drop = ~(s1 + e1 < s2 - e2)
        for t in np.flatnonzero(drop & ~(s1 - e1 > s2 + e2)).tolist():
            p = int(pp[work[t]])
            cx, cg = exact_points(p)
            a, b, c = (int(v - pt_first[p]) for v in (left[t], work[t], right[t]))
            drop[t] = not (cg[b] - cg[a]) * (cx[c] - cx[b]) < (cg[c] - cg[b]) * (cx[b] - cx[a])
        gone = work[drop]
        if not len(gone):
            break
        alive[gone] = False
        # Unlink each run of consecutive deleted points.
        joined = succ[gone[:-1]] == gone[1:]
        left = prev[gone[np.concatenate(([True], ~joined))]]
        right = succ[gone[np.concatenate((~joined, [True]))]]
        succ[left], prev[right] = right, left
        edge_s[left], edge_e[left] = _edge_slope(x, g, perr[left], left, right, pts, unit)
        # Sorted and deduplicated by run starts: np.unique would load numpy.ma.
        work = np.sort(np.concatenate((left, right)))
        work = work[np.concatenate(([True], work[1:] != work[:-1]))]
        work = work[(prev[work] >= 0) & (succ[work] >= 0)]

    # Made monotone, the bounds on the slope of the edge right of each hull
    # vertex bracket the first edge with exact slope >= -k: it starts at or
    # after the first vertex whose upper bound reaches -k, and only where
    # that vertex's lower bound does not reach -k too can it lie further
    # right.  Complex keys let one searchsorted serve every problem.
    hull = np.flatnonzero(alive)
    hp = pp[hull]
    s, e = edge_s[hull], edge_e[hull]
    lower = np.maximum.accumulate(_keyed(hp, np.fmax(s - e, -np.inf)))
    upper = np.minimum.accumulate(_keyed(hp, np.fmin(s + e, np.inf))[::-1])[::-1]
    hull_first = np.searchsorted(hp, np.arange(len(m) + 1))
    queries = _keyed(q_problem, -np.asarray(k, dtype=np.float64))
    at = np.searchsorted(upper, queries, side="left")
    doubt = np.flatnonzero(lower.imag[at] < queries.imag)
    stop = np.searchsorted(lower, queries[doubt], side="left")
    verts: dict[int, list] = {}
    for q, b in zip(doubt.tolist(), stop.tolist()):
        p = int(q_problem[q])
        cx, cg = exact_points(p)
        first = int(hull_first[p])
        if p not in verts:
            verts[p] = (hull[first:hull_first[p + 1]] - pt_first[p]).tolist()
        kq, a, b = int(k[q]), int(at[q]) - first, b - first
        while a < b:
            mid = (a + b) // 2
            u, v = verts[p][mid], verts[p][mid + 1]
            if cg[v] - cg[u] + kq * (cx[v] - cx[u]) < 0:
                a = mid + 1
            else:
                b = mid
        at[q] = first + a
    return x[hull[at]]


@dataclass(frozen=True, eq=False)
class PseudoIteVector(FrozenArrays):
    """Estimated treatment effects aligned with sample rows.

    ``map_treatment[i]`` is the treatment the counterfactual map produced
    (the opposite of the row's own treatment) and ``minimizers[i]`` the
    minimizer found, always inside its group's outcome bounds.
    """

    values: np.ndarray
    map_treatment: np.ndarray
    minimizers: np.ndarray

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
    cells = sample.cell_table
    sizes = sample.cell_sizes
    cell = sample.cell_codes
    y = sample.outcomes
    d = sample.treatments.astype(np.intp)
    z = sample.instruments
    n_z1 = np.bincount(cell[z == 1], minlength=len(cells))
    thin = np.flatnonzero(np.minimum(n_z1, sizes - n_z1) < 2)
    if len(thin):
        c = thin[0]
        raise EstimabilityError(
            f"cell x={cells[c]} needs at least 2 observations in each instrument arm "
            f"for leave-one-out estimation (z-counts: {sizes[c] - n_z1[c]}, {n_z1[c]})")

    # Group 2 * cell + d holds the treatment-d rows of a cell: the outcomes
    # the map onto d minimizes over, and the query rows of the map onto
    # 1 - d.  A map with queries also gets its bounds as group elements.
    n_groups = 2 * len(cells)
    has_queries = np.bincount(2 * cell + 1 - d, minlength=n_groups) > 0
    lo = np.full(n_groups, np.nan)
    hi = np.full(n_groups, np.nan)
    queried = np.flatnonzero(has_queries)
    for grp in queried.tolist():
        lo[grp], hi[grp] = bounds.for_group(grp % 2, cells[grp // 2])
    n = sample.n
    group = np.concatenate((2 * cell + d, queried, queried))
    values = np.concatenate((y, lo[queried], hi[queried]))
    # Linear on rows already in (cell, treatment, outcome) order, as every
    # bootstrap fit's are; ties within a group may come in any order.
    order = np.argsort(_keyed(group, values), kind="stable")
    group, values = group[order], values[order]
    is_row = order < n
    src = order[is_row]   # rows, sorted by (group, y)
    w_match = np.zeros(len(order), dtype=bool)
    w_match[is_row] = (z == d)[src]
    net_match = _arm_balance(group, w_match, n_groups)
    net_other = _arm_balance(group, is_row & ~w_match, n_groups)

    # Each row is a query of the map onto 1 - d; its sign sums are the arm
    # balances of its group at the last row tied with its outcome, negated
    # (the matching arm of the map onto 1 - d is the other arm of its own
    # group).
    run_end = np.where(_run_ends(group, values), np.arange(len(order)), len(order))
    tie_end = np.minimum.accumulate(run_end[::-1])[::-1][is_row]
    qgroup = group[tie_end]
    in_match = ~w_match[is_row]
    # A query's own sign term is sign_left(0) = -1; removing it adds 1.
    g_match = in_match - net_other[tie_end]
    g_other = ~in_match - net_match[tie_end]
    target = 1 - d[src]
    qcell = cell[src]
    n_match = np.where(target == 1, n_z1[qcell], sizes[qcell] - n_z1[qcell]) - in_match
    n_other = sizes[qcell] - n_match - 1
    k = n_match * g_other - n_other * g_match

    # One problem per (map, arm of the left-out row) that has queries.
    key = 2 * (qgroup ^ 1) + in_match
    used = np.bincount(key, minlength=2 * n_groups) > 0
    problems = np.flatnonzero(used)
    q_problem = (np.cumsum(used) - 1)[key]
    first = np.zeros(len(problems), dtype=np.intp)
    first[q_problem] = np.arange(len(q_problem))
    phi = _smallest_minimizers(values, group, net_match, net_other, lo, hi, problems // 2,
                               n_match[first], n_other[first], q_problem, k)

    effects = np.empty(n, dtype=np.float64)
    effects[src] = np.where(target == 1, phi - y[src], y[src] - phi)
    maps = np.empty(n, dtype=np.int8)
    maps[src] = target
    minimizers = np.empty(n, dtype=np.float64)
    minimizers[src] = phi
    return PseudoIteVector(values=effects, map_treatment=maps, minimizers=minimizers)
