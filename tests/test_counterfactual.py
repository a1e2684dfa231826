"""Objective evaluation, exact minimization, and pseudo-effect estimation.

The reference implementations here (naive loops, dense-grid scans, an
exhaustive exact argmin) are kept deliberately independent of the library's
prefix-sum and convex-hull machinery.
"""
from __future__ import annotations

import dataclasses
import pickle
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itedist import (Bounds, EstimabilityError, Sample, build_context,
                     estimate_bounds, generate, minimize_objective,
                     objective_value, pseudo_ites, sign_left)
from itedist._rng import derive_stream
from itedist.counterfactual import _segmented_cumsum


def naive_objective(rows, i, d, t, y):
    """Direct transcription of the leave-one-out contrast, O(n) per call."""
    dp = 1 - d
    num = {1: 0.0, 0: 0.0}
    den = {1: 0, 0: 0}
    for j, (yj, dj, zj) in enumerate(rows):
        if j == i:
            continue
        den[zj] += 1
        if dj == d:
            num[zj] += abs(yj - t)
        else:
            num[zj] -= (1 if yj - y > 0 else -1) * t
    return num[d] / den[d] - num[dp] / den[dp]


def grid_objective(rows, i, d, y, grid):
    """Vectorized naive objective over a grid of locations."""
    keep = [(yj, dj, zj) for j, (yj, dj, zj) in enumerate(rows) if j != i]
    out = np.zeros_like(grid)
    for z in (d, 1 - d):
        members = [(yj, dj) for yj, dj, zj in keep if zj == z]
        abssum = np.zeros_like(grid)
        sgnsum = 0
        for yj, dj in members:
            if dj == d:
                abssum = abssum + np.abs(yj - grid)
            else:
                sgnsum += 1 if yj - y > 0 else -1
        arm = (abssum - sgnsum * grid) / len(members)
        out = out + (arm if z == d else -arm)
    return out


def exact_argmin(rows, i, d, y, lo, hi):
    """Smallest minimizer of the leave-``i``-out objective, by exhaustive search.

    Every candidate (both bounds and each in-bounds outcome of a
    treatment-``d`` row other than ``i``) is scored in exact rational
    arithmetic, and the smallest one attaining the minimum is returned.
    """
    keep = [(Fraction(yj), yj, dj, zj) for j, (yj, dj, zj) in enumerate(rows) if j != i]
    cands = sorted({lo, hi} | {yj for _, yj, dj, _ in keep if dj == d and lo <= yj <= hi})
    arm = {z: sum(1 for *_, zj in keep if zj == z) for z in (0, 1)}
    best = None
    for t in cands:
        exact_t = Fraction(t)
        value = Fraction(0)
        for exact_y, yj, dj, zj in keep:
            term = abs(exact_y - exact_t) if dj == d else -(1 if yj > y else -1) * exact_t
            value += term / arm[zj] if zj == d else -term / arm[zj]
        if best is None or value < best[0]:
            best = (value, t)
    return best[1]


_OUTCOMES = {
    "large offset": st.floats(0.0, 1.0).map(lambda u: 1e9 + u),
    "mixed magnitudes": st.builds(lambda u, e: u * 10.0 ** e,
                                  st.floats(0.0, 1.0), st.integers(-8, 8)),
    "outliers": st.sampled_from([1e-8, 1.0, 2.0, 3.0, 1e8]),
    "heavy ties": st.integers(0, 3).map(float),
    "3 decimals": st.floats(0.0, 1.0).map(lambda u: round(u, 3)),
}


@st.composite
def oracle_cells(draw):
    """``(y, d, z)`` of one cell; its first four rows fill both arms and groups."""
    n = draw(st.one_of(st.integers(4, 6), st.integers(7, 40)))
    y = draw(st.lists(draw(st.sampled_from(list(_OUTCOMES.values()))),
                      min_size=n, max_size=n))
    d = [0, 1, 1, 0] + draw(st.lists(st.integers(0, 1), min_size=n - 4, max_size=n - 4))
    z = [0, 1, 0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 4, max_size=n - 4))
    return y, d, z


def make_cell(rng, n, decimals=None):
    y = rng.uniform(0.0, 1.0, n)
    if decimals is not None:
        y = np.round(y, decimals)
    d = rng.integers(0, 2, n)
    z = rng.integers(0, 2, n)
    z[:4] = [0, 1, 0, 1]
    d[:4] = [0, 1, 1, 0]
    return Sample(outcomes=y, treatments=d, instruments=z,
                  covariates=np.zeros((n, 0), dtype=int))


class TestSignConvention:
    def test_zero_is_negative(self):
        assert sign_left(0.0) == -1
        assert sign_left(0) == -1

    def test_values(self):
        assert sign_left(1e-300) == 1
        assert sign_left(-1e-300) == -1
        assert np.array_equal(sign_left(np.array([-1.0, 0.0, 2.0])), [-1, -1, 1])

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=60, deadline=None)
    def test_in_range(self, u):
        assert sign_left(u) in (-1, 1)


class TestObjectiveValue:
    def test_worked_example(self, toy_sample):
        # groups for d=1: abs z=1 {2}, sgn z=1 {5}, abs z=0 {4}, sgn z=0 {1}
        bounds = Bounds({(1, ()): (1.0, 5.0), (0, ()): (1.0, 5.0)})
        ctx = build_context(toy_sample, (), 1, bounds)
        assert objective_value(ctx, None, 3.0, 3.0) == pytest.approx(-3.0, abs=1e-12)

    def test_hand_abs_sum(self):
        # cell outcomes (D=d, Z=d) = {1, 3}: sum |Y - 2| = 2
        s = Sample(outcomes=[1.0, 3.0, 0.0], treatments=[1, 1, 0],
                   instruments=[1, 1, 0], covariates=np.zeros((3, 0), dtype=int))
        bounds = Bounds({(1, ()): (0.0, 4.0), (0, ()): (0.0, 4.0)})
        ctx = build_context(s, (), 1, bounds)
        # single z=0 row with D=0: arm value is -sign(0 - y) * t / 1 = +t at y > 0
        assert objective_value(ctx, None, 2.0, 5.0) == pytest.approx(2.0 / 2 - 2.0)

    def test_sign_sum_with_tie(self):
        # group {1, 2, 4} at y=2: -1 - 1 + 1 = -1 (tie counts as -1)
        group = np.array([1.0, 2.0, 4.0])
        assert int(np.sum(sign_left(group - 2.0))) == -1

    def test_out_of_bounds_location(self, toy_sample):
        bounds = Bounds({(1, ()): (1.0, 5.0), (0, ()): (1.0, 5.0)})
        ctx = build_context(toy_sample, (), 1, bounds)
        with pytest.raises(ValueError, match="outside"):
            objective_value(ctx, None, 7.0, 3.0)

    def test_leave_out_single_margin_errors(self):
        s = Sample(outcomes=[1.0, 2.0, 3.0], treatments=[1, 0, 1],
                   instruments=[1, 0, 0], covariates=np.zeros((3, 0), dtype=int))
        bounds = estimate_bounds(s)
        ctx = build_context(s, (), 1, bounds)
        with pytest.raises(EstimabilityError):
            objective_value(ctx, 0, 1.5, 2.0)   # row 0 is the only z=1 row

    def test_row_not_in_cell(self, two_cell_sample):
        bounds = estimate_bounds(two_cell_sample)
        cell = two_cell_sample.cells[0]
        other = two_cell_sample.cells[1]
        ctx = build_context(two_cell_sample, cell, 1, bounds)
        foreign = int(two_cell_sample.cell_index[other][0])
        with pytest.raises(ValueError, match="does not belong"):
            objective_value(ctx, foreign, *[float(ctx.lower)] * 2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_loop(self, seed):
        rng = np.random.default_rng(seed)
        s = make_cell(rng, int(rng.integers(6, 25)), decimals=2)
        bounds = estimate_bounds(s)
        d = int(rng.integers(0, 2))
        ctx = build_context(s, (), d, bounds)
        rows = list(zip(s.outcomes, s.treatments, s.instruments))
        lo, hi = bounds.for_group(d, ())
        for _ in range(4):
            i = int(rng.integers(0, s.n)) if rng.random() < 0.7 else None
            t = float(rng.uniform(lo, hi))
            y = float(rng.choice(s.outcomes))
            try:
                got = objective_value(ctx, i, t, y)
            except EstimabilityError:
                continue
            assert got == pytest.approx(naive_objective(rows, i, d, t, y), abs=1e-10)

    def test_no_sign_rows_pure_deviation_contrast(self):
        # with no opposite-treatment rows the sign sums vanish and the
        # objective is just the normalized absolute-deviation difference
        s = Sample(outcomes=[1.0, 3.0, 2.0, 4.0], treatments=[1, 1, 1, 1],
                   instruments=[1, 1, 0, 0], covariates=np.zeros((4, 0), dtype=int))
        bounds = Bounds({(1, ()): (1.0, 4.0), (0, ()): (1.0, 4.0)})
        ctx = build_context(s, (), 1, bounds)
        t = 2.5
        expected = (abs(1 - t) + abs(3 - t)) / 2 - (abs(2 - t) + abs(4 - t)) / 2
        assert objective_value(ctx, None, t, 99.0) == pytest.approx(expected, abs=1e-12)

    def test_full_sample_is_no_removal(self, toy_sample):
        bounds = Bounds({(1, ()): (1.0, 5.0), (0, ()): (1.0, 5.0)})
        ctx = build_context(toy_sample, (), 1, bounds)
        rows = list(zip(toy_sample.outcomes, toy_sample.treatments,
                        toy_sample.instruments))
        assert objective_value(ctx, None, 2.5, 2.0) == pytest.approx(
            naive_objective(rows, None, 1, 2.5, 2.0), abs=1e-12)


class TestMinimize:
    def test_six_row_instance_matches_grid(self):
        rows = [(0.31, 1, 1), (0.77, 0, 1), (0.52, 1, 0), (0.11, 0, 0),
                (0.93, 1, 1), (0.40, 0, 0)]
        s = Sample(outcomes=[r[0] for r in rows], treatments=[r[1] for r in rows],
                   instruments=[r[2] for r in rows],
                   covariates=np.zeros((6, 0), dtype=int))
        bounds = estimate_bounds(s)
        ctx = build_context(s, (), 1, bounds)
        lo, hi = bounds.for_group(1, ())
        grid = np.arange(lo, hi + 1e-12, 1e-4)
        vals = grid_objective(rows, None, 1, 0.4, grid)
        tstar = minimize_objective(ctx, None, 0.4)
        assert objective_value(ctx, None, tstar, 0.4) <= vals.min() + 1e-10
        assert abs(tstar - grid[int(np.argmin(vals))]) <= 1e-4 + 1e-9

    def test_flat_segment_returns_a_minimizer(self):
        # slope cancellation makes the objective flat at -0.5 on [1.0, 2.5];
        # both kinks attain the minimum in exact arithmetic, and the returned
        # location must be one of them with the minimal value
        rows = [(1.0, 1, 1), (2.0, 0, 1), (3.0, 1, 0), (0.5, 0, 0),
                (2.5, 1, 1), (1.5, 0, 0)]
        s = Sample(outcomes=[r[0] for r in rows], treatments=[r[1] for r in rows],
                   instruments=[r[2] for r in rows],
                   covariates=np.zeros((6, 0), dtype=int))
        bounds = estimate_bounds(s)
        ctx = build_context(s, (), 1, bounds)
        tstar = minimize_objective(ctx, None, 2.0)
        assert tstar in (1.0, 2.5)
        assert objective_value(ctx, None, tstar, 2.0) == pytest.approx(-0.5)

    def test_identical_arm_multisets_linear(self):
        # both arms hold the same treated outcomes and equal sizes, so the
        # absolute terms cancel bitwise and only the sign terms set the slope
        y = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 2.5, 0.5]
        d = [1, 1, 1, 1, 1, 1, 0, 0]
        z = [1, 1, 1, 0, 0, 0, 1, 0]
        s = Sample(outcomes=y, treatments=d, instruments=z,
                   covariates=np.zeros((8, 0), dtype=int))
        bounds = estimate_bounds(s)
        ctx = build_context(s, (), 1, bounds)
        # y = 5: both sign sums are -1, so the objective is identically zero
        # at every candidate (a bitwise tie) -> smallest location wins
        assert minimize_objective(ctx, None, 5.0) == 1.0
        # y = 1.5: arm signs +1 / -1 -> objective -t/2, decreasing -> right end
        assert minimize_objective(ctx, None, 1.5) == 3.0
        # y = 2.6: both signs -1 again -> bitwise flat -> smallest location
        assert minimize_objective(ctx, None, 2.6) == 1.0

    def test_candidate_membership_and_exclusion(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            s = make_cell(rng, int(rng.integers(8, 20)), decimals=1)
            bounds = estimate_bounds(s)
            d = int(rng.integers(0, 2))
            ctx = build_context(s, (), d, bounds)
            i = int(rng.integers(0, s.n))
            y = float(rng.choice(s.outcomes))
            try:
                tstar = minimize_objective(ctx, i, y)
            except EstimabilityError:
                continue
            lo, hi = bounds.for_group(d, ())
            candidates = {lo, hi} | {
                float(s.outcomes[j]) for j in range(s.n)
                if j != i and s.treatments[j] == d and lo <= s.outcomes[j] <= hi}
            assert tstar in candidates

    def test_no_map_group_uses_endpoints(self):
        # no treated rows at all: candidates collapse to the bounds
        s = Sample(outcomes=[1.0, 2.0, 3.0, 4.0], treatments=[0, 0, 0, 0],
                   instruments=[0, 1, 0, 1], covariates=np.zeros((4, 0), dtype=int))
        bounds = Bounds({(1, ()): (0.0, 9.0), (0, ()): (1.0, 4.0)})
        ctx = build_context(s, (), 1, bounds)
        assert minimize_objective(ctx, None, 2.0) in (0.0, 9.0)

    def test_benchmark_map_accuracy(self):
        # map-to-treated at y = 2.25 is (2.25)^{3/2} = 3.375; consistency
        # shown by the shrinking error budget as n grows
        errs = {}
        for n in (500, 8000):
            runs = []
            for rep in range(9):
                gen = generate(n, derive_stream(2718, n, rep))
                bounds = estimate_bounds(gen.sample)
                ctx = build_context(gen.sample, (), 1, bounds)
                runs.append(abs(minimize_objective(ctx, None, 2.25) - 3.375))
            errs[n] = float(np.median(runs))
        assert errs[500] < 0.75
        assert errs[8000] < 0.15


class TestExactOracle:
    """Both entry points against :func:`exact_argmin` on adversarial cells."""

    # Inputs where a float scan whose tie window scales with the objective's
    # value, not with its terms, picks 1e9 + 0.01 over the exact minimizer
    # 1e9 + 0.61, and 1e8 over 1.0.
    @example(([1e9 + 0.61, 1e9 + 0.36, 1e9 + 0.13, 1e9 + 0.31, 1e9 + 0.01, 1e9 + 0.13],
              [0, 1, 1, 0, 0, 1], [0, 1, 0, 1, 0, 1]))
    @example(([2.0, 1e8, 1e8, 1e-8, 1.0, 2.0, 1e-8],
              [0, 1, 1, 0, 1, 0, 0], [0, 1, 0, 1, 0, 0, 1]))
    # Separated arms: every match-arm outcome of each map lies below every
    # other-arm one, so each elimination pass deletes few chain points.
    @example(([0.1, 0.3, 1.2, 1.4, 0.25, 0.15, 1.05, 1.3, 0.3, 1.2],
              [0, 1, 1, 0, 0, 1, 0, 1, 1, 1], [0, 1, 0, 1, 0, 1, 1, 0, 1, 0]))
    # Integer outcomes: some queries' -K equals the integer slope of a hull
    # edge between adjacent candidates, so their minimum is flat.
    @example(([1.0, 3.0, 2.0, 0.0, 2.0], [0, 1, 1, 0, 0], [0, 1, 0, 1, 0]))
    @given(oracle_cells())
    @settings(max_examples=150, deadline=None)
    def test_smallest_exact_minimizer(self, cell):
        y, d, z = cell
        s = Sample(outcomes=y, treatments=d, instruments=z,
                   covariates=np.zeros((len(y), 0), dtype=int))
        bounds = estimate_bounds(s)
        rows = list(zip(y, d, z))
        vec = pseudo_ites(s, bounds)
        for i, (y_i, d_i, _) in enumerate(rows):
            target = 1 - d_i
            assert vec.minimizers[i] == exact_argmin(rows, i, target, y_i,
                                                     *bounds.for_group(target, ()))
        for target in (0, 1):
            ctx = build_context(s, (), target, bounds)
            map_row = d.index(target)
            query_row = d.index(1 - target)
            for i, y_ref in ((None, y[-1]), (map_row, y[query_row]),
                             (query_row, y[map_row])):
                assert minimize_objective(ctx, i, y_ref) == exact_argmin(
                    rows, i, target, y_ref, *bounds.for_group(target, ()))


    # Cells of very different magnitudes and tie patterns in one kernel call:
    # each problem must keep its own candidates, error bound and hull edges.
    @example([([1e9 + 0.61, 1e9 + 0.36, 1e9 + 0.13, 1e9 + 0.31, 1e9 + 0.01, 1e9 + 0.13],
               [0, 1, 1, 0, 0, 1], [0, 1, 0, 1, 0, 1]),
              ([1.0, 3.0, 2.0, 0.0, 2.0], [0, 1, 1, 0, 0], [0, 1, 0, 1, 0]),
              ([2.0, 1e8, 1e8, 1e-8, 1.0, 2.0, 1e-8],
               [0, 1, 1, 0, 1, 0, 0], [0, 1, 0, 1, 0, 0, 1])])
    @given(st.lists(oracle_cells(), min_size=2, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_smallest_exact_minimizer_many_cells(self, cells):
        s = Sample(outcomes=[v for y, _, _ in cells for v in y],
                   treatments=[v for _, d, _ in cells for v in d],
                   instruments=[v for _, _, z in cells for v in z],
                   covariates=[c for c, (y, _, _) in enumerate(cells) for _ in y])
        bounds = estimate_bounds(s)
        vec = pseudo_ites(s, bounds)
        row = 0
        for c, (y, d, z) in enumerate(cells):
            rows = list(zip(y, d, z))
            for i, (y_i, d_i, _) in enumerate(rows):
                target = 1 - d_i
                assert vec.minimizers[row] == exact_argmin(rows, i, target, y_i,
                                                           *bounds.for_group(target, (c,)))
                row += 1


class TestSegmentedCumsum:
    def test_segments_never_mix(self):
        # Huge terms that cancel exactly, next to small integers whose sums
        # are exact in any order: a term from a neighbouring segment shows.
        segments = [[1e300, -1e300, 1e300, 1e300, -1e300],
                    [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
                    [-1e300],
                    [float(v) for v in range(1, 17)],
                    [1e300, 1e300, -1e300],
                    [3.0]]
        values = np.concatenate(segments)
        sizes = [len(seg) for seg in segments]
        first = np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
        out = np.split(_segmented_cumsum(values, first), np.cumsum(sizes)[:-1])
        for seg, sums in zip(segments, out):
            assert sums.tolist() == np.cumsum(seg).tolist()


class TestPseudoItes:
    def test_arrays_stay_read_only_after_pickling(self, two_cell_sample):
        vec = pseudo_ites(two_cell_sample, estimate_bounds(two_cell_sample))
        restored = pickle.loads(pickle.dumps(vec))
        for field in dataclasses.fields(vec):
            array = getattr(restored, field.name)
            assert np.array_equal(array, getattr(vec, field.name))
            assert not array.flags.writeable, field.name
        with pytest.raises(ValueError):
            restored.values[0] = 99.0

    def test_two_row_cell_rejected(self):
        s = Sample(outcomes=[1.0, 2.0], treatments=[0, 1], instruments=[0, 1],
                   covariates=np.zeros((2, 0), dtype=int))
        bounds = Bounds({(1, ()): (0.0, 3.0), (0, ()): (0.0, 3.0)})
        with pytest.raises(EstimabilityError, match="at least 2"):
            pseudo_ites(s, bounds)

    def test_matches_scalar_path_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = make_cell(rng, int(rng.integers(8, 30)), decimals=2)
            bounds = estimate_bounds(s)
            vec = pseudo_ites(s, bounds)
            for i in range(s.n):
                d = 1 - int(s.treatments[i])
                ctx = build_context(s, (), d, bounds)
                tstar = minimize_objective(ctx, i, float(s.outcomes[i]))
                assert vec.minimizers[i] == tstar
                expected = (tstar - s.outcomes[i]) if d == 1 else (s.outcomes[i] - tstar)
                assert vec.values[i] == expected
                assert vec.map_treatment[i] == d

    def test_minimizers_inside_bounds(self, bench_small):
        gen, bounds = bench_small
        vec = pseudo_ites(gen.sample, bounds)
        lo1, hi1 = bounds.for_group(1, ())
        lo0, hi0 = bounds.for_group(0, ())
        treated = gen.sample.treatments == 1
        assert np.all(vec.minimizers[treated] >= lo0 - 1e-12)
        assert np.all(vec.minimizers[treated] <= hi0 + 1e-12)
        assert np.all(vec.minimizers[~treated] >= lo1 - 1e-12)
        assert np.all(vec.minimizers[~treated] <= hi1 + 1e-12)
        assert np.all(np.isfinite(vec.values))

    def test_permutation_equivariance(self, bench_small):
        gen, bounds = bench_small
        base = pseudo_ites(gen.sample, bounds)
        perm = np.random.default_rng(9).permutation(gen.sample.n)
        shuffled = pseudo_ites(gen.sample.take(perm), bounds)
        assert np.array_equal(shuffled.values, base.values[perm])

    # Bounds strictly inside two cells' outcomes, so that some rows tie a
    # bound and some lie outside it; bounds outside one cell's outcomes.
    @example(([([1.0, 2.0, 2.0, 1.0, 3.0, 2.0], [0, 1, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]),
               ([0.0, 3.0, 1.0, 3.0, 1.0, 2.0], [0, 1, 1, 0, 0, 1], [0, 1, 0, 1, 1, 0])],
              [(0.25, 0.5), (0.5, 0.25), (0.25, 0.25), (0.5, 0.5)] + [(0.0, 0.0)] * 2, 0))
    @example(([([1.0, 0.0, 2.0, 1.0, 1.0], [0, 1, 1, 0, 1], [0, 1, 0, 1, 0])],
              [(-2.0, -0.5), (-0.5, -2.0)] + [(0.0, 0.0)] * 4, 1))
    @given(st.tuples(
        st.lists(oracle_cells(), min_size=1, max_size=3),
        st.lists(st.tuples(st.sampled_from([-2.0, -0.5, 0.0, 0.25, 0.5]),
                           st.sampled_from([-2.0, -0.5, 0.0, 0.25, 0.5])),
                 min_size=6, max_size=6),
        st.integers(0, 2 ** 32 - 1)))
    @settings(max_examples=80, deadline=None)
    def test_any_row_order_gives_the_same_effects(self, case):
        # The bootstrap fits rows presorted by (cell, treatment, outcome) and
        # the point fit rows in any order; each row's effect must not depend
        # on where the row sits, bit for bit.  Each (treatment, cell) group's
        # bounds move in by ``a`` and ``b`` times its range, out when negative.
        cells, moves, seed = case
        s = Sample(outcomes=[v for y, _, _ in cells for v in y],
                   treatments=[v for _, d, _ in cells for v in d],
                   instruments=[v for _, _, z in cells for v in z],
                   covariates=[c for c, (y, _, _) in enumerate(cells) for _ in y])
        observed = sorted(estimate_bounds(s).by_group.items())
        shifted = {key: (lo + a * (hi - lo), hi - b * (hi - lo))
                   for (key, (lo, hi)), (a, b) in zip(observed, moves)}
        bounds = Bounds({key: (lo, max(lo, hi)) for key, (lo, hi) in shifted.items()})
        base = pseudo_ites(s, bounds)
        for perm in (s.row_order, np.random.default_rng(seed).permutation(s.n)):
            moved = pseudo_ites(s.take(perm), bounds)
            assert moved.values.tobytes() == base.values[perm].tobytes()
            assert moved.minimizers.tobytes() == base.minimizers[perm].tobytes()

    def test_multi_cell_sample(self, two_cell_sample):
        bounds = estimate_bounds(two_cell_sample)
        vec = pseudo_ites(two_cell_sample, bounds)
        assert len(vec) == two_cell_sample.n
        # each cell's rows were solved against that cell's own bounds
        for cell, rows in two_cell_sample.cell_index.items():
            for i in rows:
                d = int(vec.map_treatment[i])
                lo, hi = bounds.for_group(d, cell)
                assert lo - 1e-12 <= vec.minimizers[i] <= hi + 1e-12

    def test_affine_equivariance_generic(self):
        rng = np.random.default_rng(21)
        s = make_cell(rng, 24, decimals=3)
        bounds = estimate_bounds(s)
        base = pseudo_ites(s, bounds)
        a, b = 1.7, -0.9
        scaled = Sample(outcomes=a * s.outcomes + b, treatments=s.treatments,
                        instruments=s.instruments, covariates=s.covariates)
        vec = pseudo_ites(scaled, estimate_bounds(scaled))
        assert np.allclose(vec.values, a * base.values, rtol=0, atol=1e-9)

    def test_affine_equivariance_exact_on_binary_grid(self):
        # quantizing outcomes to a power-of-two grid makes 2y + 3 exact in
        # floating point, so the doubling must hold bit for bit
        gen = generate(250, derive_stream(77, 3))
        y = np.round(gen.sample.outcomes * 2 ** 20) / 2 ** 20
        s = Sample(outcomes=y, treatments=gen.sample.treatments,
                   instruments=gen.sample.instruments,
                   covariates=gen.sample.covariates)
        base = pseudo_ites(s, estimate_bounds(s))
        mapped = Sample(outcomes=2.0 * y + 3.0, treatments=s.treatments,
                        instruments=s.instruments, covariates=s.covariates)
        vec = pseudo_ites(mapped, estimate_bounds(mapped))
        assert np.array_equal(vec.values, 2.0 * base.values)

    def test_deterministic(self, bench_small):
        gen, bounds = bench_small
        first = pseudo_ites(gen.sample, bounds)
        second = pseudo_ites(gen.sample, bounds)
        assert np.array_equal(first.values, second.values)

    def test_hundred_thousand_row_cell(self):
        gen = generate(100_000, derive_stream(4242, 0))
        bounds = estimate_bounds(gen.sample)
        started = time.perf_counter()
        vec = pseudo_ites(gen.sample, bounds)
        assert time.perf_counter() - started < 10.0
        assert np.all(np.isfinite(vec.values))

    def test_separated_arms_cell(self):
        # Elimination passes peel such a cell's chain a few points at a time.
        rng = np.random.default_rng(4243)
        n = 150_000
        d, z = rng.integers(0, 2, n), rng.integers(0, 2, n)
        s = Sample(outcomes=rng.uniform(0.0, 1.0, n) + (z != d), treatments=d,
                   instruments=z, covariates=np.zeros((n, 0), dtype=int))
        bounds = estimate_bounds(s)
        started = time.perf_counter()
        vec = pseudo_ites(s, bounds)
        assert time.perf_counter() - started < 10.0
        assert np.all(np.isfinite(vec.values))

    def test_benchmark_ks_distance(self):
        # calibrated over 100 draws: the median Kolmogorov-Smirnov distance
        # between estimated effects and the true effect law is ~0.10 at n=1000
        from itedist import DgpOracle
        oracle = DgpOracle()
        distances = []
        for rep in range(15):
            gen = generate(1000, derive_stream(314, rep))
            bounds = estimate_bounds(gen.sample)
            values = np.sort(pseudo_ites(gen.sample, bounds).values)
            hi = np.arange(1, 1001) / 1000
            truth = oracle.cdf(values)
            distances.append(max(np.max(np.abs(hi - truth)),
                                 np.max(np.abs(hi - 1 / 1000 - truth))))
        assert float(np.median(distances)) < 0.13
