"""Every array an immutable result holds is read-only, also after pickling."""
from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from itedist import (BandResult, BootstrapConfig, Ecdf, Grid, Sample, build_context,
                     draw_replicates, ecdf, estimate_bounds, gaussian_diagnostic,
                     generate, make_grid, pseudo_ites, two_group_quantile_replicates,
                     ucb_quantile_variable)
from itedist._rng import derive_stream


def _replicates(bench):
    gen, bounds = bench
    return draw_replicates(gen.sample, bounds, BootstrapConfig(n_replications=8, seed=5))


def _two_group(bench):
    samples = [generate(120, derive_stream(77, g)).sample for g in (0, 1)]
    return two_group_quantile_replicates(
        *samples, *(estimate_bounds(s) for s in samples),
        BootstrapConfig(n_replications=6, seed=5), [0.25, 0.5, 0.75])


HOLDERS = {
    "Grid": lambda bench: make_grid("levels", 0.1, 0.9, 9),
    "Ecdf": lambda bench: ecdf(bench[0].sample.outcomes),
    "GeneratedSample": lambda bench: bench[0],
    "ObjectiveContext": lambda bench: build_context(bench[0].sample, (), 1, bench[1]),
    "PseudoIteVector": lambda bench: pseudo_ites(bench[0].sample, bench[1]),
    "BootstrapReplicates": _replicates,
    "BandResult": lambda bench: ucb_quantile_variable(
        _replicates(bench), 0.1, make_grid("levels", 0.2, 0.8, 7)),
    "TwoGroupReplicates": _two_group,
    "GaussianDiagnostic": lambda bench: gaussian_diagnostic(0.5, 60, 30, seed=5),
}


@pytest.mark.filterwarnings("ignore:bootstrap spread:RuntimeWarning")
@pytest.mark.parametrize("name", HOLDERS)
def test_array_fields_stay_read_only_after_pickling(name, bench_small):
    holder = HOLDERS[name](bench_small)
    restored = pickle.loads(pickle.dumps(holder))
    assert type(restored) is type(holder)
    arrays = [f.name for f in dataclasses.fields(holder)
              if isinstance(getattr(holder, f.name), np.ndarray)]
    assert arrays
    for field in arrays:
        before, after = getattr(holder, field), getattr(restored, field)
        assert not before.flags.writeable, field
        assert not after.flags.writeable, field
        assert np.array_equal(before, after), field


BUILT_FROM_CALLER_ARRAYS = {
    "Grid": lambda a, b, c: Grid("levels", a),
    "Ecdf": lambda a, b, c: Ecdf(sorted_values=a, n=len(a)),
    "BandResult": lambda a, b, c: BandResult(
        target="cdf", grid=Grid("values", np.array([1.0, 2.0, 3.0])), center=a,
        half_width=b, kind="two-sided-constant", critical_value=0.05,
        b_used=10, redraws=0),
    "Sample": lambda a, b, c: Sample(outcomes=a, treatments=c,
                                     instruments=[0, 1, 0], covariates=[0, 0, 1]),
}


@pytest.mark.parametrize("name", BUILT_FROM_CALLER_ARRAYS)
def test_holders_copy_caller_arrays(name):
    # A holder built from a caller's arrays freezes copies of them: the
    # caller's arrays stay writeable, and writing to them afterwards leaves
    # the holder (and whatever it checked or cached) as it was.
    a, b = np.array([0.1, 0.2, 0.3]), np.array([0.05, 0.05, 0.05])
    c = np.array([0, 1, 1], dtype=np.int8)
    holder = BUILT_FROM_CALLER_ARRAYS[name](a, b, c)
    held = {key: value.copy() for key, value in vars(holder).items()
            if isinstance(value, np.ndarray)}
    assert held
    assert a.flags.writeable and b.flags.writeable and c.flags.writeable
    a[:] = [np.nan, 0.9, 0.05]
    b[:] = -1.0
    c[:] = [1, 0, 0]
    for key, value in held.items():
        assert np.array_equal(getattr(holder, key), value), key
    for restored in (holder, pickle.loads(pickle.dumps(holder))):
        arrays = [value for value in vars(restored).values()
                  if isinstance(value, np.ndarray)]
        assert arrays and not any(value.flags.writeable for value in arrays)
