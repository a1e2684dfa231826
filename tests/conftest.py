"""Shared fixtures: tiny hand samples, benchmark draws, a retirement-study file."""
from __future__ import annotations

import csv
import tracemalloc

import numpy as np
import pytest

from itedist import ColumnMap, Sample, estimate_bounds, generate
from itedist._rng import derive_stream


def traced_peak(call) -> int:
    """Bytes that ``call()`` holds at its peak beyond what was held before it,
    as ``tracemalloc`` counts them (numpy reports its buffers to it, so the
    count does not depend on the allocator or the machine)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def toy_sample() -> Sample:
    """Four rows, one cell; matches the worked objective example."""
    return Sample(outcomes=[2.0, 5.0, 4.0, 1.0], treatments=[1, 0, 1, 0],
                  instruments=[1, 1, 0, 0], covariates=np.zeros((4, 0), dtype=int))


@pytest.fixture
def two_cell_sample() -> Sample:
    rng = np.random.default_rng(41)
    n = 40
    y = np.round(rng.uniform(0.0, 10.0, n), 3)
    d = rng.integers(0, 2, n)
    z = np.tile([0, 1], n // 2)
    x = np.repeat([0, 1], n // 2).reshape(-1, 1)
    return Sample(outcomes=y, treatments=d, instruments=z, covariates=x)


@pytest.fixture(scope="session")
def bench_small():
    """A benchmark draw with its estimated bounds (n=300)."""
    gen = generate(300, derive_stream(1001, 0))
    return gen, estimate_bounds(gen.sample)


def _random_cell_sample(rng, n_lo=6, n_hi=30, decimals=None):
    """Single-cell sample with both instrument margins >= 2 by construction."""
    n = int(rng.integers(n_lo, n_hi + 1))
    y = rng.uniform(0.0, 1.0, n)
    if decimals is not None:
        y = np.round(y, decimals)
    d = rng.integers(0, 2, n)
    z = rng.integers(0, 2, n)
    z[:2] = [0, 1]
    z[2:4] = [0, 1]
    d[:4] = [0, 1, 0, 1]   # every (d, x) group populated for bounds
    return Sample(outcomes=y, treatments=d, instruments=z,
                  covariates=np.zeros((n, 0), dtype=int))


@pytest.fixture
def random_cell_factory():
    return _random_cell_sample


# ---------------------------------------------------------------------------
# Synthetic file in the retirement-study layout: 8702 rows, covariates
# income quartile, age quartile, married flag, small-family flag, with the
# published per-category row counts.
# ---------------------------------------------------------------------------

RETIREMENT_COLUMNS = ColumnMap(outcome="networth", treatment="participates",
                               instrument="eligible",
                               covariates=("inc", "age", "marr", "fam"))

_INCOME_COUNTS = (777, 2637, 2672, 2616)
_AGE_COUNTS = (2504, 2072, 1892, 2234)
_MARRIED_COUNTS = (5747, 2955)      # code 0 = unmarried, 1 = married
_SMALLFAM_COUNTS = (2958, 5744)     # code 0 = family >= 3, 1 = family < 3


def _column(counts, rng):
    values = np.repeat(np.arange(len(counts)), counts)
    rng.shuffle(values)
    return values


@pytest.fixture(scope="session")
def retirement_csv(tmp_path_factory):
    """Deterministic synthetic data in the published layout (n = 8702)."""
    rng = np.random.default_rng(20240401)
    n = sum(_INCOME_COUNTS)
    inc = _column(_INCOME_COUNTS, rng)
    age = _column(_AGE_COUNTS, rng)
    marr = _column(_MARRIED_COUNTS, rng)
    fam = _column(_SMALLFAM_COUNTS, rng)
    x = np.column_stack([inc, age, marr, fam])

    # Alternate the instrument within each cell so every margin holds at
    # least half the cell; assign treatment within each arm at fixed shares
    # so all four (d, z) corners are populated in cells of size >= 8.
    z = np.empty(n, dtype=int)
    d = np.empty(n, dtype=int)
    order = np.lexsort(x.T[::-1])
    _, starts = np.unique(x[order], axis=0, return_index=True)
    min_cell = n
    for chunk in np.split(order, sorted(starts)[1:]):
        min_cell = min(min_cell, len(chunk))
        z[chunk] = np.arange(len(chunk)) % 2
        for arm, take_share in ((1, 0.8), (0, 0.3)):
            members = chunk[z[chunk] == arm]
            cut = max(1, int(round(take_share * len(members))))
            d[members[:cut]] = 1
            d[members[cut:]] = 0
    assert min_cell >= 8, f"degenerate synthetic layout (min cell {min_cell})"

    y = np.round(np.exp(rng.normal(0.0, 0.6, n)) * (1.0 + inc)
                 + d * (1.0 + inc + 0.5 * age) * rng.uniform(0.5, 1.5, n), 3)
    path = tmp_path_factory.mktemp("retirement") / "retirement.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([RETIREMENT_COLUMNS.outcome, RETIREMENT_COLUMNS.treatment,
                         RETIREMENT_COLUMNS.instrument, *RETIREMENT_COLUMNS.covariates])
        for i in range(n):
            writer.writerow([y[i], d[i], z[i], inc[i], age[i], marr[i], fam[i]])
    return path
