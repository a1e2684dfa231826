"""Seeded input files for the benchmark workloads.

Each generator takes the workload seed and writes one CSV; the same seed
always gives the same bytes.  Nothing here is committed as data: the runner
writes the files into a scratch directory and deletes them afterwards.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# Retirement-study layout (the recipe of ``tests/conftest.py``): 8702 rows,
# covariates income quartile, age quartile, married flag, small-family flag,
# with the published per-category row counts.
RETIREMENT_SEED = 20240401
RETIREMENT_COLUMNS = ("networth", "participates", "eligible", "inc", "age", "marr", "fam")
_INCOME_COUNTS = (777, 2637, 2672, 2616)
_AGE_COUNTS = (2504, 2072, 1892, 2234)
_MARRIED_COUNTS = (5747, 2955)
_SMALLFAM_COUNTS = (2958, 5744)

BIGCELL_COLUMNS = ("y", "d", "z", "g")


def _column(counts, rng):
    values = np.repeat(np.arange(len(counts)), counts)
    rng.shuffle(values)
    return values


def retirement_columns(seed: int = RETIREMENT_SEED):
    """Columns ``(y, d, z, x)`` of the retirement layout, ``x`` of shape (n, 4).

    The covariates, instrument and treatment are those of the ``retirement_csv``
    test fixture for every seed, so each seed has the same 64 cells of 15 to 336
    rows; ``seed`` draws the outcomes.  Cell sizes set the cost of the exact
    tie-breaks, so fixing them keeps the workload's cost from jumping with the
    seed.
    """
    rng = np.random.default_rng(RETIREMENT_SEED)
    n = sum(_INCOME_COUNTS)
    inc = _column(_INCOME_COUNTS, rng)
    age = _column(_AGE_COUNTS, rng)
    marr = _column(_MARRIED_COUNTS, rng)
    fam = _column(_SMALLFAM_COUNTS, rng)
    x = np.column_stack([inc, age, marr, fam])

    # Alternate the instrument within each cell and take up treatment at fixed
    # shares per arm, so every (d, z) corner of every cell is populated.
    z = np.empty(n, dtype=int)
    d = np.empty(n, dtype=int)
    order = np.lexsort(x.T[::-1])
    _, starts = np.unique(x[order], axis=0, return_index=True)
    for chunk in np.split(order, sorted(starts)[1:]):
        z[chunk] = np.arange(len(chunk)) % 2
        for arm, take_share in ((1, 0.8), (0, 0.3)):
            members = chunk[z[chunk] == arm]
            cut = max(1, int(round(take_share * len(members))))
            d[members[:cut]] = 1
            d[members[cut:]] = 0

    rng = np.random.default_rng(seed)
    y = np.round(np.exp(rng.normal(0.0, 0.6, n)) * (1.0 + inc)
                 + d * (1.0 + inc + 0.5 * age) * rng.uniform(0.5, 1.5, n), 3)
    return y, d, z, x


def write_retirement_csv(path: Path, seed: int) -> Path:
    y, d, z, x = retirement_columns(seed)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RETIREMENT_COLUMNS)
        for i in range(len(y)):
            writer.writerow([y[i], d[i], z[i], *x[i]])
    return path


def write_bigcell_csv(path: Path, seed: int, n_per_group: int) -> Path:
    """Two benchmark-population groups, one covariate cell each (``g`` = 0, 1)."""
    from itedist import generate
    from itedist._rng import derive_stream

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(BIGCELL_COLUMNS)
        for group in (0, 1):
            sample = generate(n_per_group, derive_stream(seed, group)).sample
            for y, d, z in zip(sample.outcomes, sample.treatments, sample.instruments):
                writer.writerow([repr(float(y)), int(d), int(z), group])
    return path
