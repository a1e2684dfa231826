"""Samples, covariate cells, group selection, and estimability checks.

A sample is a collection of rows (outcome, binary treatment, binary
instrument, integer-coded covariates).  All estimation downstream is local to
a covariate cell, i.e. the subsample sharing one covariate value, so the
sample carries an index from each covariate value to its row positions.
Samples are immutable after construction and safe to share across workers.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

import numpy as np

Cell = tuple[int, ...]


class IngestError(ValueError):
    """A CSV file cannot be turned into a valid sample."""


class EstimabilityError(ValueError):
    """A required cell margin is empty (or too small for leave-one-out)."""


class EmptySelectionError(ValueError):
    """A group selector matches no observation."""


@dataclass(frozen=True, eq=False)
class Sample:
    """Row-ordered data with an index of covariate cells.

    Attributes
    ----------
    outcomes, treatments, instruments : ndarray
        Row-aligned arrays (float, 0/1 int, 0/1 int).
    covariates : ndarray
        Integer matrix of shape ``(n, k)``; ``k`` may be zero, in which case
        all rows share the single empty cell ``()``.
    cell_index : dict
        Maps each covariate value to the ascending row positions holding it.
        The cells partition ``range(n)``.
    """

    outcomes: np.ndarray
    treatments: np.ndarray
    instruments: np.ndarray
    covariates: np.ndarray
    cell_index: dict[Cell, np.ndarray] = field(default=None)

    def __post_init__(self):
        y = np.ascontiguousarray(np.asarray(self.outcomes, dtype=np.float64))
        d = np.ascontiguousarray(np.asarray(self.treatments, dtype=np.int8))
        z = np.ascontiguousarray(np.asarray(self.instruments, dtype=np.int8))
        x = np.asarray(self.covariates, dtype=np.int64)
        if x.ndim == 1:
            x = x.reshape(len(x), 1)
        n = len(y)
        if not (len(d) == len(z) == len(x) == n):
            raise ValueError("outcome, treatment, instrument, covariate lengths differ")
        if n == 0:
            raise ValueError("sample must contain at least one observation")
        if not np.all(np.isfinite(y)):
            bad = int(np.flatnonzero(~np.isfinite(y))[0])
            raise ValueError(f"non-finite outcome at row {bad}")
        if not np.all((d == 0) | (d == 1)):
            raise ValueError("treatment indicator must be 0/1")
        if not np.all((z == 0) | (z == 1)):
            raise ValueError("instrument indicator must be 0/1")
        for name, arr in (("outcomes", y), ("treatments", d),
                          ("instruments", z), ("covariates", x)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "cell_index", _build_cell_index(x))

    @property
    def n(self) -> int:
        return len(self.outcomes)

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]

    @property
    def cells(self) -> list[Cell]:
        return list(self.cell_index.keys())

    def cell_rows(self, cell: Cell) -> np.ndarray:
        return self.cell_index[cell]

    def take(self, indices) -> "Sample":
        """New sample holding the given rows, in the given order."""
        idx = np.asarray(indices, dtype=np.intp)
        return Sample(
            outcomes=self.outcomes[idx],
            treatments=self.treatments[idx],
            instruments=self.instruments[idx],
            covariates=self.covariates[idx],
        )


def _build_cell_index(x: np.ndarray) -> dict[Cell, np.ndarray]:
    n, k = x.shape
    if k == 0:
        rows = np.arange(n, dtype=np.intp)
        rows.setflags(write=False)
        return {(): rows}
    # Stable lexicographic sort: cells in ascending covariate order, rows
    # ascending within each cell.
    order = np.lexsort(x.T[::-1])
    ordered = x[order]
    boundaries = np.flatnonzero(np.any(ordered[1:] != ordered[:-1], axis=1)) + 1
    index: dict[Cell, np.ndarray] = {}
    for rows in np.split(order.astype(np.intp), boundaries):
        rows.setflags(write=False)
        index[tuple(int(v) for v in x[rows[0]])] = rows
    return index


# ---------------------------------------------------------------------------
# Group selection
# ---------------------------------------------------------------------------

_SELECTOR_OPS = {
    "=": lambda a, b: a == b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
}


@dataclass(frozen=True)
class GroupSelector:
    """Conjunction of comparisons on covariate positions.

    Each atom is ``(position, op, value)`` with ``op`` one of ``=``, ``>``,
    ``<=``.  An empty atom tuple selects everything.  Two selectors used in a
    comparison must be disjoint on the sample at hand, which is checked with
    :meth:`disjoint_on`.
    """

    atoms: tuple[tuple[int, str, int], ...] = ()

    def __post_init__(self):
        for pos, op, value in self.atoms:
            if op not in _SELECTOR_OPS:
                raise ValueError(f"unsupported selector operator {op!r}")
            if pos < 0:
                raise ValueError(f"covariate position must be >= 0, got {pos}")
            int(value)

    @classmethod
    def everything(cls) -> "GroupSelector":
        return cls(())

    @classmethod
    def parse(cls, expression: str, columns: Sequence[str]) -> "GroupSelector":
        """Parse ``name=value,name>value,name<=value`` atoms against columns."""
        expression = expression.strip()
        if not expression or expression == "*":
            return cls.everything()
        atoms = []
        for raw in expression.split(","):
            raw = raw.strip()
            for op in ("<=", ">", "="):  # two-char operator first
                if op in raw:
                    name, _, value = raw.partition(op)
                    name = name.strip()
                    if name not in columns:
                        raise ValueError(
                            f"unknown covariate {name!r} in selector (have {list(columns)})")
                    try:
                        coded = int(value.strip())
                    except ValueError:
                        raise ValueError(f"selector value must be an integer in {raw!r}")
                    atoms.append((list(columns).index(name), op, coded))
                    break
            else:
                raise ValueError(f"cannot parse selector atom {raw!r}")
        return cls(tuple(atoms))

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(sorted({pos for pos, _, _ in self.atoms}))

    def matches(self, cell: Cell) -> bool:
        for pos, op, value in self.atoms:
            if pos >= len(cell):
                raise ValueError(
                    f"selector position {pos} out of range for cell of length {len(cell)}")
            if not _SELECTOR_OPS[op](cell[pos], value):
                return False
        return True

    def selected_cells(self, sample: Sample) -> set[Cell]:
        return {cell for cell in sample.cell_index if self.matches(cell)}

    def disjoint_on(self, other: "GroupSelector", sample: Sample) -> bool:
        return not (self.selected_cells(sample) & other.selected_cells(sample))


def select_group(sample: Sample, selector: GroupSelector) -> Sample:
    """Subsample of rows whose covariates satisfy the selector.

    Cells of the result stay keyed by the full covariate value and the
    original row order is preserved.  Raises :class:`EmptySelectionError` if
    nothing matches.
    """
    keep = [cell for cell in sample.cell_index if selector.matches(cell)]
    if not keep:
        raise EmptySelectionError(f"selector {selector.atoms!r} matches no observation")
    if len(keep) == len(sample.cell_index):
        return sample
    rows = np.sort(np.concatenate([sample.cell_index[c] for c in keep]))
    return sample.take(rows)


# ---------------------------------------------------------------------------
# Outcome boundaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bounds:
    """Outcome support endpoints per (treatment, cell) group."""

    by_group: dict[tuple[int, Cell], tuple[float, float]]

    def __post_init__(self):
        for (d, cell), (lo, hi) in self.by_group.items():
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"bounds for d={d}, x={cell} must be finite")
            if lo > hi:
                raise ValueError(f"lower bound exceeds upper for d={d}, x={cell}")

    def for_group(self, d: int, cell: Cell) -> tuple[float, float]:
        return self.by_group[(d, cell)]


def estimate_bounds(sample: Sample) -> Bounds:
    """Per (treatment, cell) support endpoints from the observed extremes.

    Raises :class:`EstimabilityError` when a (treatment, cell) group is
    empty, since its support cannot be located at all.
    """
    by_group: dict[tuple[int, Cell], tuple[float, float]] = {}
    for cell, rows in sample.cell_index.items():
        d_cell = sample.treatments[rows]
        y_cell = sample.outcomes[rows]
        for d in (0, 1):
            y_group = y_cell[d_cell == d]
            if len(y_group) == 0:
                raise EstimabilityError(f"no observations with d={d} in cell x={cell}")
            by_group[(d, cell)] = (float(y_group.min()), float(y_group.max()))
    return Bounds(by_group)


# ---------------------------------------------------------------------------
# Estimability report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellEstimability:
    """Margin counts and warnings for one covariate cell."""

    cell: Cell
    n_rows: int
    n_instrument: tuple[int, int]      # counts with z = 0, z = 1
    n_treatment: tuple[int, int]       # counts with d = 0, d = 1
    flags: tuple[str, ...]


@dataclass(frozen=True)
class EstimabilityReport:
    cells: tuple[CellEstimability, ...]
    min_per_group: int

    @property
    def flagged(self) -> tuple[CellEstimability, ...]:
        return tuple(c for c in self.cells if c.flags)

    @property
    def ok(self) -> bool:
        return not self.flagged


def check_estimability(sample: Sample, min_per_group: int = 10) -> EstimabilityReport:
    """Report per-cell margin counts, flagging thin or empty margins.

    This is a pure report; nothing is raised.  A first-stage warning is
    attached when the empirical treated share does not increase with the
    instrument, which contradicts instrument relevance but does not block
    the computation.
    """
    records = []
    for cell, rows in sorted(sample.cell_index.items()):
        z_cell = sample.instruments[rows]
        d_cell = sample.treatments[rows]
        n_z = (int((z_cell == 0).sum()), int((z_cell == 1).sum()))
        n_d = (int((d_cell == 0).sum()), int((d_cell == 1).sum()))
        flags = []
        for z in (0, 1):
            if n_z[z] == 0:
                flags.append(f"no Z={z} observations")
            elif n_z[z] < min_per_group:
                flags.append(f"Z={z} margin below minimum ({n_z[z]} < {min_per_group})")
        if n_z[0] > 0 and n_z[1] > 0:
            p1 = float(d_cell[z_cell == 1].mean())
            p0 = float(d_cell[z_cell == 0].mean())
            if p1 <= p0:
                flags.append(
                    f"first stage not positive (Pr[D=1|Z=1]={p1:.3f} <= Pr[D=1|Z=0]={p0:.3f})")
        records.append(CellEstimability(
            cell=cell, n_rows=len(rows), n_instrument=n_z, n_treatment=n_d,
            flags=tuple(flags)))
    return EstimabilityReport(cells=tuple(records), min_per_group=min_per_group)


def min_instrument_margin(sample: Sample) -> int:
    """Smallest instrument-margin count over all cells.

    Leave-one-out estimation needs at least 2 observations on each margin of
    every cell, so a value below 2 means pseudo-ITE estimation must fail (or,
    for a bootstrap draw, that the resample is degenerate).
    """
    smallest = sample.n
    for rows in sample.cell_index.values():
        n1 = int(sample.instruments[rows].sum())
        smallest = min(smallest, n1, len(rows) - n1)
    return smallest


# ---------------------------------------------------------------------------
# CSV ingestion / export
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnMap:
    """Names of the mapped CSV columns."""

    outcome: str
    treatment: str
    instrument: str
    covariates: tuple[str, ...] = ()


@dataclass(frozen=True)
class IngestResult:
    """A validated sample plus any label-to-code dictionaries.

    ``label_codes`` maps covariate column name to ``{label: code}`` for the
    columns whose values were not already integers.  Codes are assigned by
    sorted label order, so they are stable across runs.
    """

    sample: Sample
    column_map: ColumnMap
    label_codes: dict[str, dict[str, int]]


def _binary(raw: str) -> int:
    value = float(raw.strip())
    if value not in (0.0, 1.0):
        raise ValueError(raw)
    return int(value)


def _parse_distinct(values, parse) -> dict:
    """``{raw: parse(raw)}`` over the distinct values, None where it fails."""
    parsed = {}
    for raw in set(values):
        try:
            parsed[raw] = parse(raw)
        except ValueError:
            parsed[raw] = None
    return parsed


def _first_row(values, bad: set) -> int:
    """Position of the first value in ``bad``, or ``len(values)``."""
    if bad:
        for i, value in enumerate(values):
            if value in bad:
                return i
    return len(values)


def ingest_csv(path, column_map: ColumnMap) -> IngestResult:
    """Read an RFC-4180-style CSV (header required, UTF-8) into a sample.

    Row order is preserved.  Covariates already coded as integers are kept
    as read; any other label is assigned a stable integer code, reported in
    the result.  Every malformed value aborts ingestion with the offending
    data row number (1-based, excluding the header); an integer code outside
    the 64-bit range is malformed.  A line the ``csv`` module cannot parse,
    such as one holding a field beyond its size limit, aborts ingestion with
    its line number in the file.

    A leading UTF-8 byte-order mark, as spreadsheet programs write, is
    skipped.  The rows are read once and then checked and converted column
    by column, each check against the distinct raw values of its column.
    The error raised is the one a row-by-row reader would meet first: the
    earliest failing row, and within a row the field count, then blank
    fields in column-map order, then a non-numeric or non-finite outcome,
    then the treatment, then the instrument.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
            header = [h.strip() for h in header]
            wanted = [column_map.outcome, column_map.treatment, column_map.instrument,
                      *column_map.covariates]
            missing = [c for c in wanted if c not in header]
            if missing:
                raise IngestError(f"{path}: missing column(s) {missing}")
            rows = list(reader)
        except StopIteration:
            raise IngestError(f"{path}: file is empty (header row required)")
        except csv.Error as exc:
            raise IngestError(f"{path}: line {reader.line_num}: {exc}") from None

    # The rows before the first one with the wrong field count, as columns
    # (``itemgetter`` rather than ``zip(*rows)``, which holds an iterator,
    # a garbage-collected object, for every row at once).
    n = next((i for i, row in enumerate(rows) if len(row) != len(header)), len(rows))
    columns = {c: list(map(itemgetter(header.index(c)), rows[:n])) for c in wanted}
    outcomes = _parse_distinct(columns[column_map.outcome], float)
    treatments = _parse_distinct(columns[column_map.treatment], _binary)
    instruments = _parse_distinct(columns[column_map.instrument], _binary)
    checks = [(c, {v for v in set(columns[c]) if not v.strip()}, "is missing")
              for c in dict.fromkeys(wanted)]
    checks += [
        (column_map.outcome, {v for v, y in outcomes.items() if y is None},
         "must be numeric, got {!r}"),
        (column_map.outcome,
         {v for v, y in outcomes.items() if y is not None and not math.isfinite(y)},
         "must be finite, got {!r}"),
        (column_map.treatment, {v for v, d in treatments.items() if d is None},
         "must be 0 or 1, got {!r}"),
        (column_map.instrument, {v for v, z in instruments.items() if z is None},
         "must be 0 or 1, got {!r}"),
    ]
    # the first failing row of each check; on one row the earlier check wins
    i, _, column, message = min((_first_row(columns[c], bad), rank, c, message)
                                for rank, (c, bad, message) in enumerate(checks))
    if i < n:
        raise IngestError(f"row {i + 1}: column {column!r} "
                          + message.format(columns[column][i]))
    if n < len(rows):
        raise IngestError(f"row {n + 1}: expected {len(header)} fields, got {len(rows[n])}")
    if not rows:
        raise IngestError(f"{path}: no data rows")

    label_codes: dict[str, dict[str, int]] = {}
    coded = np.zeros((n, len(column_map.covariates)), dtype=np.int64)
    for j, column in enumerate(column_map.covariates):
        values = list(map(str.strip, columns[column]))
        try:
            coded[:, j] = list(map(int, values))
        except ValueError:
            mapping = {label: code for code, label in enumerate(sorted(set(values)))}
            coded[:, j] = list(map(mapping.__getitem__, values))
            label_codes[column] = mapping
        except OverflowError:
            limits = np.iinfo(coded.dtype)
            i = next(i for i, v in enumerate(values) if not limits.min <= int(v) <= limits.max)
            raise IngestError(f"row {i + 1}: column {column!r} must be an integer code "
                              f"that fits in 64 bits, got {columns[column][i]!r}") from None

    sample = Sample(
        outcomes=np.array(list(map(outcomes.__getitem__, columns[column_map.outcome]))),
        treatments=np.array(list(map(treatments.__getitem__,
                                     columns[column_map.treatment]))),
        instruments=np.array(list(map(instruments.__getitem__,
                                      columns[column_map.instrument]))),
        covariates=coded)
    return IngestResult(sample=sample, column_map=column_map, label_codes=label_codes)


def sample_to_csv(sample: Sample, path, column_map: ColumnMap | None = None) -> None:
    """Write a sample back to CSV (useful for round trips and examples)."""
    if column_map is None:
        names = tuple(f"x{j + 1}" for j in range(sample.n_covariates))
        column_map = ColumnMap("y", "d", "z", names)
    if len(column_map.covariates) != sample.n_covariates:
        raise ValueError("column map covariate count does not match the sample")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([column_map.outcome, column_map.treatment,
                         column_map.instrument, *column_map.covariates])
        for i in range(sample.n):
            writer.writerow([repr(float(sample.outcomes[i])),
                             int(sample.treatments[i]), int(sample.instruments[i]),
                             *(int(v) for v in sample.covariates[i])])


def write_label_codes(label_codes: dict[str, dict[str, int]], path) -> None:
    """Emit the label-to-code dictionaries as a JSON side file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(label_codes, handle, indent=2, sort_keys=True)
        handle.write("\n")
