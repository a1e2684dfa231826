"""Samples, covariate cells, group selection, and estimability checks.

A sample is a collection of rows (outcome, binary treatment, binary
instrument, integer-coded covariates).  All estimation downstream is local to
a covariate cell, i.e. the subsample sharing one covariate value.  The cells
are factorized once, when a sample is built from raw covariates: each row
carries an integer cell code, its cell's position in a table of the distinct
covariate values in ascending order.  A subsample or resample (``take``)
carries the codes over and compacts the table, so it never sorts covariates
again; the bootstrap stacks resamples by offsetting their codes.  The
covariate matrix, the index from each covariate value to its row positions
and the rows' (cell, treatment, outcome) order are derived when first asked
for.  Samples are immutable after construction and safe to share across
workers.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
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


class Sample:
    """Row-ordered data with its covariate cells coded as integers.

    Attributes
    ----------
    outcomes, treatments, instruments : ndarray
        Row-aligned arrays (float, 0/1 int, 0/1 int), read-only copies of
        the arrays the sample was built from.
    cell_codes : ndarray
        The ``intp`` cell code of each row: its cell's position in
        ``cell_table``.
    cell_table : tuple
        The covariate value of each cell, in ascending covariate order.
        Every cell holds at least one row.  With no covariates all rows
        share the single empty cell ``()``.
    cell_sizes : ndarray
        Number of rows of each cell, aligned with ``cell_table``.
    covariates : ndarray
        Integer matrix of shape ``(n, k)``, derived from the codes on first
        use (``k`` may be zero).
    cell_index : dict
        Maps each covariate value, in table order, to the ascending row
        positions holding it; derived from the codes on first use.  The
        cells partition ``range(n)``.
    row_order : ndarray
        Row positions in (cell, treatment, outcome) order, computed on
        first use.
    """

    def __init__(self, outcomes, treatments, instruments, covariates):
        y = np.array(outcomes, dtype=np.float64)
        if y.ndim != 1:
            raise ValueError(f"outcomes must be one-dimensional, got {y.ndim} dimensions")
        d = _indicator(treatments, "treatments")
        z = _indicator(instruments, "instruments")
        x = _covariate_codes(covariates)
        n = len(y)
        if not (len(d) == len(z) == len(x) == n):
            raise ValueError("outcome, treatment, instrument, covariate lengths differ")
        if n == 0:
            raise ValueError("sample must contain at least one observation")
        if not np.all(np.isfinite(y)):
            bad = int(np.flatnonzero(~np.isfinite(y))[0])
            raise ValueError(f"non-finite outcome at row {bad}")
        codes, table = _factorize(x)
        x.setflags(write=False)
        self.__dict__["covariates"] = x
        self._set(y, d, z, codes, table, np.bincount(codes, minlength=len(table)))

    def _set(self, y, d, z, codes, table, sizes) -> None:
        for name, value in (("outcomes", y), ("treatments", d), ("instruments", z),
                            ("cell_codes", codes), ("cell_sizes", sizes)):
            value.setflags(write=False)
            self.__dict__[name] = value
        self.__dict__["cell_table"] = table

    @classmethod
    def _coded(cls, y, d, z, codes, table, sizes) -> "Sample":
        """A sample from already checked rows and their cell codes."""
        sample = cls.__new__(cls)
        sample._set(y, d, z, codes, table, sizes)
        return sample

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: samples are immutable")

    def __reduce__(self):
        # Unpickled arrays come back writeable; ``_coded`` freezes them again.
        return (Sample._coded, (self.outcomes, self.treatments, self.instruments,
                                self.cell_codes, self.cell_table, self.cell_sizes))

    @property
    def n(self) -> int:
        return len(self.outcomes)

    @property
    def n_covariates(self) -> int:
        return len(self.cell_table[0])

    @property
    def cells(self) -> list[Cell]:
        return list(self.cell_table)

    @cached_property
    def covariates(self) -> np.ndarray:
        x = np.array(self.cell_table, dtype=np.int64)[self.cell_codes]
        x.setflags(write=False)
        return x

    @cached_property
    def cell_index(self) -> dict[Cell, np.ndarray]:
        order = np.argsort(self.cell_codes, kind="stable")
        index: dict[Cell, np.ndarray] = {}
        for cell, rows in zip(self.cell_table,
                              np.split(order, np.cumsum(self.cell_sizes)[:-1])):
            rows.setflags(write=False)
            index[cell] = rows
        return index

    @cached_property
    def row_order(self) -> np.ndarray:
        order = _row_order(self.cell_codes, self.treatments, self.outcomes)
        order.setflags(write=False)
        return order

    def take(self, indices) -> "Sample":
        """New sample holding the given rows, in the given order.

        The rows keep their parent's cell codes; cells the rows miss are
        dropped from the table and the codes above them shifted down.
        """
        idx = np.asarray(indices)
        if idx.ndim != 1 or len(idx) == 0:
            raise ValueError("take needs a non-empty one-dimensional index array")
        if idx.dtype.kind not in "iu":
            raise ValueError(f"take needs integer indices, got dtype {idx.dtype}")
        codes = self.cell_codes[idx]
        sizes = np.bincount(codes, minlength=len(self.cell_table))
        table = self.cell_table
        if np.count_nonzero(sizes) < len(table):
            present = sizes > 0
            codes = (np.cumsum(present) - 1)[codes]
            table = tuple(itertools.compress(table, present.tolist()))
            sizes = sizes[present]
        return Sample._coded(self.outcomes[idx], self.treatments[idx],
                             self.instruments[idx], codes, table, sizes)


def _indicator(values, name: str) -> np.ndarray:
    """A 0/1 column as an ``int8`` copy, checked on the values as given."""
    raw = np.asarray(values)
    if raw.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got {raw.ndim} dimensions")
    ok = (raw == 0) | (raw == 1) if raw.dtype.kind in "biuf" else np.zeros(len(raw), bool)
    if not np.all(ok):
        bad = int(np.flatnonzero(~ok)[0])
        raise ValueError(f"{name} must be 0 or 1, got {raw.tolist()[bad]!r} at row {bad}")
    return np.array(raw, dtype=np.int8)


def _covariate_codes(values) -> np.ndarray:
    """Covariates as an ``(n, k)`` ``int64`` matrix, checked before the cast:
    every value an integer within the 64-bit range."""
    raw = np.asarray(values)
    if raw.ndim == 1:
        raw = raw.reshape(len(raw), 1)
    if raw.ndim != 2:
        raise ValueError(f"covariates must be a 1-D or 2-D array, got {raw.ndim} dimensions")
    kind = raw.dtype.kind
    if kind == "f":
        ok = np.isfinite(raw) & (raw == np.floor(raw)) & (raw >= -2.0**63) & (raw < 2.0**63)
    elif kind == "u":
        ok = raw <= np.iinfo(np.int64).max
    elif kind in "bi":
        ok = np.ones(raw.shape, bool)
    else:
        raise ValueError(f"covariates must be integer codes, got dtype {raw.dtype}")
    if not np.all(ok):
        row, col = np.argwhere(~ok)[0]
        raise ValueError(f"covariates must be integer codes that fit in 64 bits, "
                         f"got {raw[row, col].item()!r} at row {row}, column {col}")
    return np.array(raw, dtype=np.int64)


def _row_order(codes: np.ndarray, d: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row positions sorted by (cell code, treatment, outcome); tied outcomes
    may come in any order."""
    order = np.argsort(y)
    return order[np.argsort((2 * codes + d)[order], kind="stable")]


def _factorize(x: np.ndarray) -> tuple[np.ndarray, tuple[Cell, ...]]:
    """Cell code of each row and the table of cells in ascending covariate order."""
    n, k = x.shape
    if k == 0:
        return np.zeros(n, dtype=np.intp), ((),)
    # Stable lexicographic sort; a cell starts where a sorted row differs
    # from the one before it.
    order = np.lexsort(x.T[::-1])
    ordered = x[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    codes = np.empty(n, dtype=np.intp)
    codes[order] = np.cumsum(starts) - 1
    return codes, tuple(map(tuple, ordered[starts].tolist()))


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

    def matches(self, cell: Cell) -> bool:
        for pos, op, value in self.atoms:
            if pos >= len(cell):
                raise ValueError(
                    f"selector position {pos} out of range for cell of length {len(cell)}")
            if not _SELECTOR_OPS[op](cell[pos], value):
                return False
        return True

    def selected_cells(self, sample: Sample) -> set[Cell]:
        return {cell for cell in sample.cell_table if self.matches(cell)}

    def disjoint_on(self, other: "GroupSelector", sample: Sample) -> bool:
        return not (self.selected_cells(sample) & other.selected_cells(sample))


def select_group(sample: Sample, selector: GroupSelector) -> Sample:
    """Subsample of rows whose covariates satisfy the selector.

    Cells of the result stay keyed by the full covariate value and the
    original row order is preserved.  Raises :class:`EmptySelectionError` if
    nothing matches.
    """
    keep = np.array([selector.matches(cell) for cell in sample.cell_table])
    if not keep.any():
        raise EmptySelectionError(f"selector {selector.atoms!r} matches no observation")
    if keep.all():
        return sample
    return sample.take(np.flatnonzero(keep[sample.cell_codes]))


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


# An instrument margin of a cell with fewer rows than this is flagged as thin.
MIN_PER_GROUP = 10


@dataclass(frozen=True)
class EstimabilityReport:
    cells: tuple[CellEstimability, ...]

    @property
    def flagged(self) -> tuple[CellEstimability, ...]:
        return tuple(c for c in self.cells if c.flags)


def check_estimability(sample: Sample) -> EstimabilityReport:
    """Report per-cell margin counts, flagging thin or empty margins.

    This is a pure report; nothing is raised.  A first-stage warning is
    attached when the empirical treated share does not increase with the
    instrument, which contradicts instrument relevance but does not block
    the computation.
    """
    # counts[c] = ((z=0, d=0), (z=0, d=1)), ((z=1, d=0), (z=1, d=1)) of cell c
    counts = np.bincount(4 * sample.cell_codes + 2 * sample.instruments + sample.treatments,
                         minlength=4 * len(sample.cell_table)).reshape(-1, 2, 2).tolist()
    records = []
    for cell, ((z0d0, z0d1), (z1d0, z1d1)) in zip(sample.cell_table, counts):
        n_z = (z0d0 + z0d1, z1d0 + z1d1)
        n_d = (z0d0 + z1d0, z0d1 + z1d1)
        flags = []
        for z in (0, 1):
            if n_z[z] == 0:
                flags.append(f"no Z={z} observations")
            elif n_z[z] < MIN_PER_GROUP:
                flags.append(f"Z={z} margin below minimum ({n_z[z]} < {MIN_PER_GROUP})")
        if n_z[0] > 0 and n_z[1] > 0:
            p1 = z1d1 / n_z[1]
            p0 = z0d1 / n_z[0]
            if p1 <= p0:
                flags.append(
                    f"first stage not positive (Pr[D=1|Z=1]={p1:.3f} <= Pr[D=1|Z=0]={p0:.3f})")
        records.append(CellEstimability(
            cell=cell, n_rows=sum(n_z), n_instrument=n_z, n_treatment=n_d,
            flags=tuple(flags)))
    return EstimabilityReport(cells=tuple(records))


def min_instrument_margin(sample: Sample) -> int:
    """Smallest instrument-margin count over the cells of the sample.

    Leave-one-out estimation needs at least 2 observations on each margin of
    every cell, so a value below 2 means pseudo-ITE estimation must fail (or,
    for a bootstrap draw, that the resample is degenerate).  A resample holds
    only the cells it drew rows from, so a cell it missed entirely is not
    counted: that replication simply has no effects for the cell.
    """
    counts = np.bincount(2 * sample.cell_codes + sample.instruments,
                         minlength=2 * len(sample.cell_table))
    return int(counts.min())


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


# Rows read, checked and converted at a time: enough to spread the per-block
# work over many rows, few enough that one block's strings stay small beside
# the arrays.
_BLOCK_ROWS = 2048


def _check_block(rows, width: int, columns: dict, column_map: ColumnMap, done: int):
    """Parse and check one block of data rows, the first of which is data row
    ``done + 1``.

    ``columns`` maps each wanted column name to its field position.  Raises
    the first fault of the block; returns the block's outcomes, treatments
    and instruments, and its raw fields by column name.
    """
    # The rows before the first one with the wrong field count, as columns
    # (``itemgetter`` rather than ``zip(*rows)``, which holds an iterator,
    # a garbage-collected object, for every row at once).
    n = next((i for i, k in enumerate(map(len, rows)) if k != width), len(rows))
    kept = rows if n == len(rows) else rows[:n]
    fields = {c: list(map(itemgetter(j), kept)) for c, j in columns.items()}
    outcomes = _parse_distinct(fields[column_map.outcome], float)
    treatments = _parse_distinct(fields[column_map.treatment], _binary)
    instruments = _parse_distinct(fields[column_map.instrument], _binary)
    checks = [(c, {v for v in set(fields[c]) if not v.strip()}, "is missing")
              for c in columns]
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
    i, _, column, message = min((_first_row(fields[c], bad), rank, c, message)
                                for rank, (c, bad, message) in enumerate(checks))
    if i < n:
        raise IngestError(f"row {done + i + 1}: column {column!r} "
                          + message.format(fields[column][i]))
    if n < len(rows):
        raise IngestError(f"row {done + n + 1}: expected {width} fields, got {len(rows[n])}")
    return (np.fromiter(map(outcomes.__getitem__, fields[column_map.outcome]),
                        np.float64, n),
            np.fromiter(map(treatments.__getitem__, fields[column_map.treatment]),
                        np.int8, n),
            np.fromiter(map(instruments.__getitem__, fields[column_map.instrument]),
                        np.int8, n),
            fields)


def _covariate_column(index: dict, ids: np.ndarray, column: str, label_codes: dict):
    """Integer codes of one covariate column from its distinct raw values.

    ``index`` numbers the column's distinct raw values in order of first
    appearance and ``ids`` gives each row's number.  The column keeps its
    values if every one is an integer (an integer beyond the 64-bit range is
    malformed); otherwise each label gets its position among the sorted
    labels, recorded in ``label_codes``.
    """
    raws = list(index)
    values = list(map(str.strip, raws))
    try:
        codes = np.array(list(map(int, values)), dtype=np.int64)
    except ValueError:
        mapping = {label: code for code, label in enumerate(sorted(set(values)))}
        codes = np.array(list(map(mapping.__getitem__, values)), dtype=np.int64)
        label_codes[column] = mapping
    except OverflowError:
        limits = np.iinfo(np.int64)
        # raw values are numbered in order of first appearance, so the
        # smallest failing number is the first failing row's
        bad = next(j for j, v in enumerate(values) if not limits.min <= int(v) <= limits.max)
        i = int(np.argmax(ids == bad))
        raise IngestError(f"row {i + 1}: column {column!r} must be an integer code "
                          f"that fits in 64 bits, got {raws[bad]!r}") from None
    return codes[ids]


def ingest_csv(path, column_map: ColumnMap) -> IngestResult:
    """Read an RFC-4180-style CSV (header required, UTF-8) into a sample.

    Row order is preserved.  Covariates already coded as integers are kept
    as read; any other label is assigned a stable integer code, reported in
    the result.  Every malformed value aborts ingestion with the offending
    data row number (1-based, excluding the header); an integer code outside
    the 64-bit range is malformed.  A line the ``csv`` module cannot parse,
    such as one holding a field beyond its size limit, aborts ingestion with
    its line number in the file.  A column the map reads must appear once in
    the header; a repeated column the map does not read is ignored.

    A leading UTF-8 byte-order mark, as spreadsheet programs write, is
    skipped.  The rows are read in blocks of ``_BLOCK_ROWS``; each block is
    checked and converted column by column, each check against the distinct
    raw values of its column, before the next is read, so memory follows the
    arrays rather than the text.  Covariate columns are kept as numbers of
    their distinct raw values until the last block, when each is coded as a
    whole.  The error raised is the one a row-by-row reader would meet first:
    the earliest failing row, and within a row the field count, then blank
    fields in column-map order, then a non-numeric or non-finite outcome,
    then the treatment, then the instrument; a line the ``csv`` module
    cannot parse comes after every fault in the rows before it.
    """
    wanted = [column_map.outcome, column_map.treatment, column_map.instrument,
              *column_map.covariates]
    outcomes, treatments, instruments = [], [], []
    # Per covariate name: its distinct raw values, numbered in order of first
    # appearance, and each block's array of its rows' numbers.
    indexes = {c: {} for c in column_map.covariates}
    ids = {c: [] for c in column_map.covariates}
    done = 0
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: file is empty (header row required)")
        except csv.Error as exc:
            raise IngestError(f"{path}: line {reader.line_num}: {exc}") from None
        header = [h.strip() for h in header]
        missing = [c for c in wanted if c not in header]
        if missing:
            raise IngestError(f"{path}: missing column(s) {missing}")
        columns = {c: header.index(c) for c in dict.fromkeys(wanted)}
        for column in columns:
            if (count := header.count(column)) > 1:
                raise IngestError(f"{path}: column {column!r} appears {count} times "
                                  "in the header")
        while True:
            rows, fault = [], None
            try:
                rows.extend(itertools.islice(reader, _BLOCK_ROWS))
            except csv.Error as exc:
                # the rows read before the bad line are checked first
                fault = IngestError(f"{path}: line {reader.line_num}: {exc}")
            y, d, z, fields = _check_block(rows, len(header), columns, column_map, done)
            del rows
            if fault is not None:
                raise fault
            outcomes.append(y)
            treatments.append(d)
            instruments.append(z)
            for column, index in indexes.items():
                values = fields[column]
                for value in dict.fromkeys(values):
                    index.setdefault(value, len(index))
                ids[column].append(np.fromiter(map(index.__getitem__, values), np.intp,
                                               len(values)))
            del fields
            done += len(y)
            if len(y) < _BLOCK_ROWS:
                break
    if not done:
        raise IngestError(f"{path}: no data rows")

    label_codes: dict[str, dict[str, int]] = {}
    coded = np.empty((done, len(column_map.covariates)), dtype=np.int64)
    for j, column in enumerate(column_map.covariates):
        coded[:, j] = _covariate_column(indexes[column], np.concatenate(ids[column]), column,
                                        label_codes)
    del indexes, ids
    sample = Sample(outcomes=np.concatenate(outcomes), treatments=np.concatenate(treatments),
                    instruments=np.concatenate(instruments), covariates=coded)
    return IngestResult(sample=sample, label_codes=label_codes)


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
