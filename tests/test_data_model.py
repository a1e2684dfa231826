"""Sample construction, CSV ingestion, bounds, estimability, selection."""
from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from itedist import (Bounds, ColumnMap, EmptySelectionError, EstimabilityError,
                     GroupSelector, IngestError, Sample,
                     check_estimability, estimate_bounds, generate, ingest_csv,
                     min_instrument_margin, sample_to_csv, select_group)
from itedist._rng import derive_stream

from conftest import RETIREMENT_COLUMNS


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestSample:
    def test_partition_property(self, two_cell_sample):
        total = sum(len(rows) for rows in two_cell_sample.cell_index.values())
        assert total == two_cell_sample.n
        all_rows = np.sort(np.concatenate(list(two_cell_sample.cell_index.values())))
        assert np.array_equal(all_rows, np.arange(two_cell_sample.n))

    def test_no_covariates_single_cell(self):
        s = Sample(outcomes=[1.0, 2.0], treatments=[0, 1], instruments=[0, 1],
                   covariates=np.zeros((2, 0), dtype=int))
        assert s.cells == [()]

    def test_rejects_non_binary(self):
        for d, z in ((2, 0), (0, -1)):
            with pytest.raises(ValueError):
                Sample(outcomes=[1.0], treatments=[d], instruments=[z],
                       covariates=np.zeros((1, 0), dtype=int))

    def test_rejects_nan_outcome(self):
        for y in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                Sample(outcomes=[y], treatments=[0], instruments=[0],
                       covariates=np.zeros((1, 0), dtype=int))

    def test_immutable(self, two_cell_sample):
        with pytest.raises(ValueError):
            two_cell_sample.outcomes[0] = 99.0

    def test_take_preserves_order(self, two_cell_sample):
        taken = two_cell_sample.take([3, 1, 1])
        assert taken.n == 3
        assert taken.outcomes[1] == taken.outcomes[2] == two_cell_sample.outcomes[1]

    @given(st.permutations(list(range(12))), st.sampled_from([0, -2]))
    @settings(max_examples=25, deadline=None)
    def test_partition_invariant_under_permutation(self, perm, low):
        rng = np.random.default_rng(7)
        base = Sample(outcomes=rng.uniform(0, 1, 12), treatments=rng.integers(0, 2, 12),
                      instruments=rng.integers(0, 2, 12),
                      covariates=rng.integers(low, low + 3, (12, 2)))
        shuffled = base.take(perm)
        assert sum(len(r) for r in shuffled.cell_index.values()) == 12
        # cells in ascending covariate order, rows ascending within each
        expected: dict = {}
        for i, row in enumerate(shuffled.covariates.tolist()):
            expected.setdefault(tuple(row), []).append(i)
        assert list(shuffled.cell_index) == sorted(expected)
        for cell, rows in shuffled.cell_index.items():
            assert rows.tolist() == expected[cell]


# Field values for the columns y, d, z, g, h: valid ones (``g`` integer codes
# or labels, ``h`` a label) and injected faults.
_VALID = (["1.5", "0", "-0", "-2.25", " 3 ", "1e3", "1_0"],
          ["0", "1", "1.0", " 1", "-0", "1e0", "0_1"],
          ["0", "1", "0.0", "1 ", "-0"],
          ["0", "1", "-3", " 2 ", "a", " a", "b"],
          ["x", "y"])
_FAULTS = (["oops", "inf", "-inf", "nan", "1e400", "", "  "],
           ["2", "yes", "nan", "", " "],
           ["2", "no", "", "\t"],
           ["", " "],
           [""])


def _row_by_row(path, column_map):
    """Reference reader: one row at a time, every check in turn on that row.

    Returns ``(outcomes, treatments, instruments, covariates, label_codes)``
    or raises the ``IngestError`` that ``ingest_csv`` must raise too.
    """
    def binary(raw, column, row_number):
        try:
            value = float(raw.strip())
        except ValueError:
            value = None
        if value not in (0.0, 1.0):
            raise IngestError(
                f"row {row_number}: column {column!r} must be 0 or 1, got {raw!r}")
        return int(value)

    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = [h.strip() for h in next(reader)]
        wanted = [column_map.outcome, column_map.treatment, column_map.instrument,
                  *column_map.covariates]
        outcomes, treatments, instruments, raw_covariates = [], [], [], []
        for row_number, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise IngestError(
                    f"row {row_number}: expected {len(header)} fields, got {len(row)}")
            fields = {c: row[header.index(c)] for c in wanted}
            for column, value in fields.items():
                if value.strip() == "":
                    raise IngestError(f"row {row_number}: column {column!r} is missing")
            raw_y = fields[column_map.outcome]
            try:
                y = float(raw_y)
            except ValueError:
                raise IngestError(
                    f"row {row_number}: column {column_map.outcome!r} must be numeric, "
                    f"got {raw_y!r}")
            if not math.isfinite(y):
                raise IngestError(
                    f"row {row_number}: column {column_map.outcome!r} must be finite, "
                    f"got {raw_y!r}")
            outcomes.append(y)
            treatments.append(binary(fields[column_map.treatment],
                                     column_map.treatment, row_number))
            instruments.append(binary(fields[column_map.instrument],
                                      column_map.instrument, row_number))
            raw_covariates.append([fields[c].strip() for c in column_map.covariates])
    if not outcomes:
        raise IngestError(f"{path}: no data rows")
    label_codes = {}
    coded = np.zeros((len(outcomes), len(column_map.covariates)), dtype=np.int64)
    for j, column in enumerate(column_map.covariates):
        values = [raw[j] for raw in raw_covariates]
        try:
            coded[:, j] = [int(v) for v in values]
        except ValueError:
            mapping = {label: code for code, label in enumerate(sorted(set(values)))}
            coded[:, j] = [mapping[v] for v in values]
            label_codes[column] = mapping
    return outcomes, treatments, instruments, coded, label_codes


class TestIngest:
    def test_four_row_file(self, tmp_path):
        path = _write(tmp_path / "ok.csv",
                      "y,d,z,x1\n1.5,1,0,0\n2.0,0,1,0\n3.5,1,1,1\n0.5,0,0,1\n")
        result = ingest_csv(path, ColumnMap("y", "d", "z", ("x1",)))
        assert result.sample.n == 4
        assert set(result.sample.cells) == {(0,), (1,)}
        assert result.label_codes == {}

    def test_non_binary_treatment_names_row(self, tmp_path):
        path = _write(tmp_path / "bad.csv",
                      "y,d,z\n1.0,1,0\n2.0,0,1\n3.0,2,0\n")
        with pytest.raises(IngestError, match=r"row 3.*'d'"):
            ingest_csv(path, ColumnMap("y", "d", "z"))

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path / "cols.csv", "y,d\n1.0,1\n")
        with pytest.raises(IngestError, match="missing column"):
            ingest_csv(path, ColumnMap("y", "d", "z"))

    def test_non_numeric_outcome(self, tmp_path):
        path = _write(tmp_path / "y.csv", "y,d,z\noops,1,0\n")
        with pytest.raises(IngestError, match=r"row 1.*'y'"):
            ingest_csv(path, ColumnMap("y", "d", "z"))

    def test_missing_value_aborts(self, tmp_path):
        path = _write(tmp_path / "gap.csv", "y,d,z\n1.0,1,0\n2.0,,1\n")
        with pytest.raises(IngestError, match="row 2"):
            ingest_csv(path, ColumnMap("y", "d", "z"))

    def test_ragged_row(self, tmp_path):
        path = _write(tmp_path / "ragged.csv", "y,d,z\n1.0,1,0\n2.0,1\n")
        with pytest.raises(IngestError, match="row 2"):
            ingest_csv(path, ColumnMap("y", "d", "z"))

    def test_oversized_field_names_file_and_line(self, tmp_path):
        # csv refuses a field beyond its 131,072-character limit
        path = _write(tmp_path / "long.csv", 'y,d,z\n1.0,1,0\n"' + "x" * 200_000 + '",1,0\n')
        with pytest.raises(IngestError, match=r"long\.csv: line 3: field larger than"):
            ingest_csv(path, ColumnMap("y", "d", "z"))

    @pytest.mark.parametrize("code", ["99999999999999999999", "-9223372036854775809"])
    def test_covariate_code_beyond_int64_names_row(self, code, tmp_path):
        path = _write(tmp_path / "wide.csv",
                      f"y,d,z,g\n1.0,1,0,9223372036854775807\n2.0,0,1,{code}\n")
        with pytest.raises(IngestError, match=rf"row 2: column 'g' .*'{code}'"):
            ingest_csv(path, ColumnMap("y", "d", "z", ("g",)))

    def test_label_covariates_coded_stably(self, tmp_path):
        path = _write(tmp_path / "labels.csv",
                      "y,d,z,grp\n1.0,1,0,low\n2.0,0,1,high\n3.0,1,1,mid\n4.0,0,0,low\n")
        result = ingest_csv(path, ColumnMap("y", "d", "z", ("grp",)))
        assert result.label_codes == {"grp": {"high": 0, "low": 1, "mid": 2}}
        assert result.sample.covariates[:, 0].tolist() == [1, 0, 2, 1]

    def test_retirement_layout(self, retirement_csv):
        result = ingest_csv(retirement_csv, RETIREMENT_COLUMNS)
        assert result.sample.n == 8702
        assert result.sample.n_covariates == 4
        assert all(len(cell) == 4 for cell in result.sample.cells)

    def test_csv_round_trip(self, two_cell_sample, tmp_path):
        path = tmp_path / "round.csv"
        sample_to_csv(two_cell_sample, path)
        back = ingest_csv(path, ColumnMap("y", "d", "z", ("x1",))).sample
        assert np.array_equal(back.outcomes, two_cell_sample.outcomes)
        assert np.array_equal(back.covariates, two_cell_sample.covariates)

    def test_byte_order_mark_skipped(self, tmp_path):
        text = "y,d,z,grp\n1.5,1,0,a\n2.0,0,1,b\n"
        plain = ingest_csv(_write(tmp_path / "plain.csv", text),
                           ColumnMap("y", "d", "z", ("grp",)))
        bom = tmp_path / "bom.csv"
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        marked = ingest_csv(bom, ColumnMap("y", "d", "z", ("grp",)))
        assert marked.sample.outcomes.tolist() == plain.sample.outcomes.tolist()
        assert marked.sample.covariates.tolist() == plain.sample.covariates.tolist()
        assert marked.label_codes == plain.label_codes == {"grp": {"a": 0, "b": 1}}

    @given(rows=st.lists(st.tuples(*map(st.sampled_from, _VALID)), max_size=7),
           faults=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 5),
                                     st.integers(0, 6)), max_size=3),
           covariates=st.sampled_from([(), ("g",), ("g", "h"), ("h", "g")]))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_columnar_reader_matches_row_by_row_reader(self, rows, faults, covariates,
                                                       tmp_path):
        table = [list(row) for row in rows]
        for k, j, v in faults:
            if not table:
                break
            row = table[k % len(table)]
            if j < min(len(row), len(_FAULTS)):
                row[j] = _FAULTS[j][v % len(_FAULTS[j])]
            elif j == len(_FAULTS):
                row[:] = ([], row[:-1], row + ["extra"])[v % 3]   # empty, short, long
        lines = ["y,d,z,g,h", *(",".join(row) for row in table)]
        path = _write(tmp_path / "faults.csv", "\n".join(lines) + "\n")
        column_map = ColumnMap("y", "d", "z", covariates)
        try:
            expected = _row_by_row(path, column_map)
        except IngestError as exc:
            with pytest.raises(IngestError) as raised:
                ingest_csv(path, column_map)
            assert str(raised.value) == str(exc)
            return
        result = ingest_csv(path, column_map)
        y, d, z, x, label_codes = expected
        sample = result.sample
        assert sample.outcomes.tobytes() == np.asarray(y, dtype=np.float64).tobytes()
        assert sample.treatments.tolist() == d and sample.instruments.tolist() == z
        assert sample.covariates.dtype == x.dtype and np.array_equal(sample.covariates, x)
        assert result.label_codes == label_codes


class TestBounds:
    def test_min_max(self):
        s = Sample(outcomes=[2.0, 5.0, 3.0, 1.0], treatments=[1, 1, 1, 0],
                   instruments=[0, 1, 0, 1], covariates=np.zeros((4, 0), dtype=int))
        bounds = estimate_bounds(s)
        assert bounds.for_group(1, ()) == (2.0, 5.0)
        assert bounds.for_group(0, ()) == (1.0, 1.0)   # singleton group

    def test_empty_group_errors(self):
        s = Sample(outcomes=[1.0, 2.0], treatments=[1, 1], instruments=[0, 1],
                   covariates=np.zeros((2, 0), dtype=int))
        with pytest.raises(EstimabilityError, match=r"d=0"):
            estimate_bounds(s)

    def test_permutation_invariant(self, two_cell_sample):
        perm = np.random.default_rng(3).permutation(two_cell_sample.n)
        assert estimate_bounds(two_cell_sample).by_group == \
            estimate_bounds(two_cell_sample.take(perm)).by_group

    def test_benchmark_outcome_ranges(self):
        # Outcome is (rank+1)^2 untreated and (rank+1)^3 treated, rank in [0,1]
        gen = generate(10_000, derive_stream(55, 0))
        bounds = estimate_bounds(gen.sample)
        lo0, hi0 = bounds.for_group(0, ())
        lo1, hi1 = bounds.for_group(1, ())
        assert abs(lo0 - 1.0) < 0.02 and abs(hi0 - 4.0) < 0.02
        assert abs(lo1 - 1.0) < 0.02 and abs(hi1 - 8.0) < 0.05

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Bounds({(0, ()): (2.0, 1.0)})
        with pytest.raises(ValueError):
            Bounds({(0, ()): (0.0, float("inf"))})


class TestEstimability:
    def test_empty_margin_flagged(self):
        s = Sample(outcomes=np.arange(12.0), treatments=[0, 1] * 6,
                   instruments=[1] * 12, covariates=np.zeros((12, 0), dtype=int))
        report = check_estimability(s)
        assert any("no Z=0" in f for f in report.cells[0].flags)

    def test_balanced_cell_clean(self):
        s = Sample(outcomes=np.arange(24.0), treatments=[0, 1] * 12,
                   instruments=[0] * 12 + [1] * 12,
                   covariates=np.zeros((24, 0), dtype=int))
        report = check_estimability(s, min_per_group=1)
        # first stage is flat here, which is a warning, not a margin flag
        assert not any("margin" in f or "no Z" in f for f in report.cells[0].flags)

    def test_first_stage_warning(self):
        z = np.array([0] * 10 + [1] * 10)
        d = np.where(z == 0, 1, 0)   # instrument pushes the wrong way
        s = Sample(outcomes=np.arange(20.0), treatments=d, instruments=z,
                   covariates=np.zeros((20, 0), dtype=int))
        report = check_estimability(s, min_per_group=1)
        assert any("first stage" in f for f in report.cells[0].flags)

    def test_benchmark_clean_at_n250(self):
        gen = generate(250, derive_stream(60, 0))
        assert check_estimability(gen.sample).ok

    def test_counts_consistent(self, two_cell_sample):
        report = check_estimability(two_cell_sample)
        for cell in report.cells:
            assert sum(cell.n_instrument) == cell.n_rows
            assert sum(cell.n_treatment) == cell.n_rows

    def test_min_margin(self):
        s = Sample(outcomes=np.arange(5.0), treatments=[0, 1, 0, 1, 0],
                   instruments=[0, 0, 1, 1, 1], covariates=np.zeros((5, 0), dtype=int))
        assert min_instrument_margin(s) == 2


class TestSelectors:
    def test_parse_atoms(self):
        sel = GroupSelector.parse("inc>1, marr=1", ["inc", "age", "marr"])
        assert sel.atoms == ((0, ">", 1), (2, "=", 1))
        assert sel.positions == (0, 2)
        assert sel.matches((2, 9, 1)) and not sel.matches((1, 9, 1))

    def test_parse_le(self):
        sel = GroupSelector.parse("age<=2", ["inc", "age"])
        assert sel.matches((0, 2)) and not sel.matches((0, 3))

    def test_parse_unknown_column(self):
        with pytest.raises(ValueError, match="unknown covariate"):
            GroupSelector.parse("foo=1", ["inc"])

    def test_select_all_is_identity(self, two_cell_sample):
        assert select_group(two_cell_sample, GroupSelector.everything()) is two_cell_sample

    def test_empty_selection(self, two_cell_sample):
        sel = GroupSelector(atoms=((0, "=", 99),))
        with pytest.raises(EmptySelectionError):
            select_group(two_cell_sample, sel)

    def test_idempotent(self, two_cell_sample):
        sel = GroupSelector(atoms=((0, "=", 1),))
        once = select_group(two_cell_sample, sel)
        twice = select_group(once, sel)
        assert np.array_equal(once.outcomes, twice.outcomes)

    def test_cells_keep_full_covariate_key(self, retirement_csv):
        sample = ingest_csv(retirement_csv, RETIREMENT_COLUMNS).sample
        sel = GroupSelector.parse("inc>1", list(RETIREMENT_COLUMNS.covariates))
        selected = select_group(sample, sel)
        assert all(len(cell) == 4 for cell in selected.cells)
        assert all(cell[0] > 1 for cell in selected.cells)

    def test_income_above_median_count(self, retirement_csv):
        # quartile sizes are fixed by the layout: 2672 + 2616 above the median
        sample = ingest_csv(retirement_csv, RETIREMENT_COLUMNS).sample
        sel = GroupSelector.parse("inc>1", list(RETIREMENT_COLUMNS.covariates))
        assert select_group(sample, sel).n == 2672 + 2616

    def test_disjointness(self, retirement_csv):
        sample = ingest_csv(retirement_csv, RETIREMENT_COLUMNS).sample
        cols = list(RETIREMENT_COLUMNS.covariates)
        above = GroupSelector.parse("inc>1", cols)
        below = GroupSelector.parse("inc<=1", cols)
        assert above.disjoint_on(below, sample)
        assert not above.disjoint_on(above, sample)

    def test_row_order_preserved(self, two_cell_sample):
        sel = GroupSelector(atoms=((0, "=", 0),))
        sub = select_group(two_cell_sample, sel)
        kept = [i for i in range(two_cell_sample.n)
                if two_cell_sample.covariates[i, 0] == 0]
        assert np.array_equal(sub.outcomes, two_cell_sample.outcomes[kept])
