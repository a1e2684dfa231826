"""Command-line interface: flows, error discipline, reproducibility."""
from __future__ import annotations

import csv
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from itedist import generate, sample_to_csv
from itedist._rng import derive_stream
from itedist.cli import main
from itedist.reports import REPORT_SCHEMA

from conftest import RETIREMENT_COLUMNS

import jsonschema


@pytest.fixture(scope="module")
def bench_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "bench.csv"
    gen = generate(400, derive_stream(900, 0))
    sample_to_csv(gen.sample, path)
    return path


@pytest.fixture(scope="module")
def split_csv(tmp_path_factory):
    """Two benchmark populations marked by a binary covariate."""
    path = tmp_path_factory.mktemp("cli") / "split.csv"
    g0 = generate(260, derive_stream(901, 0))
    g1 = generate(260, derive_stream(901, 1))
    from itedist import ColumnMap, Sample
    y = np.concatenate([g0.sample.outcomes, g1.sample.outcomes])
    d = np.concatenate([g0.sample.treatments, g1.sample.treatments])
    z = np.concatenate([g0.sample.instruments, g1.sample.instruments])
    x = np.repeat([0, 1], 260).reshape(-1, 1)
    sample_to_csv(Sample(y, d, z, x), path, ColumnMap("y", "d", "z", ("grp",)))
    return path


@pytest.fixture(scope="module")
def labeled_csv(split_csv, tmp_path_factory):
    """``split_csv`` with its groups labelled ``north`` (0) and ``south`` (1)."""
    path = tmp_path_factory.mktemp("cli") / "labeled.csv"
    header, *rows = split_csv.read_text().splitlines()
    names = {"0": "north", "1": "south"}
    path.write_text("".join(f"{line}\n" for line in [header, *(
        f"{head},{names[code]}" for head, code in (row.rsplit(",", 1) for row in rows))]))
    return path


def run_cli(*argv) -> int:
    return main(list(argv))


def _unreachable(*args, **kwargs):
    raise AssertionError("the command ran past its config checks")


class TestAnalyze:
    def test_full_report(self, bench_csv, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("analyze", "--input", str(bench_csv), "--bootstrap", "40",
                       "--seed", "3", "--report", "prob-positive,quantile,iqr,cdf,bands",
                       "--tau", "0.25,0.5", "--grid-size", "21",
                       "--output", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc["metadata"]["n_per_group"] == {"all": 400}
        targets = [i["target"] for i in doc["intervals"]]
        assert targets.count("quantile") == 2
        assert "prob-positive" in targets and "iqr" in targets and "cdf" in targets
        assert {b["target"] for b in doc["bands"]} == {"quantile", "cdf"}
        prob = next(i for i in doc["intervals"] if i["target"] == "prob-positive")
        assert 0.0 <= prob["lo"] <= prob["hi"] <= 1.0

    def test_prob_positive_interval_near_one(self, tmp_path):
        # the benchmark effect is nonnegative (true share is 1), so at n=1000
        # the interval concentrates near the top of the unit range
        src = tmp_path / "bench1000.csv"
        gen = generate(1000, derive_stream(901, 0))
        sample_to_csv(gen.sample, src)
        out = tmp_path / "pp.json"
        code = run_cli("analyze", "--input", str(src), "--bootstrap", "100",
                       "--seed", "901", "--report", "prob-positive",
                       "--output", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        prob = next(i for i in doc["intervals"] if i["target"] == "prob-positive")
        assert prob["lo"] >= 0.85 and prob["hi"] >= 0.99

    def test_invalid_alpha_is_config_error(self, bench_csv, tmp_path, capsys):
        code = run_cli("analyze", "--input", str(bench_csv), "--alpha", "1.5",
                       "--output", str(tmp_path / "x.json"))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert not (tmp_path / "x.json").exists()

    def test_missing_input_flag(self, tmp_path):
        assert run_cli("analyze", "--output", str(tmp_path / "x.json")) == 2

    def test_bad_flag_value_is_config_error(self, bench_csv, tmp_path, capsys):
        code = run_cli("analyze", "--input", str(bench_csv), "--bootstrap", "abc",
                       "--output", str(tmp_path / "x.json"))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "bootstrap" in err["message"]

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        code = run_cli("analyze", "--input", str(tmp_path / "absent.csv"),
                       "--output", str(tmp_path / "x.json"))
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io" and "absent.csv" in err["message"]

    def test_missing_output_directory_rejected_before_ingest(
            self, bench_csv, tmp_path, capsys, monkeypatch):
        import itedist.cli

        def unreachable(*args, **kwargs):
            raise AssertionError("the command ran past the output check")

        monkeypatch.setattr(itedist.cli, "ingest_csv", unreachable)
        monkeypatch.setattr(itedist.cli, "draw_replicates", unreachable)
        code = run_cli("analyze", "--input", str(bench_csv), "--bootstrap", "10",
                       "--output", str(tmp_path / "missing" / "x.json"))
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io" and "missing" in err["message"]

    @pytest.mark.parametrize("flags", [
        ("--tau", "1.5"), ("--tau", "0.5,0"), ("--tau-range", "0.2,0.1"),
        ("--tau-range", "0,0.9"), ("--tau-range", "0.1,1"), ("--v-range", "2,1"),
        ("--grid-size", "1"), ("--max-redraws", "-1")])
    def test_bad_level_or_grid_value_rejected_before_ingest(
            self, flags, bench_csv, tmp_path, capsys, monkeypatch):
        import itedist.cli
        monkeypatch.setattr(itedist.cli, "ingest_csv", _unreachable)
        monkeypatch.setattr(itedist.cli, "draw_replicates", _unreachable)
        code = run_cli("analyze", "--input", str(bench_csv), "--bootstrap", "5",
                       "--report", "quantile,bands", *flags,
                       "--output", str(tmp_path / "x.json"))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and flags[0][2:] in err["message"]

    def test_oversized_csv_field_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "long.csv"
        src.write_text('y,d,z\n"' + "x" * 200_000 + '",1,0\n')
        code = run_cli("analyze", "--input", str(src), "--output", str(tmp_path / "x.json"))
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data" and "line 2" in err["message"]

    def test_repeated_header_column_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "dup.csv"
        src.write_text("y,d,z,y\n1.0,1,0,2.0\n2.0,0,1,3.0\n")
        code = run_cli("analyze", "--input", str(src), "--output", str(tmp_path / "x.json"))
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data"
        assert err["message"] == f"{src}: column 'y' appears 2 times in the header"
        assert not (tmp_path / "x.json").exists()

    def test_constant_outcomes_leave_no_default_value_grid(self, tmp_path, capsys):
        # Every effect is 0, so the 5% and 95% quantiles that would span the
        # default value grid coincide.
        src = tmp_path / "flat.csv"
        src.write_text("y,d,z\n" + "".join(f"5.0,{i % 2},{i // 2 % 2}\n" for i in range(24)))
        out = tmp_path / "x.json"
        code = run_cli("analyze", "--input", str(src), "--bootstrap", "5",
                       "--report", "bands", "--output", str(out))
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data"
        assert "5% and 95% quantiles of the effects coincide" in err["message"]
        assert "--v-range" in err["message"]
        assert not out.exists()

    def test_memory_error_is_memory_document(self, bench_csv, tmp_path, capsys,
                                             monkeypatch):
        import itedist.cli

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.84 PiB")

        monkeypatch.setattr(itedist.cli, "draw_replicates", out_of_memory)
        out = tmp_path / "x.json"
        code = run_cli("analyze", "--input", str(bench_csv), "--bootstrap", "10",
                       "--output", str(out))
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"command": "analyze", "error": "memory",
                       "message": "Unable to allocate 2.84 PiB"}
        assert not out.exists()

    def test_ingest_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,d,z\n1.0,5,0\n")
        assert run_cli("analyze", "--input", str(bad), "--bootstrap", "10",
                       "--output", str(tmp_path / "x.json")) == 1

    def test_group_selection(self, split_csv, tmp_path):
        out = tmp_path / "grp.json"
        code = run_cli("analyze", "--input", str(split_csv), "--covariate-cols",
                       "grp", "--group", "grp=0", "--bootstrap", "30",
                       "--output", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["n_per_group"] == {"all": 260}

    def test_csv_format_with_bands(self, bench_csv, tmp_path):
        out = tmp_path / "report.csv"
        code = run_cli("analyze", "--input", str(bench_csv), "--bootstrap", "30",
                       "--report", "quantile,bands", "--grid-size", "11",
                       "--format", "csv", "--output", str(out))
        assert code == 0
        assert out.read_text().startswith("section,")
        assert (tmp_path / "report_bands.csv").exists()

    def test_label_side_file(self, tmp_path):
        src = tmp_path / "labels.csv"
        rows = ["y,d,z,grp"]
        rng = np.random.default_rng(5)
        for i in range(40):
            rows.append(f"{rng.uniform(1, 3):.3f},{i % 2},{(i // 2) % 2},"
                        f"{'low' if i % 3 else 'high'}")
        src.write_text("\n".join(rows) + "\n")
        out = tmp_path / "rep.json"
        code = run_cli("analyze", "--input", str(src), "--covariate-cols", "grp",
                       "--bootstrap", "20", "--output", str(out))
        assert code == 0
        side = json.loads((tmp_path / "rep_labels.json").read_text())
        assert side == {"grp": {"high": 0, "low": 1}}

    def test_retirement_layout_report_shape(self, retirement_csv, tmp_path):
        out = tmp_path / "ret.json"
        code = run_cli("analyze", "--input", str(retirement_csv),
                       "--outcome-col", RETIREMENT_COLUMNS.outcome,
                       "--treatment-col", RETIREMENT_COLUMNS.treatment,
                       "--iv-col", RETIREMENT_COLUMNS.instrument,
                       "--covariate-cols", ",".join(RETIREMENT_COLUMNS.covariates),
                       "--bootstrap", "20", "--seed", "1",
                       "--output", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["n_per_group"] == {"all": 8702}
        estimates = doc["point_estimates"]
        assert {"prob_positive", "quantile@0.5", "iqr"} <= set(estimates)
        assert {i["target"] for i in doc["intervals"]} == {
            "prob-positive", "quantile", "iqr"}


class TestCompare:
    def test_report(self, split_csv, tmp_path):
        out = tmp_path / "cmp.json"
        code = run_cli("compare", "--input", str(split_csv), "--covariate-cols",
                       "grp", "--group0", "grp=0", "--group1", "grp=1",
                       "--bootstrap", "40", "--tau", "0.5", "--grid-size", "7",
                       "--tau-range", "0.2,0.8", "--band", "variable",
                       "--output", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc["metadata"]["n_per_group"] == {"group0": 260, "group1": 260}
        assert {t["hypothesis"] for t in doc["tests"]} == {
            "equality", "location-shift", "dominance"}
        assert {i["target"] for i in doc["intervals"]} == {
            "quantile-difference", "iqr-difference"}
        assert doc["bands"][0]["target"] == "quantile-difference"

    @pytest.mark.parametrize("flags", [
        ("--tau", "1.5"), ("--tau-range", "0.9,0.1"), ("--grid-size", "1"),
        ("--max-redraws", "-2")])
    def test_bad_level_or_grid_value_rejected_before_ingest(
            self, flags, split_csv, tmp_path, capsys, monkeypatch):
        import itedist.cli
        monkeypatch.setattr(itedist.cli, "ingest_csv", _unreachable)
        monkeypatch.setattr(itedist.cli, "two_group_quantile_replicates", _unreachable)
        code = run_cli("compare", "--input", str(split_csv), "--covariate-cols",
                       "grp", "--group0", "grp=0", "--group1", "grp=1",
                       "--bootstrap", "5", *flags, "--output", str(tmp_path / "x.json"))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and flags[0][2:] in err["message"]

    def test_overlapping_selectors_rejected(self, split_csv, tmp_path):
        code = run_cli("compare", "--input", str(split_csv), "--covariate-cols",
                       "grp", "--group0", "grp=0", "--group1", "grp=0",
                       "--bootstrap", "20", "--output", str(tmp_path / "x.json"))
        assert code == 2

    def test_partial_overlap_rejected(self, split_csv, tmp_path):
        code = run_cli("compare", "--input", str(split_csv), "--covariate-cols",
                       "grp", "--group0", "grp<=1", "--group1", "grp=1",
                       "--bootstrap", "20", "--output", str(tmp_path / "x.json"))
        assert code == 2

    def test_label_side_file(self, labeled_csv, tmp_path):
        out = tmp_path / "cmp.json"
        code = run_cli("compare", "--input", str(labeled_csv), "--covariate-cols", "grp",
                       "--group0", "grp=0", "--group1", "grp=1", "--bootstrap", "10",
                       "--grid-size", "5", "--output", str(out))
        assert code == 0 and out.exists()
        side = json.loads((tmp_path / "cmp_labels.json").read_text())
        assert side == {"grp": {"north": 0, "south": 1}}


_SELECTORS = {"analyze": {"group": "grp=0"}, "compare": {"group0": "grp=0", "group1": "grp=1"}}


def _selector_argv(command, flag, text, source, output) -> list[str]:
    groups = {**_SELECTORS[command], flag: text}
    return [command, "--input", str(source), "--covariate-cols", "grp", "--bootstrap", "10",
            *(arg for key, value in groups.items() for arg in (f"--{key}", value)),
            "--output", str(output)]


@pytest.mark.parametrize("command, flag", [
    ("analyze", "group"), ("compare", "group0"), ("compare", "group1")])
def test_bad_selector_rejected_before_ingest(command, flag, labeled_csv, tmp_path, capsys,
                                             monkeypatch):
    import itedist.cli
    monkeypatch.setattr(itedist.cli, "ingest_csv", _unreachable)
    code = run_cli(*_selector_argv(command, flag, "nope=1", labeled_csv, tmp_path / "x.json"))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "'nope'" in err["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag, text", [
    ("analyze", "group", "grp=0,grp=1"), ("analyze", "group", "grp=99999999999999999999"),
    ("compare", "group1", "grp=7")])
def test_empty_selection_names_flag_and_text(command, flag, text, split_csv, tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run_cli(*_selector_argv(command, flag, text, split_csv, out)) == 1
    assert json.loads(capsys.readouterr().err) == {
        "command": command, "error": "data",
        "message": f"--{flag} {text!r} matches no observation"}
    assert not out.exists()


class TestSimulate:
    def test_table1_row(self, tmp_path):
        out = tmp_path / "t1.csv"
        code = run_cli("simulate", "table1", "--v", "2", "--n", "150", "--levels",
                       "0.95", "--reps", "4", "--B", "20", "--seed", "5",
                       "--output", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "target,n,reps,bootstrap,failures,cp_0.95,len_0.95"
        assert len(lines) == 3   # BP row and naive row

    def test_table3_and_table4(self, tmp_path):
        out3 = tmp_path / "t3.csv"
        assert run_cli("simulate", "table3", "--tau", "0.5", "--n", "120",
                       "--levels", "0.9", "--reps", "3", "--B", "20",
                       "--seed", "6", "--output", str(out3)) == 0
        body = out3.read_text()
        assert "quantile-ci@tau=0.5" in body and "iqr-ci" in body
        out4 = tmp_path / "t4.csv"
        assert run_cli("simulate", "table4", "--n", "120", "--levels", "0.9",
                       "--reps", "3", "--B", "20", "--seed", "6",
                       "--tau-range", "0.25,0.75", "--grid-size", "5",
                       "--output", str(out4)) == 0
        body = out4.read_text()
        assert "quantile-band-constant" in body and "quantile-band-variable" in body

    @pytest.mark.parametrize("study, flags, targets", [
        ("table1", ["--v", "1,2"],
         ["cdf-ci@v=1", "cdf-ci-naive@v=1", "cdf-ci@v=2", "cdf-ci-naive@v=2"]),
        ("table2", ["--v-range", "0.04,3.96", "--grid-size", "5"],
         ["cdf-band-constant@[0.04,3.96]", "cdf-band-variable@[0.04,3.96]",
          "cdf-band-interpolated@[0.04,3.96]"]),
        ("table3", ["--tau", "0.25,0.5"],
         ["quantile-ci@tau=0.25", "quantile-ci@tau=0.5", "iqr-ci"]),
        ("table4", ["--tau-range", "0.2,0.8", "--grid-size", "5"],
         ["quantile-band-constant@[0.2,0.8]", "quantile-band-variable@[0.2,0.8]"])])
    def test_target_column(self, study, flags, targets, tmp_path):
        out = tmp_path / f"{study}.csv"
        assert run_cli("simulate", study, *flags, "--n", "120", "--levels", "0.9",
                       "--reps", "2", "--B", "10", "--seed", "6",
                       "--output", str(out)) == 0
        with open(out, newline="", encoding="utf-8") as handle:
            assert [row[0] for row in csv.reader(handle)] == ["target", *targets]

    def test_zero_reps_rejected(self, tmp_path):
        assert run_cli("simulate", "table1", "--reps", "0",
                       "--output", str(tmp_path / "x.csv")) == 2

    @pytest.mark.parametrize("tau", ["1.5", "0"])
    def test_tau_outside_unit_interval_rejected(self, tau, tmp_path, capsys):
        code = run_cli("simulate", "table3", "--tau", tau, "--n", "120",
                       "--reps", "1", "--B", "10", "--output", str(tmp_path / "x.csv"))
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not (tmp_path / "x.csv").exists()

    def test_negative_max_redraws_rejected_before_coverage(self, tmp_path, capsys,
                                                          monkeypatch):
        import itedist.benchmark_sim
        monkeypatch.setattr(itedist.benchmark_sim, "run_coverage", _unreachable)
        code = run_cli("simulate", "table1", "--max-redraws", "-1", "--n", "120",
                       "--reps", "1", "--B", "10", "--output", str(tmp_path / "x.csv"))
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_unknown_study(self, tmp_path):
        assert run_cli("simulate", "tableX",
                       "--output", str(tmp_path / "x.csv")) == 2

    def test_figure1(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run_cli("simulate", "figure1", "--grid-size", "9",
                       "--output", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 10

    def test_figure2(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run_cli("simulate", "figure2", "--n", "120", "--reps", "35",
                       "--seed", "2", "--output", str(out)) == 0
        assert out.read_text().startswith("section,index,x,y")

    @pytest.mark.parametrize("tau", [",", "0.3,0.7"])
    def test_figure2_needs_exactly_one_tau(self, tau, tmp_path, capsys, monkeypatch):
        import itedist.benchmark_sim
        monkeypatch.setattr(itedist.benchmark_sim, "gaussian_diagnostic", _unreachable)
        code = run_cli("simulate", "figure2", "--tau", tau, "--n", "120", "--reps", "35",
                       "--output", str(tmp_path / "x.csv"))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "--tau" in err["message"]

    def test_figure2_needs_thirty_reps(self, tmp_path, capsys, monkeypatch):
        import itedist.benchmark_sim
        monkeypatch.setattr(itedist.benchmark_sim, "gaussian_diagnostic", _unreachable)
        code = run_cli("simulate", "figure2", "--n", "120", "--reps", "20",
                       "--output", str(tmp_path / "x.csv"))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["message"].startswith("--reps: ")
        assert not (tmp_path / "x.csv").exists()

    def test_band_flag_rejected(self, tmp_path, capsys):
        # table2 and table4 always score both band kinds
        with pytest.raises(SystemExit) as exit_:
            run_cli("simulate", "table2", "--band", "variable",
                    "--output", str(tmp_path / "x.csv"))
        assert exit_.value.code == 2
        assert "--band" in capsys.readouterr().err
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"band": "variable"}))
        assert run_cli("simulate", "table2", "--config", str(cfg_path),
                       "--output", str(tmp_path / "x.csv")) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "'band'" in err["message"]
        assert not (tmp_path / "x.csv").exists()


class TestOracle:
    def test_values(self, capsys):
        assert run_cli("oracle", "--tau", "0.5", "--v", "4", "--y", "2.25") == 0
        doc = json.loads(capsys.readouterr().out)
        est = doc["point_estimates"]
        assert est["quantile@0.5"] == 1.125
        assert est["quantile_var_sampling@0.5"] == 3.515625
        assert est["cdf@4"] == 1.0
        assert est["map_to_treated@2.25"] == 3.375

    def test_out_of_range(self):
        assert run_cli("oracle", "--tau", "1.5") == 2

    def test_no_queries(self):
        assert run_cli("oracle") == 2

    def test_csv_format_needs_output(self, capsys):
        assert run_cli("oracle", "--tau", "0.5", "--format", "csv") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "config" and "--output" in err["message"]


class TestReproducibility:
    def test_config_roundtrip_byte_identical(self, bench_csv, split_csv, tmp_path):
        runs = {
            "analyze": ["--input", str(bench_csv), "--bootstrap", "25", "--seed", "11",
                        "--report", "quantile,iqr"],
            "compare": ["--input", str(split_csv), "--covariate-cols", "grp",
                        "--group0", "grp=0", "--group1", "grp=1", "--bootstrap", "25",
                        "--seed", "11", "--grid-size", "5", "--band", "variable"],
            "oracle": ["--tau", "0.25,0.5", "--v", "2", "--y", "2.25"],
        }
        for command, flags in runs.items():
            out1 = tmp_path / f"{command}_a.json"
            assert run_cli(command, *flags, "--output", str(out1)) == 0
            block = json.loads(out1.read_text())["reproducibility"]
            assert block["command"] == command
            cfg_path = tmp_path / f"{command}_cfg.json"
            cfg_path.write_text(json.dumps(block))
            out2 = tmp_path / f"{command}_b.json"
            assert run_cli(command, "--config", str(cfg_path),
                           "--output", str(out2)) == 0
            assert out1.read_bytes() == out2.read_bytes()

    def test_flags_override_config(self, bench_csv, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"input": str(bench_csv), "bootstrap": 20,
                                        "seed": 1, "report": ["iqr"]}))
        out = tmp_path / "c.json"
        assert run_cli("analyze", "--config", str(cfg_path), "--seed", "2",
                       "--output", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["seed"] == 2
        assert doc["reproducibility"]["bootstrap"] == 20

    def test_bad_config_value_is_config_error(self, bench_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"input": str(bench_csv), "bootstrap": "x"}))
        assert run_cli("analyze", "--config", str(cfg_path),
                       "--output", str(tmp_path / "x.json")) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "bootstrap" in err["message"]

    @pytest.mark.parametrize("key, value", [("bootstrap", 20.9), ("seed", 1.5),
                                            ("grid-size", 7.25)])
    def test_fractional_config_integer_is_config_error(
            self, key, value, bench_csv, tmp_path, capsys, monkeypatch):
        import itedist.cli
        monkeypatch.setattr(itedist.cli, "draw_replicates", _unreachable)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"input": str(bench_csv), key: value}))
        assert run_cli("analyze", "--config", str(cfg_path),
                       "--output", str(tmp_path / "x.json")) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and key in err["message"]

    def test_integral_float_config_value_accepted(self, bench_csv, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"input": str(bench_csv), "bootstrap": 20.0,
                                        "report": ["iqr"]}))
        out = tmp_path / "x.json"
        assert run_cli("analyze", "--config", str(cfg_path), "--output", str(out)) == 0
        assert json.loads(out.read_text())["reproducibility"]["bootstrap"] == 20

    def test_unknown_config_key(self, bench_csv, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"inptu": str(bench_csv)}))
        assert run_cli("analyze", "--config", str(cfg_path),
                       "--output", str(tmp_path / "x.json")) == 2


@pytest.mark.parametrize("command, key, value", [
    ("analyze", "format", "xml"), ("analyze", "band", "bogus"),
    ("analyze", "report", "quantile,bogus"), ("simulate", "study", "tableX"),
    ("table2", "grid-size", "0"), ("table2", "grid-size", "1"),
    ("figure1", "tau-range", "0.9,0.1"), ("table2", "v-range", "3,1"),
    ("table1", "n", "0"), ("table1", "levels", "0.9,1.5"), ("oracle", "y", "5"),
    ("table2", "v-range", "1,1.0000000000000002"),
    ("table4", "tau-range", "0.5,0.5000000000000001"),
    ("figure1", "tau-range", "0.5,0.5000000000000001")])
def test_bad_value_is_one_config_error_from_flag_or_file(
        command, key, value, bench_csv, tmp_path, capsys, monkeypatch):
    # a flag value and a config-file value pass the same check, before any work
    import itedist.benchmark_sim
    import itedist.cli
    monkeypatch.setattr(itedist.cli, "ingest_csv", _unreachable)
    monkeypatch.setattr(itedist.benchmark_sim, "run_coverage", _unreachable)
    monkeypatch.setattr(itedist.benchmark_sim, "write_variance_profile_csv", _unreachable)
    prefix = {"analyze": ["analyze", "--input", str(bench_csv)],
              "simulate": ["simulate"], "oracle": ["oracle", "--tau", "0.5"]}.get(
                  command, ["simulate", command])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    flag = [value] if key == "study" else [f"--{key}", value]
    errors = []
    for given in (flag, ["--config", str(cfg_path)]):
        assert run_cli(*prefix, *given, "--output", str(tmp_path / "out")) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    err = json.loads(errors[0])
    assert err["error"] == "config" and err["message"].startswith(f"--{key}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key, value", [
    ("analyze", "seed", True), ("analyze", "v", [True, False]),
    ("analyze", "max-redraws", True), ("analyze", "alpha", False),
    ("table2", "v-range", [False, True]), ("oracle", "y", [True])])
def test_boolean_config_value_is_config_error(command, key, value, bench_csv, tmp_path,
                                              capsys, monkeypatch):
    # int() and float() would read a JSON boolean as 0 or 1
    import itedist.benchmark_sim
    import itedist.cli
    monkeypatch.setattr(itedist.cli, "ingest_csv", _unreachable)
    monkeypatch.setattr(itedist.benchmark_sim, "run_coverage", _unreachable)
    prefix = {"analyze": ["analyze", "--input", str(bench_csv)],
              "oracle": ["oracle", "--tau", "0.5"]}.get(command, ["simulate", command])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    assert run_cli(*prefix, "--config", str(cfg_path),
                   "--output", str(tmp_path / "out")) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and err["message"].startswith(f"--{key}: ")
    assert "boolean" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key, flag_value, file_value", [
    (["analyze", "--report", "cdf"], "v", "nan", [math.nan]),
    (["analyze", "--report", "cdf"], "v", "1,-inf", [1.0, -math.inf]),
    (["analyze", "--report", "bands"], "v-range", "0,inf", [0.0, math.inf]),
    (["analyze", "--report", "bands"], "v-range", "-inf,0", "-inf,0"),
    (["simulate", "table1"], "v", "inf", math.inf),
    (["simulate", "table2"], "v-range", "1,inf", [1.0, math.inf])])
def test_non_finite_value_is_config_error(command, key, flag_value, file_value, bench_csv,
                                          tmp_path, capsys, monkeypatch):
    # a non-finite evaluation point would reach the bootstrap before failing
    import itedist.benchmark_sim
    import itedist.cli
    monkeypatch.setattr(itedist.cli, "ingest_csv", _unreachable)
    monkeypatch.setattr(itedist.benchmark_sim, "run_coverage", _unreachable)
    prefix = command + (["--input", str(bench_csv)] if command[0] == "analyze" else [])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: file_value}))
    errors = []
    for given in ([f"--{key}={flag_value}"], ["--config", str(cfg_path)]):
        assert run_cli(*prefix, *given, "--output", str(tmp_path / "out")) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    err = json.loads(errors[0])
    assert err["error"] == "config" and err["message"].startswith(f"--{key}: must be finite")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key, value", [
    (["analyze", "--report", "bands"], "v-range", "1,1.0000000000000002"),
    (["analyze", "--report", "bands"], "tau-range", "0.5,0.5000000000000002"),
    (["compare", "--covariate-cols", "grp", "--group0", "grp=0", "--group1", "grp=1"],
     "tau-range", "0.5,0.5000000000000002")])
def test_range_too_narrow_for_its_grid_is_config_error_before_ingest(
        command, key, value, bench_csv, tmp_path, capsys, monkeypatch):
    # the grids are built before the input is read, not after the bootstrap
    import itedist.cli
    monkeypatch.setattr(itedist.cli, "ingest_csv", _unreachable)
    assert run_cli(*command, "--input", str(bench_csv), f"--{key}", value,
                   "--output", str(tmp_path / "out")) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert err["message"].startswith(f"--{key}: ") and "--grid-size 161" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key", [
    ("table1", "reps"), ("figure2", "tau"), ("analyze", "report"), ("oracle", "tau")])
def test_null_config_value_is_config_error(command, key, bench_csv, tmp_path, capsys,
                                           monkeypatch):
    # every key a command reads must be present, so a null cannot reach the work
    import itedist.benchmark_sim
    import itedist.cli
    monkeypatch.setattr(itedist.cli, "ingest_csv", _unreachable)
    monkeypatch.setattr(itedist.benchmark_sim, "run_coverage", _unreachable)
    monkeypatch.setattr(itedist.benchmark_sim, "gaussian_diagnostic", _unreachable)
    prefix = {"analyze": ["analyze", "--input", str(bench_csv)],
              "oracle": ["oracle", "--v", "2"]}.get(command, ["simulate", command])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: None}))
    assert run_cli(*prefix, "--config", str(cfg_path),
                   "--output", str(tmp_path / "out")) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"command": prefix[0], "error": "config",
                   "message": f"--{key} is required"}
    assert not (tmp_path / "out").exists()


def _run_fresh(script: str, argv: list[str], openblas_threads: str | None = None
               ) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this itedist.

    ``OPENBLAS_NUM_THREADS`` is ``openblas_threads`` there, or unset: this
    process holds the CLI's own value once any test imports ``itedist.cli``.
    """
    import itedist
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(itedist.__file__).parent.parent), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", script, *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def _run_without(modules: tuple[str, ...], argv: list[str]) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter that exits nonzero if importing
    ``itedist.cli`` or running the command loads any of ``modules``."""
    loaded = f"[m for m in {modules!r} if m in sys.modules]"
    return _run_fresh("import sys; from itedist.cli import main; "
                      f"assert not {loaded}, {loaded}; code = main(sys.argv[1:]); "
                      f"assert not {loaded}, (sys.argv[1], {loaded}); sys.exit(code)",
                      argv)


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_runs_openblas_with_one_thread_unless_user_set(preset, expected, bench_csv,
                                                           tmp_path):
    # numpy's OpenBLAS starts a worker per core as it loads unless capped first,
    # and no command calls BLAS; a value the user set wins
    argv = [*_report_argv("analyze", bench_csv, None, tmp_path), "--threads", "1"]
    result = _run_fresh("import os, sys; from itedist.cli import main; "
                        "assert main(sys.argv[1:]) == 0; "
                        "print(os.environ['OPENBLAS_NUM_THREADS'], "
                        "len(os.listdir('/proc/self/task')) "
                        "if os.path.isdir('/proc/self/task') else 0)",
                        argv, openblas_threads=preset)
    assert result.returncode == 0, result.stderr
    value, threads = result.stdout.split()
    assert value == expected
    if preset is None and sys.platform == "linux" and len(os.sched_getaffinity(0)) > 1:
        assert threads == "1"


def test_package_import_loads_no_submodule_or_numpy():
    # itedist.cli must be able to cap OpenBLAS before anything loads numpy
    result = _run_fresh("import sys, itedist; print(sorted(m for m in sys.modules "
                        "if m == 'numpy' or m.startswith(('numpy.', 'itedist.'))))", [])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# Imports itedist.cli after the prelude, then runs a command; prints the
# collector state before and after the import, whether it succeeded, the
# frozen object count after the import and after the command, and how many
# collections started while the module's body ran.
_COLLECTOR_PROBE = """import gc, sys
{prelude}
before = gc.isenabled()
starts = 0
def count(phase, info):
    global starts
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code.co_name == '<module>' and frame.f_globals.get('__name__') == 'itedist.cli':
            starts += phase == 'start'
            break
        frame = frame.f_back
gc.callbacks.append(count)
try:
    from itedist.cli import main
except ImportError:
    print(before, gc.isenabled(), False, gc.get_freeze_count(), 0, starts)
else:
    frozen = gc.get_freeze_count()
    assert main(['oracle', '--tau', '0.5']) == 0
    print(before, gc.isenabled(), True, frozen, gc.get_freeze_count(), starts)
"""


@pytest.mark.parametrize("prelude", ["", "gc.disable()"])
def test_cli_import_freezes_once_with_the_collector_paused(prelude):
    # the import heap lives as long as the process: loading it runs no
    # collection, and once frozen no collection or interpreter exit walks it
    result = _run_fresh(_COLLECTOR_PROBE.format(prelude=prelude), [])
    assert result.returncode == 0, result.stderr
    before, after, imported, frozen, frozen_after_main, starts = result.stdout.split()[-6:]
    assert before == after == str(not prelude)
    assert imported == "True"
    assert int(frozen) > 0
    assert int(frozen_after_main) <= int(frozen)  # frozen objects may die, none join
    assert starts == "0"


@pytest.mark.parametrize("prelude", ["", "gc.disable()"])
def test_failed_cli_import_restores_the_collector(prelude):
    result = _run_fresh(_COLLECTOR_PROBE.format(
        prelude=f"{prelude}\nsys.modules['itedist.reports'] = None"), [])
    assert result.returncode == 0, result.stderr
    before, after, imported = result.stdout.split()[-6:-3]
    assert before == after == str(not prelude)
    assert imported == "False"


def test_package_names_are_their_submodules_objects():
    import importlib
    import itedist
    star = {}
    exec("from itedist import *", star)
    for name in itedist.__all__[1:]:
        home = importlib.import_module(f"itedist.{itedist._HOME[name]}")
        assert getattr(itedist, name) is home.__dict__[name] is star[name], name
    assert star["__version__"] == itedist.__version__
    assert set(itedist.__all__) <= set(dir(itedist))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        itedist.no_such_name
    from itedist import benchmark_sim, cli
    assert (cli.__name__, benchmark_sim.__name__) == ("itedist.cli", "itedist.benchmark_sim")


def test_commands_leave_scipy_unloaded(bench_csv, split_csv, tmp_path):
    # scipy is a test dependency only, and numpy.ma is what np.unique would load
    runs = [_report_argv("analyze", bench_csv, split_csv, tmp_path),
            _report_argv("compare", bench_csv, split_csv, tmp_path),
            ["simulate", "table2", "--n", "120", "--reps", "2", "--B", "10",
             "--grid-size", "9", "--output", str(tmp_path / "t2.csv")],
            ["oracle", "--tau", "0.5", "--v", "2", "--y", "2.25"]]
    for argv in runs:
        result = _run_without(("scipy", "numpy.ma"), argv)
        assert result.returncode == 0, result.stderr


def test_single_thread_run_leaves_thread_pool_unloaded(bench_csv, tmp_path):
    # the thread pool module is imported only when a command asks for threads
    argv = [*_report_argv("analyze", bench_csv, None, tmp_path), "--threads", "1"]
    result = _run_without(("concurrent.futures",), argv)
    assert result.returncode == 0, result.stderr


def test_simulate_leaves_jsonschema_unloaded(tmp_path):
    # jsonschema only validates JSON reports, and simulate writes CSV
    result = _run_without(("jsonschema",), ["simulate", "table1", "--n", "120", "--reps",
                                            "2", "--B", "10",
                                            "--output", str(tmp_path / "t1.csv")])
    assert result.returncode == 0, result.stderr


def _report_argv(command, bench_csv, split_csv, tmp_path) -> list[str]:
    """A small run of ``command`` that writes a JSON report."""
    return {
        "analyze": ["analyze", "--input", str(bench_csv), "--bootstrap", "5",
                    "--report", "quantile,bands", "--grid-size", "5",
                    "--output", str(tmp_path / "r.json")],
        "compare": ["compare", "--input", str(split_csv), "--covariate-cols", "grp",
                    "--group0", "grp=0", "--group1", "grp=1", "--bootstrap", "5",
                    "--grid-size", "5", "--output", str(tmp_path / "r.json")],
        "oracle": ["oracle", "--tau", "0.5", "--format", "json"],
    }[command]


@pytest.mark.parametrize("command", ["analyze", "compare", "oracle"])
def test_report_command_leaves_jsonschema_unloaded(command, bench_csv, split_csv,
                                                   tmp_path):
    # reports are checked against their schema without the jsonschema package
    result = _run_without(("jsonschema",),
                          _report_argv(command, bench_csv, split_csv, tmp_path))
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command", ["analyze", "compare", "oracle"])
def test_report_failing_its_schema_is_data_error(command, bench_csv, split_csv, tmp_path,
                                                 capsys, monkeypatch):
    import itedist.reports
    monkeypatch.setattr(itedist.reports, "REPORT_VERSION", 2)   # the schema wants 1
    code = run_cli(*_report_argv(command, bench_csv, split_csv, tmp_path))
    assert code == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "data" and "$.report_version" in err["message"]
    assert captured.out == "" and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("b, warned", [(5, True), (200, False)])
@pytest.mark.parametrize("command", ["analyze", "compare", "simulate"])
def test_small_bootstrap_warned_once(command, b, warned, bench_csv, split_csv,
                                     tmp_path, caplog):
    # At level 0.99, B * alpha / 2 < 1 leaves no replication in either tail,
    # so the interval endpoints are the smallest and largest replications.
    argv = {
        "analyze": ["analyze", "--input", str(bench_csv), "--alpha", "0.01",
                    "--report", "quantile"],
        "compare": ["compare", "--input", str(split_csv), "--covariate-cols", "grp",
                    "--group0", "grp=0", "--group1", "grp=1", "--alpha", "0.01",
                    "--grid-size", "5"],
        "simulate": ["simulate", "table1", "--n", "120", "--reps", "1",
                     "--levels", "0.9,0.99"],
    }[command]
    with caplog.at_level(logging.WARNING, logger="itedist"):
        assert run_cli(*argv, "--B", str(b), "--output", str(tmp_path / "out")) == 0
    too_small = [r.getMessage() for r in caplog.records if "too small" in r.getMessage()]
    assert len(too_small) == warned
    assert all(f"B={b} is too small for level 0.99" in m for m in too_small)


@pytest.mark.parametrize("command, key", [
    ("table1", "levels"), ("table1", "v"), ("table3", "tau"), ("analyze", "report"),
    ("analyze", "tau"), ("compare", "tau")])
def test_empty_list_value_is_config_error(command, key, bench_csv, split_csv, tmp_path,
                                          capsys, monkeypatch):
    # a list flag with a default value would otherwise drop every product it feeds
    import itedist.benchmark_sim
    import itedist.cli
    monkeypatch.setattr(itedist.cli, "ingest_csv", _unreachable)
    monkeypatch.setattr(itedist.benchmark_sim, "run_coverage", _unreachable)
    prefix = {"analyze": ["analyze", "--input", str(bench_csv)],
              "compare": ["compare", "--input", str(split_csv), "--covariate-cols", "grp",
                          "--group0", "grp=0", "--group1", "grp=1"]}.get(
                  command, ["simulate", command])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: []}))
    errors = []
    for given in ([f"--{key}=,"], ["--config", str(cfg_path)]):
        assert run_cli(*prefix, *given, "--output", str(tmp_path / "out")) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert json.loads(errors[0]) == {"command": prefix[0], "error": "config",
                                     "message": f"--{key}: needs at least one value"}
    assert not (tmp_path / "out").exists()


def test_oracle_list_defaults_may_stay_empty(capsys):
    assert run_cli("oracle", "--tau", "0.5", "--v=,", "--y=,") == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["point_estimates"]) == {"quantile@0.5", "quantile_var_sampling@0.5",
                                           "quantile_var_estimation@0.5"}


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-3"])
def test_bad_threads_value_is_config_error(value, bench_csv, tmp_path, capsys,
                                           monkeypatch):
    import itedist.cli
    monkeypatch.setattr(itedist.cli, "ingest_csv", _unreachable)
    assert run_cli("analyze", "--input", str(bench_csv), "--threads", value,
                   "--output", str(tmp_path / "out")) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and err["message"].startswith("--threads: ")
    assert not (tmp_path / "out").exists()


def test_threads_stay_out_of_config_and_report(bench_csv, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"threads": 2}))
    assert run_cli("oracle", "--tau", "0.5", "--config", str(cfg_path)) == 2
    out = tmp_path / "o.json"
    assert run_cli("oracle", "--tau", "0.5", "--threads", "2", "--output", str(out)) == 0
    assert "threads" not in json.loads(out.read_text())["reproducibility"]


# Fields that no clean file holds: bad binaries and codes, non-finite and
# out-of-range numbers, hex, blanks and text.
_HOSTILE_FIELDS = ("", " ", "nan", "inf", "-inf", "1e400", "-1e400", "0x1", "2", "-1",
                   "0.5", "abc", "99999999999999999999", "-99999999999999999999")


@st.composite
def hostile_csvs(draw):
    """Rows of (y, d, z, x), every (d, z) pair at least twice in each cell of
    x, plus random rows, then a few corrupted fields, a short row, a changed
    header or nothing at all."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from(["", "\n", "y,d,z,x\n"]))
    outcome = st.one_of(st.integers(-3, 3).map(str),
                        st.floats(-1.7e308, 1.7e308, allow_nan=False).map(repr))
    rows = [[draw(outcome), d, z, x]
            for x in draw(st.sampled_from([["0"], ["0", "1"], ["2"]]))
            for _ in range(draw(st.integers(2, 3)))
            for d, z in (("0", "0"), ("1", "1"), ("0", "1"), ("1", "0"))]
    rows += draw(st.lists(st.tuples(outcome, st.sampled_from("01"), st.sampled_from("01"),
                                    st.sampled_from("012")).map(list), max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.integers(0, 3))] = draw(st.sampled_from(_HOSTILE_FIELDS))
    if draw(st.integers(0, 3)) == 0:
        row = draw(st.integers(0, len(rows) - 1))
        rows[row] = rows[row][:draw(st.integers(0, 3))]
    header = draw(st.sampled_from(["y,d,z,x"] * 6 + ["y,d,x", "y,d,z,x,x", "y;d;z;x"]))
    return header + "\n" + "".join(",".join(row) + "\n" for row in rows)


@given(text=hostile_csvs(),
       selector=st.sampled_from(["", "x=0", "x>0", "x<=1", "w=1", "x=a", "x>>1",
                                 "x=99999999999999999999", ",", "x=1,x=2"]))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_hostile_input_ends_in_report_or_error_document(text, selector, tmp_path, capsys):
    # Whatever the file and selector, analyze writes its report or ends in a
    # structured error document; it never ends in a traceback.
    src = tmp_path / "hostile.csv"
    src.write_text(text)
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    code = run_cli("analyze", "--input", str(src), "--covariate-cols", "x",
                   "--group", selector, "--bootstrap", "2", "--grid-size", "5",
                   "--report", "prob-positive,quantile,iqr,cdf,bands",
                   "--output", str(out))
    err = capsys.readouterr().err
    if code == 0:
        jsonschema.validate(json.loads(out.read_text()), REPORT_SCHEMA)
    else:
        doc = json.loads(err)
        assert doc["command"] == "analyze" and not out.exists()
        assert (code, doc["error"]) in ((2, "config"), (1, "data"), (1, "io"))
