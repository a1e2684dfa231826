"""Command-line interface: flows, error discipline, reproducibility."""
from __future__ import annotations

import json

import numpy as np
import pytest

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


class TestReproducibility:
    def test_config_roundtrip_byte_identical(self, bench_csv, tmp_path):
        out1 = tmp_path / "a.json"
        code = run_cli("analyze", "--input", str(bench_csv), "--bootstrap", "25",
                       "--seed", "11", "--report", "quantile,iqr",
                       "--output", str(out1))
        assert code == 0
        block = json.loads(out1.read_text())["reproducibility"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(block))
        out2 = tmp_path / "b.json"
        assert run_cli("analyze", "--config", str(cfg_path),
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
