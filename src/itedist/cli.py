"""Command-line interface.

Four commands:

* ``analyze``  single-group distributional inference from a CSV file,
* ``compare``  two-group quantile contrasts and hypothesis tests,
* ``simulate`` Monte Carlo coverage studies on the benchmark population,
* ``oracle``   closed-form benchmark truth and variance queries.

Flags may also be supplied through ``--config FILE`` (a JSON object keyed by
the long flag names); explicit flags override the file.  Every report embeds
a ``reproducibility`` block holding the fully resolved configuration, which
can be fed back as a config file to regenerate the same document byte for
byte.  Progress and redraw diagnostics go to standard error; data products
go to files only.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .benchmark_sim import (DgpOracle, StudyTarget, TheoryVariance,
                            gaussian_diagnostic, run_coverage, write_coverage_csv,
                            write_diagnostic_csv, write_variance_profile_csv)
from .bootstrap_inference import (BootstrapConfig, ReplicationError,
                                  ci_cdf, ci_prob_positive, ci_quantile_and_iqr,
                                  compare_quantiles, draw_replicates,
                                  test_distributions,
                                  two_group_quantile_replicates,
                                  ucb_cdf_constant, ucb_cdf_variable,
                                  ucb_quantile_constant, ucb_quantile_variable,
                                  ucb_quantile_difference)
from .data_model import (ColumnMap, EmptySelectionError, EstimabilityError,
                         GroupSelector, IngestError, check_estimability,
                         estimate_bounds, ingest_csv, select_group,
                         write_label_codes)
from .empirical_dist import (default_value_grid, iqr, make_grid, prob_positive,
                             quantile)
from .reports import ReportDocument, error_report

logger = logging.getLogger("itedist")


class ConfigError(ValueError):
    """Invalid or inconsistent command configuration."""


# ---------------------------------------------------------------------------
# Flag coercion and config-file layering
# ---------------------------------------------------------------------------

def _coerce_float(value):
    return float(value)


def _coerce_int(value):
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


def _coerce_str(value):
    return str(value)


def _coerce_float_list(value):
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
        return [float(p) for p in parts]
    if isinstance(value, (int, float)):
        return [float(value)]
    return [float(v) for v in value]


def _coerce_str_list(value):
    if isinstance(value, str):
        return [p.strip() for p in value.split(",") if p.strip()]
    return [str(v) for v in value]


def _coerce_range(value):
    pair = _coerce_float_list(value)
    if len(pair) != 2:
        raise ConfigError(f"expected a lo,hi pair, got {value!r}")
    return pair


_COERCERS = {
    "input": _coerce_str, "output": _coerce_str, "format": _coerce_str,
    "outcome-col": _coerce_str, "treatment-col": _coerce_str,
    "iv-col": _coerce_str, "covariate-cols": _coerce_str_list,
    "group": _coerce_str, "group0": _coerce_str, "group1": _coerce_str,
    "alpha": _coerce_float, "bootstrap": _coerce_int, "seed": _coerce_int,
    "tau": _coerce_float_list, "v": _coerce_float_list,
    "tau-range": _coerce_range, "v-range": _coerce_range,
    "grid-size": _coerce_int, "band": _coerce_str, "report": _coerce_str_list,
    "study": _coerce_str, "n": _coerce_int, "reps": _coerce_int,
    "levels": _coerce_float_list, "y": _coerce_float_list,
    "max-redraws": _coerce_int,
}


def _coerce(key: str, value):
    try:
        return _COERCERS[key](value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"--{key}: cannot use {value!r}: {exc}") from None


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    resolved = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as handle:
                file_values = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}")
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in file_values.items():
            if key == "command":
                continue
            if key not in resolved:
                raise ConfigError(f"unknown config key {key!r}")
            resolved[key] = None if value is None else _coerce(key, value)
    for key in defaults:
        flag_value = getattr(args, key.replace("-", "_"), None)
        if flag_value is not None:
            resolved[key] = _coerce(key, flag_value)
    return resolved


def _require(resolved: dict, *keys: str) -> None:
    for key in keys:
        if resolved.get(key) in (None, ""):
            raise ConfigError(f"--{key} is required")


def _validate_common(resolved: dict) -> None:
    """Value checks shared by ``analyze`` and ``compare``, run before ingest."""
    _require(resolved, "alpha", "bootstrap", "max-redraws", "tau", "tau-range",
             "grid-size")
    if not 0.0 < resolved["alpha"] < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {resolved['alpha']}")
    if resolved["bootstrap"] < 2:
        raise ConfigError(f"bootstrap replications must be >= 2, got {resolved['bootstrap']}")
    if resolved["max-redraws"] < 0:
        raise ConfigError(f"max-redraws must be >= 0, got {resolved['max-redraws']}")
    for tau in resolved["tau"]:
        if not 0.0 < tau < 1.0:
            raise ConfigError(f"tau must lie in (0, 1), got {tau}")
    lo, hi = resolved["tau-range"]
    if not 0.0 < lo < hi < 1.0:
        raise ConfigError(f"tau-range must satisfy 0 < lo < hi < 1, got [{lo}, {hi}]")
    if resolved.get("v-range") is not None:
        lo, hi = resolved["v-range"]
        if not lo < hi:
            raise ConfigError(f"v-range must satisfy lo < hi, got [{lo}, {hi}]")
    if resolved["grid-size"] < 2:
        raise ConfigError(f"grid-size must be >= 2, got {resolved['grid-size']}")


def _column_map(resolved: dict) -> ColumnMap:
    return ColumnMap(outcome=resolved["outcome-col"],
                     treatment=resolved["treatment-col"],
                     instrument=resolved["iv-col"],
                     covariates=tuple(resolved["covariate-cols"]))


def _selector(expression: str, columns) -> GroupSelector:
    try:
        return GroupSelector.parse(expression, columns)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _warn_estimability(sample, label: str) -> None:
    report = check_estimability(sample)
    for cell in report.flagged:
        for flag in cell.flags:
            logger.warning("%s: cell x=%s: %s", label, cell.cell, flag)


def _repro_block(command: str, resolved: dict) -> dict:
    """Everything needed to regenerate the document, and nothing volatile.

    The output path is excluded so a rerun into a different file stays byte
    identical; worker counts never appear because they cannot change results.
    """
    return {"command": command,
            **{k: v for k, v in resolved.items() if k != "output"}}


def _check_output_dir(output: str) -> None:
    """Reject an output path whose directory is missing before any compute."""
    parent = Path(output).parent
    if not parent.is_dir():
        raise FileNotFoundError(f"output directory {str(parent)!r} does not exist")


def _write_document(document: ReportDocument, resolved: dict) -> None:
    output = Path(resolved["output"])
    if resolved["format"] == "csv":
        document.write_csv(output)
        if document.bands:
            document.write_bands_csv(output.with_name(output.stem + "_bands.csv"))
    else:
        document.write_json(output)
    logger.info("report written to %s", output)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

_ANALYZE_DEFAULTS = {
    "input": None, "outcome-col": "y", "treatment-col": "d", "iv-col": "z",
    "covariate-cols": [], "group": "", "alpha": 0.05, "bootstrap": 500,
    "seed": 0, "tau": [0.5], "v": [0.0], "tau-range": [0.1, 0.9],
    "v-range": None, "grid-size": 161, "band": "constant",
    "report": ["prob-positive", "quantile", "iqr"], "format": "json",
    "output": None, "max-redraws": 100,
}

_REPORT_CHOICES = ("prob-positive", "quantile", "iqr", "cdf", "bands")


def cmd_analyze(resolved: dict, threads: int) -> ReportDocument:
    _require(resolved, "input", "output")
    _validate_common(resolved)
    unknown = [r for r in resolved["report"] if r not in _REPORT_CHOICES]
    if unknown:
        raise ConfigError(f"unknown report selection(s) {unknown}; "
                          f"choose from {_REPORT_CHOICES}")
    if resolved["band"] not in ("constant", "variable"):
        raise ConfigError(f"--band must be constant or variable, got {resolved['band']!r}")

    ingest = ingest_csv(resolved["input"], _column_map(resolved))
    if ingest.label_codes:
        side = Path(resolved["output"]).with_name(
            Path(resolved["output"]).stem + "_labels.json")
        write_label_codes(ingest.label_codes, side)
        logger.info("label codes written to %s", side)
    sample = ingest.sample
    if resolved["group"]:
        sample = select_group(sample, _selector(resolved["group"],
                                                resolved["covariate-cols"]))
    _warn_estimability(sample, "analyze")
    bounds = estimate_bounds(sample)
    cfg = BootstrapConfig(n_replications=resolved["bootstrap"], seed=resolved["seed"],
                          max_redraws=resolved["max-redraws"])
    replicates = draw_replicates(sample, bounds, cfg, threads=threads)
    values = replicates.point_sorted
    alpha = resolved["alpha"]

    document = ReportDocument(
        command="analyze", package_version=__version__, seed=resolved["seed"],
        bootstrap=resolved["bootstrap"], alpha=resolved["alpha"],
        n_per_group={"all": sample.n}, redraws=replicates.redraws,
        reproducibility=_repro_block("analyze", resolved))
    document.point_estimates["n"] = sample.n

    wanted = resolved["report"]
    if "prob-positive" in wanted:
        document.point_estimates["prob_positive"] = prob_positive(values)
        document.add_interval(ci_prob_positive(replicates, alpha))
    if "quantile" in wanted:
        for tau in resolved["tau"]:
            document.point_estimates[f"quantile@{tau:g}"] = quantile(values, tau)
            q_int, _ = ci_quantile_and_iqr(replicates, alpha, tau)
            document.add_interval(q_int)
    if "iqr" in wanted:
        document.point_estimates["iqr"] = iqr(values)
        _, iqr_int = ci_quantile_and_iqr(replicates, alpha, 0.5)
        document.add_interval(iqr_int)
    if "cdf" in wanted:
        for v in resolved["v"]:
            document.point_estimates[f"cdf@{v:g}"] = float(
                np.searchsorted(values, v, side="right") / len(values))
            document.add_interval(ci_cdf(replicates, alpha, v))
    if "bands" in wanted:
        tau_grid = make_grid("levels", *resolved["tau-range"], resolved["grid-size"])
        quantile_band = (ucb_quantile_constant if resolved["band"] == "constant"
                         else ucb_quantile_variable)
        document.add_band(quantile_band(replicates, alpha, tau_grid))
        if resolved["v-range"] is not None:
            value_grid = make_grid("values", *resolved["v-range"], resolved["grid-size"])
        else:
            value_grid = default_value_grid(values, resolved["grid-size"])
        cdf_band = (ucb_cdf_constant if resolved["band"] == "constant"
                    else ucb_cdf_variable)
        document.add_band(cdf_band(replicates, alpha, value_grid))
    return document


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

_COMPARE_DEFAULTS = {
    "input": None, "outcome-col": "y", "treatment-col": "d", "iv-col": "z",
    "covariate-cols": [], "group0": None, "group1": None, "alpha": 0.05,
    "bootstrap": 500, "seed": 0, "tau": [0.25, 0.5, 0.75],
    "tau-range": [0.1, 0.9], "grid-size": 161, "band": "constant",
    "format": "json", "output": None, "max-redraws": 100,
}


def cmd_compare(resolved: dict, threads: int) -> ReportDocument:
    _require(resolved, "input", "output", "group0", "group1")
    _validate_common(resolved)
    if resolved["band"] not in ("constant", "variable"):
        raise ConfigError(f"--band must be constant or variable, got {resolved['band']!r}")

    ingest = ingest_csv(resolved["input"], _column_map(resolved))
    columns = resolved["covariate-cols"]
    sel0 = _selector(resolved["group0"], columns)
    sel1 = _selector(resolved["group1"], columns)
    if not sel0.disjoint_on(sel1, ingest.sample):
        raise ConfigError(
            f"group selectors overlap: {resolved['group0']!r} and {resolved['group1']!r} "
            "must pick disjoint covariate cells")
    sample0 = select_group(ingest.sample, sel0)
    sample1 = select_group(ingest.sample, sel1)
    _warn_estimability(sample0, "group0")
    _warn_estimability(sample1, "group1")
    bounds0 = estimate_bounds(sample0)
    bounds1 = estimate_bounds(sample1)

    grid = make_grid("levels", *resolved["tau-range"], resolved["grid-size"])
    taus = [float(t) for t in resolved["tau"]]
    levels = np.unique(np.concatenate((grid.points, np.array(taus),
                                       np.array([0.25, 0.75]))))
    cfg = BootstrapConfig(n_replications=resolved["bootstrap"], seed=resolved["seed"],
                          max_redraws=resolved["max-redraws"])
    replicates = two_group_quantile_replicates(
        sample0, sample1, bounds0, bounds1, cfg, levels, threads=threads)

    document = ReportDocument(
        command="compare", package_version=__version__, seed=resolved["seed"],
        bootstrap=resolved["bootstrap"], alpha=resolved["alpha"],
        n_per_group={"group0": sample0.n, "group1": sample1.n},
        redraws=replicates.total_redraws,
        reproducibility=_repro_block("compare", resolved))
    document.point_estimates["n_group0"] = sample0.n
    document.point_estimates["n_group1"] = sample1.n

    alpha = resolved["alpha"]
    iqr_added = False
    for tau in taus:
        d_int, iqr_int = compare_quantiles(replicates, alpha, tau)
        idx = replicates.level_index(tau)
        document.point_estimates[f"quantile_difference@{tau:g}"] = float(
            replicates.delta[idx])
        document.add_interval(d_int)
        if not iqr_added:
            document.add_interval(iqr_int)
            iqr_added = True

    document.add_band(ucb_quantile_difference(replicates, alpha, grid,
                                              band=resolved["band"]))
    for hypothesis in ("equality", "location-shift", "dominance"):
        document.add_test(test_distributions(replicates, alpha, grid, hypothesis))
    return document


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_SIMULATE_DEFAULTS = {
    "study": None, "n": 250, "reps": 300, "levels": [0.9, 0.95, 0.99],
    "bootstrap": 200, "seed": 0, "v": [2.0], "tau": [0.5],
    "v-range": [0.04, 3.96], "tau-range": [0.05, 0.95], "grid-size": None,
    "band": "constant", "output": None, "max-redraws": 100,
}

_STUDIES = ("table1", "table2", "table3", "table4", "figure1", "figure2")


def _study_targets(resolved: dict) -> list[StudyTarget]:
    study = resolved["study"]
    if study == "table1":
        targets = []
        for v in resolved["v"]:
            targets.append(StudyTarget(kind="cdf-ci", v=v))
            targets.append(StudyTarget(kind="cdf-ci-naive", v=v))
        return targets
    if study == "table2":
        size = resolved["grid-size"] or 393
        grid = make_grid("values", *resolved["v-range"], size)
        return [StudyTarget(kind="cdf-band", grid=grid, band="constant"),
                StudyTarget(kind="cdf-band", grid=grid, band="variable"),
                StudyTarget(kind="cdf-band-interpolated", grid=grid)]
    if study == "table3":
        targets = [StudyTarget(kind="quantile-ci", tau=t) for t in resolved["tau"]]
        targets.append(StudyTarget(kind="iqr-ci"))
        return targets
    if study == "table4":
        size = resolved["grid-size"] or 91
        grid = make_grid("levels", *resolved["tau-range"], size)
        return [StudyTarget(kind="quantile-band", grid=grid, band="constant"),
                StudyTarget(kind="quantile-band", grid=grid, band="variable")]
    raise ConfigError(f"study must be one of {_STUDIES}, got {study!r}")


def cmd_simulate(resolved: dict, threads: int) -> None:
    _require(resolved, "study", "output")
    if resolved["study"] not in _STUDIES:
        raise ConfigError(f"study must be one of {_STUDIES}, got {resolved['study']!r}")
    if resolved["reps"] < 1:
        raise ConfigError(f"reps must be >= 1, got {resolved['reps']}")
    for key in ("levels", "tau"):
        for value in resolved[key]:
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{key} must lie in (0, 1), got {value}")

    output = Path(resolved["output"])
    if resolved["study"] == "figure1":
        size = resolved["grid-size"] or 81
        lo, hi = resolved["tau-range"]
        write_variance_profile_csv(output, taus=np.linspace(lo, hi, size))
        logger.info("variance profile written to %s", output)
        return
    if resolved["study"] == "figure2":
        diag = gaussian_diagnostic(resolved["tau"][0], resolved["n"],
                                   resolved["reps"], resolved["seed"],
                                   threads=threads)
        write_diagnostic_csv(diag, output)
        logger.info("diagnostic draws written to %s (mean %.3f, variance %.3f)",
                    output, diag.mean, diag.variance)
        return

    if resolved["bootstrap"] < 2:
        raise ConfigError(f"bootstrap replications must be >= 2, got {resolved['bootstrap']}")
    reports = run_coverage(_study_targets(resolved), n=resolved["n"],
                           reps=resolved["reps"], levels=resolved["levels"],
                           b=resolved["bootstrap"], seed=resolved["seed"],
                           threads=threads, max_redraws=resolved["max-redraws"])
    write_coverage_csv(reports, output)
    logger.info("coverage table written to %s", output)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

_ORACLE_DEFAULTS = {"tau": [], "v": [], "y": [], "output": None, "format": "json"}


def cmd_oracle(resolved: dict) -> ReportDocument:
    oracle = DgpOracle()
    theory = TheoryVariance()
    estimates: dict[str, float] = {}
    for tau in resolved["tau"]:
        if not 0.0 < tau < 1.0:
            raise ConfigError(f"tau must lie in (0, 1), got {tau}")
        estimates[f"quantile@{tau:g}"] = float(oracle.quantile(tau))
        estimates[f"quantile_var_sampling@{tau:g}"] = float(theory.quantile_sampling(tau))
        estimates[f"quantile_var_estimation@{tau:g}"] = float(theory.quantile_estimation(tau))
    for v in resolved["v"]:
        if not oracle.support[0] <= v <= oracle.support[1]:
            raise ConfigError(f"v must lie in {oracle.support}, got {v}")
        estimates[f"cdf@{v:g}"] = float(oracle.cdf(v))
        estimates[f"density@{v:g}"] = float(oracle.density(v))
    for y in resolved["y"]:
        if not 1.0 <= y <= 4.0:
            raise ConfigError(f"y must lie in the shared outcome range [1, 4], got {y}")
        estimates[f"map_to_treated@{y:g}"] = float(oracle.map_to_treated(y))
        estimates[f"map_to_control@{y:g}"] = float(oracle.map_to_control(y))
    if not estimates:
        raise ConfigError("oracle needs at least one --tau, --v, or --y query")
    document = ReportDocument(
        command="oracle", package_version=__version__, seed=0, bootstrap=0,
        alpha=0.0, n_per_group={}, redraws=0,
        reproducibility=_repro_block("oracle", resolved))
    document.point_estimates.update(estimates)
    return document


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker cap; never changes results")
    parser.add_argument("--verbose", action="store_true")


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input")
    parser.add_argument("--outcome-col")
    parser.add_argument("--treatment-col")
    parser.add_argument("--iv-col")
    parser.add_argument("--covariate-cols")
    parser.add_argument("--alpha")
    parser.add_argument("--bootstrap", "--B")
    parser.add_argument("--seed")
    parser.add_argument("--max-redraws")
    parser.add_argument("--output")
    parser.add_argument("--format", choices=("json", "csv"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itedist",
        description="Distributional inference for individual treatment effects "
                    "with a binary endogenous treatment and a binary instrument.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="single-group inference from CSV")
    _add_data_flags(analyze)
    analyze.add_argument("--group", help="covariate selector, e.g. 'inc>1,married=1'")
    analyze.add_argument("--tau", help="quantile levels, comma separated")
    analyze.add_argument("--v", help="CDF evaluation points, comma separated")
    analyze.add_argument("--tau-range")
    analyze.add_argument("--v-range")
    analyze.add_argument("--grid-size")
    analyze.add_argument("--band", choices=("constant", "variable"))
    analyze.add_argument("--report", help="comma list: prob-positive,quantile,iqr,cdf,bands")
    _add_common(analyze)

    compare = commands.add_parser("compare", help="two-group contrasts and tests")
    _add_data_flags(compare)
    compare.add_argument("--group0")
    compare.add_argument("--group1")
    compare.add_argument("--tau")
    compare.add_argument("--tau-range")
    compare.add_argument("--grid-size")
    compare.add_argument("--band", choices=("constant", "variable"))
    _add_common(compare)

    simulate = commands.add_parser("simulate", help="benchmark coverage studies")
    simulate.add_argument("study", nargs="?", help="|".join(_STUDIES))
    simulate.add_argument("--n")
    simulate.add_argument("--reps")
    simulate.add_argument("--levels")
    simulate.add_argument("--bootstrap", "--B")
    simulate.add_argument("--seed")
    simulate.add_argument("--v")
    simulate.add_argument("--tau")
    simulate.add_argument("--v-range")
    simulate.add_argument("--tau-range")
    simulate.add_argument("--grid-size")
    simulate.add_argument("--band", choices=("constant", "variable"))
    simulate.add_argument("--max-redraws")
    simulate.add_argument("--output")
    _add_common(simulate)

    oracle = commands.add_parser("oracle", help="benchmark truth queries")
    oracle.add_argument("--tau")
    oracle.add_argument("--v")
    oracle.add_argument("--y")
    oracle.add_argument("--output")
    oracle.add_argument("--format", choices=("json", "csv"))
    _add_common(oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    started = time.perf_counter()
    command = args.command
    try:
        if command == "analyze":
            resolved = _resolve(args, _ANALYZE_DEFAULTS)
        elif command == "compare":
            resolved = _resolve(args, _COMPARE_DEFAULTS)
        elif command == "simulate":
            resolved = _resolve(args, _SIMULATE_DEFAULTS)
            if getattr(args, "study", None):
                resolved["study"] = args.study
        else:
            resolved = _resolve(args, _ORACLE_DEFAULTS)
    except ConfigError as exc:
        sys.stderr.write(error_report(command, "config", str(exc)))
        return 2

    try:
        if resolved["output"]:
            _check_output_dir(resolved["output"])
        if command == "analyze":
            document = cmd_analyze(resolved, args.threads)
            _write_document(document, resolved)
        elif command == "compare":
            document = cmd_compare(resolved, args.threads)
            _write_document(document, resolved)
        elif command == "simulate":
            cmd_simulate(resolved, args.threads)
        else:
            document = cmd_oracle(resolved)
            if resolved["output"]:
                _write_document(document, resolved)
            else:
                sys.stdout.write(document.to_json())
    except ConfigError as exc:
        sys.stderr.write(error_report(command, "config", str(exc)))
        return 2
    except (IngestError, EstimabilityError, EmptySelectionError, ValueError) as exc:
        sys.stderr.write(error_report(command, "data", str(exc)))
        return 1
    except ReplicationError as exc:
        sys.stderr.write(error_report(command, "replication", str(exc)))
        return 1
    except OSError as exc:
        sys.stderr.write(error_report(command, "io", str(exc)))
        return 1
    logger.info("%s finished in %.2fs", command, time.perf_counter() - started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
