"""Command-line interface.

Four commands:

* ``analyze``  single-group distributional inference from a CSV file,
* ``compare``  two-group quantile contrasts and hypothesis tests,
* ``simulate`` Monte Carlo coverage studies on the benchmark population,
* ``oracle``   closed-form benchmark truth and variance queries.

Two tables declare the flags.  ``_FLAGS`` gives each flag its coercer, a rule
for the coerced value (an interval or a tuple of choices, held to every
element of a list) and its help text; ``_COMMANDS`` gives each command its
flags and their defaults, in the order of the reproducibility block; a flag
whose default is ``_REQUIRED`` must be given, one whose default is ``None``
may stay unset, no other may be set to null, and a list flag whose default
holds a value may not be set empty.  ``--threads``, the worker cap, is in
``_FLAGS`` only: every command takes it, from the command line alone, and it
never enters a report.  The parser, the config-file keys, the presence checks
and every value check follow from them: a value passes the same check
whether it comes from a flag or from ``--config FILE`` (a JSON object keyed
by the long flag names, which explicit flags override), and a failure ends in
the structured ``"config"`` error document.

Every report embeds a ``reproducibility`` block holding the fully resolved
configuration, which can be fed back as a config file to regenerate the same
document byte for byte.  Progress and redraw diagnostics go to standard
error; data products go to files only.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
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
from .empirical_dist import (cdf_at, default_value_grid, iqr, make_grid,
                             prob_positive, quantile)
from .reports import ReportDocument, error_report

logger = logging.getLogger("itedist")


class ConfigError(ValueError):
    """Invalid or inconsistent command configuration."""


# ---------------------------------------------------------------------------
# The flag and command tables
# ---------------------------------------------------------------------------

def _coerce_int(value):
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


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
    if len(pair) != 2 or not pair[0] < pair[1]:
        raise ValueError("expected a lo,hi pair with lo < hi")
    return pair


class _Interval(NamedTuple):
    """The numbers from ``lo`` to ``hi``, ends included only when ``closed``."""
    lo: float
    hi: float = math.inf
    closed: bool = True

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi if self.closed else self.lo < x < self.hi

    def __str__(self) -> str:
        if self.hi == math.inf:
            return f">= {self.lo:g}"
        ends = "[]" if self.closed else "()"
        return f"in {ends[0]}{self.lo:g}, {self.hi:g}{ends[1]}"


class _Flag(NamedTuple):
    coerce: Callable
    rule: _Interval | tuple | None   # an interval, a tuple of choices, or no rule
    help: str


def _describe(rule) -> str:
    return str(rule) if isinstance(rule, _Interval) else "one of " + ", ".join(rule)


_UNIT = _Interval(0.0, 1.0, closed=False)
_STUDIES = ("table1", "table2", "table3", "table4", "figure1", "figure2")

_FLAGS = {
    "input": _Flag(str, None, "CSV file with a header row"),
    "outcome-col": _Flag(str, None, "outcome column"),
    "treatment-col": _Flag(str, None, "binary treatment column"),
    "iv-col": _Flag(str, None, "binary instrument column"),
    "covariate-cols": _Flag(_coerce_str_list, None,
                            "integer-coded or label covariate columns, comma separated"),
    "group": _Flag(str, None, "covariate selector, e.g. 'inc>1,married=1'"),
    "group0": _Flag(str, None, "covariate selector of the first group"),
    "group1": _Flag(str, None, "covariate selector of the second group"),
    "alpha": _Flag(float, _UNIT, "one minus the confidence level"),
    "bootstrap": _Flag(_coerce_int, _Interval(2), "bootstrap replications"),
    "seed": _Flag(_coerce_int, _Interval(0), "random seed"),
    "tau": _Flag(_coerce_float_list, _UNIT, "quantile levels, comma separated"),
    "v": _Flag(_coerce_float_list, None, "CDF evaluation points, comma separated"),
    "y": _Flag(_coerce_float_list, _Interval(1.0, 4.0),
               "outcomes to map between treatment states, comma separated"),
    "tau-range": _Flag(_coerce_range, _UNIT, "lo,hi of the quantile-level grid"),
    "v-range": _Flag(_coerce_range, None, "lo,hi of the value grid"),
    "grid-size": _Flag(_coerce_int, _Interval(2), "grid points"),
    "band": _Flag(str, ("constant", "variable"), "uniform band kind"),
    "report": _Flag(_coerce_str_list, ("prob-positive", "quantile", "iqr", "cdf", "bands"),
                    "products to report, comma separated"),
    "study": _Flag(str, _STUDIES, "coverage table or figure"),
    "n": _Flag(_coerce_int, _Interval(1), "sample size of each Monte Carlo draw"),
    "reps": _Flag(_coerce_int, _Interval(1), "Monte Carlo replications"),
    "levels": _Flag(_coerce_float_list, _UNIT, "confidence levels, comma separated"),
    "max-redraws": _Flag(_coerce_int, _Interval(0),
                         "redraws allowed for a resample that leaves a cell unfit"),
    "format": _Flag(str, ("json", "csv"), "report format"),
    "output": _Flag(str, None, "output file"),
    "threads": _Flag(_coerce_int, _Interval(1), "worker cap; never changes results"),
}

# The default of a flag that every run must give.
_REQUIRED = object()

# Each command's flags and defaults, in the order of its reproducibility block.
_COMMANDS = {
    "analyze": ("single-group inference from CSV", {
        "input": _REQUIRED, "outcome-col": "y", "treatment-col": "d", "iv-col": "z",
        "covariate-cols": [], "group": "", "alpha": 0.05, "bootstrap": 500,
        "seed": 0, "tau": [0.5], "v": [0.0], "tau-range": [0.1, 0.9],
        "v-range": None, "grid-size": 161, "band": "constant",
        "report": ["prob-positive", "quantile", "iqr"], "format": "json",
        "output": _REQUIRED, "max-redraws": 100}),
    "compare": ("two-group contrasts and tests", {
        "input": _REQUIRED, "outcome-col": "y", "treatment-col": "d", "iv-col": "z",
        "covariate-cols": [], "group0": _REQUIRED, "group1": _REQUIRED, "alpha": 0.05,
        "bootstrap": 500, "seed": 0, "tau": [0.25, 0.5, 0.75],
        "tau-range": [0.1, 0.9], "grid-size": 161, "band": "constant",
        "format": "json", "output": _REQUIRED, "max-redraws": 100}),
    "simulate": ("benchmark coverage studies", {
        "study": _REQUIRED, "n": 250, "reps": 300, "levels": [0.9, 0.95, 0.99],
        "bootstrap": 200, "seed": 0, "v": [2.0], "tau": [0.5],
        "v-range": [0.04, 3.96], "tau-range": [0.05, 0.95], "grid-size": None,
        "output": _REQUIRED, "max-redraws": 100}),
    "oracle": ("benchmark truth queries", {
        "tau": [], "v": [], "y": [], "output": None, "format": "json"}),
}


def _coerce(key: str, value):
    """Coerce a flag or config-file value and hold it to the flag's rule."""
    coerce, rule, _ = _FLAGS[key]
    try:
        coerced = coerce(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"--{key}: cannot use {value!r}: {exc}") from None
    if rule is not None:
        for item in coerced if isinstance(coerced, list) else [coerced]:
            if item not in rule:
                raise ConfigError(f"--{key}: must be {_describe(rule)}, got {item!r}")
    return coerced


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Defaults, overlaid by the config file, overlaid by explicit flags, with
    every flag present that ``defaults`` does not leave optional."""
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
    for key, default in defaults.items():
        missing = (None, "", _REQUIRED) if default is _REQUIRED else (None,)
        if default is not None and resolved[key] in missing:
            raise ConfigError(f"--{key} is required")
        if isinstance(default, list) and default and resolved[key] == []:
            raise ConfigError(f"--{key}: needs at least one value")
    return resolved


def _warn_small_bootstrap(b: int, alpha: float) -> None:
    """Say when ``b`` replications leave no order statistic in either tail at
    level ``1 - alpha``: the interval endpoints are then the smallest and the
    largest replication."""
    if b * alpha / 2.0 < 1.0:
        logger.warning("B=%d is too small for level %g (B * alpha / 2 < 1): interval "
                       "endpoints are the smallest and largest replications",
                       b, 1.0 - alpha)


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

def cmd_analyze(resolved: dict, threads: int) -> ReportDocument:
    _warn_small_bootstrap(resolved["bootstrap"], resolved["alpha"])

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
            document.point_estimates[f"cdf@{v:g}"] = float(cdf_at(values, v))
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

def cmd_compare(resolved: dict, threads: int) -> ReportDocument:
    _warn_small_bootstrap(resolved["bootstrap"], resolved["alpha"])

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
    # Sorted and deduplicated by run starts: np.unique would load numpy.ma.
    levels = np.sort(np.concatenate((grid.points, taus, [0.25, 0.75])))
    levels = levels[np.concatenate(([True], levels[1:] != levels[:-1]))]
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

def _study_targets(resolved: dict) -> list:
    from .benchmark_sim import StudyTarget

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
    size = resolved["grid-size"] or 91   # table4, the one study left
    grid = make_grid("levels", *resolved["tau-range"], size)
    return [StudyTarget(kind="quantile-band", grid=grid, band="constant"),
            StudyTarget(kind="quantile-band", grid=grid, band="variable")]


def cmd_simulate(resolved: dict, threads: int) -> None:
    from .benchmark_sim import (gaussian_diagnostic, run_coverage, write_coverage_csv,
                                write_diagnostic_csv, write_variance_profile_csv)

    output = Path(resolved["output"])
    if resolved["study"] == "figure1":
        grid = make_grid("levels", *resolved["tau-range"], resolved["grid-size"] or 81)
        write_variance_profile_csv(output, taus=grid.points)
        logger.info("variance profile written to %s", output)
        return
    if resolved["study"] == "figure2":
        if len(resolved["tau"]) != 1:
            raise ConfigError(f"--tau: figure2 needs exactly one level, got {resolved['tau']}")
        diag = gaussian_diagnostic(resolved["tau"][0], resolved["n"],
                                   resolved["reps"], resolved["seed"],
                                   threads=threads)
        write_diagnostic_csv(diag, output)
        logger.info("diagnostic draws written to %s (mean %.3f, variance %.3f)",
                    output, diag.mean, diag.variance)
        return

    _warn_small_bootstrap(resolved["bootstrap"], 1.0 - max(resolved["levels"]))
    reports = run_coverage(_study_targets(resolved), n=resolved["n"],
                           reps=resolved["reps"], levels=resolved["levels"],
                           b=resolved["bootstrap"], seed=resolved["seed"],
                           threads=threads, max_redraws=resolved["max-redraws"])
    write_coverage_csv(reports, output)
    logger.info("coverage table written to %s", output)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(resolved: dict) -> ReportDocument:
    from .benchmark_sim import DgpOracle, TheoryVariance

    oracle = DgpOracle()
    theory = TheoryVariance()
    estimates: dict[str, float] = {}
    for tau in resolved["tau"]:
        estimates[f"quantile@{tau:g}"] = float(oracle.quantile(tau))
        estimates[f"quantile_var_sampling@{tau:g}"] = float(theory.quantile_sampling(tau))
        estimates[f"quantile_var_estimation@{tau:g}"] = float(theory.quantile_estimation(tau))
    for v in resolved["v"]:
        if not oracle.support[0] <= v <= oracle.support[1]:
            raise ConfigError(f"v must lie in {oracle.support}, got {v}")
        estimates[f"cdf@{v:g}"] = float(oracle.cdf(v))
        estimates[f"density@{v:g}"] = float(oracle.density(v))
    for y in resolved["y"]:
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itedist",
        description="Distributional inference for individual treatment effects "
                    "with a binary endogenous treatment and a binary instrument.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (summary, defaults) in _COMMANDS.items():
        sub = commands.add_parser(command, help=summary)
        for key in (*defaults, "threads"):
            _, rule, text = _FLAGS[key]
            text = text if rule is None else f"{text} [{_describe(rule)}]"
            if key == "study":
                sub.add_argument("study", nargs="?", help=text)
            else:
                sub.add_argument(f"--{key}", *(["--B"] if key == "bootstrap" else []),
                                 help=text)
        sub.add_argument("--config", help="JSON config file (flags override it)")
        sub.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    started = time.perf_counter()
    command = args.command
    try:
        resolved = _resolve(args, _COMMANDS[command][1])
        threads = 1 if args.threads is None else _coerce("threads", args.threads)
    except ConfigError as exc:
        sys.stderr.write(error_report(command, "config", str(exc)))
        return 2

    try:
        if resolved["output"]:
            _check_output_dir(resolved["output"])
        if command == "analyze":
            document = cmd_analyze(resolved, threads)
            _write_document(document, resolved)
        elif command == "compare":
            document = cmd_compare(resolved, threads)
            _write_document(document, resolved)
        elif command == "simulate":
            cmd_simulate(resolved, threads)
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
