"""The benchmark workloads: inputs, CLI arguments and output checks.

Run as a script, this module is the set-up probe: it runs one workload's CLI
command in a fresh interpreter and stops it where the first bootstrap
replication would start; the runner times it from spawn to exit::

    python3 perfbench/workloads.py WORKLOAD INPUT SEED OUTPUT
"""
from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path

import inputs

# Probability-valued interval targets of the report format.
_PROBABILITY_TARGETS = {"cdf", "prob-positive"}

# The ``--seed`` given to ``analyze``: the workload seed draws its outcomes,
# not its bootstrap draws.  How much exact tie-breaking an analyze run needs
# depends mostly on the draws: over seeds 1 to 10 at B=20, the summed length
# of its exact scores varied by 0.13 (quartile distance over median) when the
# seed drew both, and by 0.015 when it drew the outcomes alone.  In compare
# the outcomes matter as much as the draws, so there the seed draws both.
ANALYZE_BOOTSTRAP_SEED = 1


class Workload:
    name = ""
    why = ""
    suffix = ".json"

    def prepare(self, workdir: Path, seed: int) -> Path | None:
        """Write the seeded input file; ``None`` when the command needs none."""
        return None

    def argv(self, source: Path | None, output: Path, seed: int) -> list[str]:
        raise NotImplementedError

    def rows(self) -> int:
        """Pseudo-ITE rows estimated by one command: point fits plus replications."""
        raise NotImplementedError

    def check(self, output: Path) -> list[str]:
        """Problems found in the command's output; empty when it is correct."""
        return check_report(output)


def check_report(path: Path) -> list[str]:
    from itedist.reports import REPORT_SCHEMA
    import jsonschema

    try:
        document = json.loads(path.read_text(encoding="utf-8"))
        jsonschema.validate(document, REPORT_SCHEMA)
    except (OSError, ValueError, jsonschema.ValidationError) as exc:
        return [f"{path.name}: {type(exc).__name__}: {str(exc)[:200]}"]
    problems = []
    for entry in document["intervals"]:
        label = f"{entry['target']}@{entry.get('at', '')}"
        if not entry["lo"] <= entry["hi"]:
            problems.append(f"interval {label} has lo > hi")
        if entry["target"] in _PROBABILITY_TARGETS and not 0.0 <= entry["lo"] <= entry["hi"] <= 1.0:
            problems.append(f"probability interval {label} leaves [0, 1]")
    return problems


def check_coverage_csv(path: Path) -> list[str]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
    except OSError as exc:
        return [f"{path.name}: {exc}"]
    if not rows:
        return [f"{path.name}: no coverage rows"]
    problems = []
    for row in rows:
        if row["failures"] != "0":
            problems.append(f"{row['target']}: {row['failures']} failed replication(s)")
        for key, value in row.items():
            if key.startswith("cp_") and not 0.0 <= float(value) <= 1.0:
                problems.append(f"{row['target']}: {key}={value} outside [0, 1]")
    return problems


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class AnalyzeRetirement(Workload):
    name = "analyze-retirement"
    why = ("64 small cells with rounded outcomes: many small minimizer problems, "
           "exact tie re-ranking, per-resample cell re-indexing, full JSON report")
    n = 8702
    bootstrap = 10

    def prepare(self, workdir, seed):
        return inputs.write_retirement_csv(workdir / "retirement.csv", seed)

    def argv(self, source, output, seed):
        return ["analyze", "--input", str(source), "--outcome-col", "networth",
                "--treatment-col", "participates", "--iv-col", "eligible",
                "--covariate-cols", "inc,age,marr,fam",
                "--report", "prob-positive,quantile,iqr,cdf,bands",
                "--tau", "0.25,0.5,0.75", "--band", "variable", "--threads", "1",
                "--bootstrap", str(self.bootstrap), "--seed", str(ANALYZE_BOOTSTRAP_SEED),
                "--output", str(output)]

    def rows(self):
        return self.n * (self.bootstrap + 1)


class CompareBigcell(Workload):
    name = "compare-bigcell"
    why = ("two one-cell groups of 6000 continuous rows: dense query-by-candidate "
           "scan and its memory, two-group replicates, bands and tests")
    n_per_group = 6000
    bootstrap = 2
    # One worker: on a shared two-core machine, a neighbour taking one core
    # moves a two-worker command's time directly.  In an earlier form of this
    # workload (B=4, median of each window) two workers read up to 0.24 apart
    # across ten seeds (quartile distance over median of wall time), one
    # worker at most 0.18.  The thread pool's parallel path is unmeasured.
    threads = 1

    def prepare(self, workdir, seed):
        return inputs.write_bigcell_csv(workdir / "bigcell.csv", seed, self.n_per_group)

    def argv(self, source, output, seed):
        return ["compare", "--input", str(source), "--covariate-cols", "g",
                "--group0", "g=0", "--group1", "g=1", "--band", "variable",
                "--bootstrap", str(self.bootstrap), "--threads", str(self.threads),
                "--seed", str(seed), "--output", str(output)]

    def rows(self):
        return 2 * self.n_per_group * (self.bootstrap + 1)


class SimulateDesk(Workload):
    name = "simulate-desk"
    why = ("many tiny one-cell fits (n=250, B=200, 6 reps): per-call overhead, "
           "sample generation and band scoring on a 393-point grid")
    suffix = ".csv"
    n = 250
    bootstrap = 200
    reps = 6

    def argv(self, source, output, seed):
        return ["simulate", "table2", "--n", str(self.n), "--B", str(self.bootstrap),
                "--reps", str(self.reps), "--seed", str(seed), "--output", str(output)]

    def rows(self):
        return self.reps * self.n * (self.bootstrap + 1)

    def check(self, output):
        return check_coverage_csv(output)


WORKLOADS = {w.name: w for w in (AnalyzeRetirement(), CompareBigcell(), SimulateDesk())}


class FirstReplication(BaseException):
    """Raised where the first replication would start.

    A ``BaseException``, so that none of ``cli.main``'s error handlers catch it.
    """


def _stop(*args, **kwargs):
    raise FirstReplication


def probe_setup(workload: Workload, source: str | None, seed: int, output: str) -> bool:
    """Run the workload's command up to its first replication; True if it got there.

    Everything ``cli.main`` does before it (argument parsing, config
    resolution, ingest, selection, estimability checks, bounds) runs as in the
    measured command.
    """
    from itedist import benchmark_sim, cli

    replaced = [(cli, "draw_replicates"), (cli, "two_group_quantile_replicates"),
                (benchmark_sim, "draw_replicates")]
    originals = [getattr(module, name) for module, name in replaced]
    for module, name in replaced:
        setattr(module, name, _stop)
    try:
        cli.main(workload.argv(source, output, seed))
    except FirstReplication:
        return True
    finally:
        for (module, name), original in zip(replaced, originals):
            setattr(module, name, original)
    return False


if __name__ == "__main__":
    name, source, seed, output = sys.argv[1:5]
    sys.exit(0 if probe_setup(WORKLOADS[name], source, int(seed), output) else 3)
