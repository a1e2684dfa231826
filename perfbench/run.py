"""Benchmark runner for itedist.

One workload, in the form ``BENCHMARK.json`` declares (last stdout line is JSON)::

    python3 perfbench/run.py --workload analyze-retirement --seed 1 --seconds 40 --trace 0

Every workload, every metric with its unit, as a table::

    python3 perfbench/run.py --all --seed 1 --seconds 40

Each measured command is a fresh interpreter running ``itedist.cli.main``
with tracing off; set-up is timed as its own fresh-process step.  With
``--trace 1`` (and under ``--all``) one more run of the same command goes
through ``perfbench/spans.py``, which records layer spans around the
package's public functions, and the per-layer metrics are read off it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

MIN_RUNS = 5
CHILD_TIMEOUT_S = 100
CLI_ENTRY = "import sys; from itedist.cli import main; sys.exit(main(sys.argv[1:]))"

END_TO_END_UNITS = {"wall_s": "s", "ite_rows_per_s": "rows/s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_child(argv: list[str], stderr_path: Path) -> dict:
    """Run ``argv`` to completion; wall time from spawn to exit plus its rusage."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=_child_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"start": start, "wall_s": wall, "code": proc.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def _stderr_tail(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(lines[-3:])


def environment() -> dict:
    import numpy
    import scipy
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _commit()}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        return (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return "unknown"


def run_set(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Untraced runs, each after one set-up probe, for ``seconds``; then the traced run.

    Interleaving the set-up probes with the runs spreads both over the whole
    window, so a slow phase of a shared machine weighs on them alike.
    """
    load_start = os.getloadavg()[0]
    workdir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        source = workload.prepare(workdir, seed)

        def set_up() -> float:
            probe = timed_child([sys.executable, str(HERE / "workloads.py"), workload.name,
                                 str(source), str(seed), str(workdir / "setup.out")],
                                workdir / "setup.err")
            if probe["code"] != 0:
                raise RuntimeError(f"set-up of {workload.name} failed: "
                                   f"{_stderr_tail(workdir / 'setup.err')}")
            return probe["wall_s"]

        setups, runs = [], []
        began = time.perf_counter()
        while True:
            setups.append(set_up())
            output = workdir / f"out{len(runs)}{workload.suffix}"
            argv = workload.argv(source, output, seed)
            record = timed_child([sys.executable, "-c", CLI_ENTRY, *argv], workdir / "cli.err")
            runs.append(_checked(workload, record, output, workdir / "cli.err"))
            elapsed = time.perf_counter() - began
            typical = statistics.median(setups) + statistics.median(r["wall_s"] for r in runs)
            if len(runs) >= MIN_RUNS and elapsed + typical > seconds:
                break

        traced = None
        if trace:
            output = workdir / f"traced{workload.suffix}"
            dump = workdir / "trace.json"
            argv = workload.argv(source, output, seed)
            record = timed_child([sys.executable, str(HERE / "spans.py"), str(dump), *argv],
                                 workdir / "traced.err")
            traced = _checked(workload, record, output, workdir / "traced.err")
            if dump.exists():
                traced["dump"] = json.loads(dump.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = runs[0]["digest"]
    for record in runs + ([traced] if traced else []):
        if record["digest"] != reference:
            record["problems"].append("output digest differs from the first run")
    return {"workload": workload.name, "seed": seed, "setups": setups, "runs": runs,
            "traced": traced, "load_1m": [load_start, os.getloadavg()[0]]}


def _checked(workload, record: dict, output: Path, err: Path) -> dict:
    problems = [] if record["code"] == 0 else [f"exit {record['code']}: {_stderr_tail(err)}"]
    problems += workload.check(output)
    record["digest"] = workloads.digest(output) if output.exists() else None
    record["problems"] = problems
    output.unlink(missing_ok=True)
    return record


def end_to_end(workload, result: dict) -> dict:
    """The end-to-end metrics of one set.

    Times are the fastest of the set's samples.  On the shared machine this
    was tuned on, one command took from 2.1 to 3.6 s within a single window,
    and whole windows can run slow; a slow stretch that covers only part of
    the window does not move the fastest of about ten short commands.  The
    median and quartiles of every time are kept in the results file.
    """
    runs = result["runs"]
    wall = min(r["wall_s"] for r in runs)
    return {"wall_s": wall,
            "ite_rows_per_s": workload.rows() / wall,
            "cpu_s": min(r["cpu_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "setup_s": min(result["setups"])}


def quartiles(values) -> list[float]:
    """First quartile, median and third quartile of ``values``."""
    return statistics.quantiles(values, n=4, method="inclusive")


def per_layer(result: dict, wall: float) -> dict:
    """Per-layer metrics of the traced run, plus its overhead against ``wall``."""
    traced = result["traced"]
    metrics = {k: (m["value"], m["unit"]) for k, m in traced["dump"]["metrics"].items()}
    traced_wall = traced["dump"]["main_end"] - traced["start"]
    metrics["trace.overhead_share"] = (traced_wall / wall - 1.0, "ratio")
    return metrics


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one set; return the result line's object and the full record."""
    env = environment()
    result = run_set(workload, seed, seconds, trace)
    attempted = result["runs"] + ([result["traced"]] if result["traced"] else [])
    failed = sum(1 for r in attempted if r["problems"])
    e2e = end_to_end(workload, result)
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
    dump = (result["traced"] or {}).get("dump") or {}
    layers = per_layer(result, e2e["wall_s"]) if dump else {}
    descriptors = {k: (m["value"], m["unit"]) for k, m in dump.get("descriptors", {}).items()}
    record = {"environment": {**env, "load_1m_start": result["load_1m"][0],
                              "load_1m_end": result["load_1m"][1]},
              "workload": workload.name, "why": workload.why, "seed": seed,
              "seconds": seconds, "end_to_end": metrics, "per_layer": layers,
              "descriptors": descriptors,
              "failed_share": failed / len(attempted),
              "quartiles": {"wall_s": quartiles(r["wall_s"] for r in result["runs"]),
                            "cpu_s": quartiles(r["cpu_s"] for r in result["runs"]),
                            "setup_s": quartiles(result["setups"])},
              "digests": sorted({r["digest"] or "missing" for r in attempted}),
              "problems": [p for r in attempted for p in r["problems"]],
              "setup_samples_s": result["setups"],
              "runs": [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "code")}
                       for r in result["runs"]],
              "trace_spans": dump.get("spans")}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for problem in record["problems"]:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    shown = layers if trace else metrics
    return {"correct": failed == 0 and bool(layers or not trace),
            "attempted": len(attempted), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}}, record


def print_table(record: dict) -> None:
    print(f"\n== {record['workload']} (seed {record['seed']}, "
          f"{len(record['runs'])} untraced runs) ==")
    print(f"   {record['why']}")
    rows = list(record["end_to_end"].items())
    rows.append(("failed_share", (record["failed_share"], "ratio")))
    rows += list(record["per_layer"].items())
    rows += list(record["descriptors"].items())
    for name, (value, unit) in rows:
        spread = record["quartiles"].get(name)
        quartile_text = ("   quartiles " + " / ".join(f"{q:.4g}" for q in spread)
                         if spread else "")
        print(f"  {name:40s} {value:>16.6g} {unit}{quartile_text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload traced and print every metric")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload NAME or --all")
    if not (SRC / "itedist" / "__init__.py").is_file():
        print(f"run.py: no itedist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.all:
        for workload in WORKLOADS.values():
            _, record = measure(workload, args.seed, args.seconds, trace=True)
            print_table(record)
        return 0
    summary, _ = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
