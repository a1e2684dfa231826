"""Check that two source trees write the same bytes for one set of commands.

    python tools/same_outputs.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository.  The script writes the
benchmark's retirement and bigcell inputs at seeds 3 and 11 once, with
OLD_TREE's ``perfbench`` and ``src``, into a temporary directory.  It then
runs every command below in a fresh interpreter per tree, with
``PYTHONPATH=<tree>/src``, each into its own output directory:

* the argv of each benchmark workload at seeds 3 and 11;
* ``simulate`` table1 to table4, figure1 and figure2 at n 250, reps 30, B 40;
* ``analyze`` (retirement) and ``compare`` (bigcell) as CSV with bands, at
  ``--threads 1`` and ``--threads 4``;
* ``oracle``, to standard output and as a CSV file.

Every output file and standard output must match byte for byte.  Standard
error and the exit code must match once the output directory and the
``finished in`` timing line are normalized.  The script prints each
difference and exits 1 on any, 0 when every output matches.
"""
from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

CLI_ENTRY = "import sys; from itedist.cli import main; sys.exit(main(sys.argv[1:]))"
SEEDS = (3, 11)
TIMING = re.compile(rb"finished in [0-9.]+s")


def commands(old: Path, inputs: Path) -> dict[str, callable]:
    """Name -> argv builder taking the command's output directory.  Writes
    the workload inputs into ``inputs`` with ``old``'s code."""
    sys.dont_write_bytecode = True   # leave both trees as they were
    sys.path[:0] = [str(old / "src"), str(old / "perfbench")]
    from workloads import WORKLOADS

    built = {}
    for seed in SEEDS:
        for name, workload in WORKLOADS.items():
            source = workload.prepare(inputs, seed)
            if source is not None:
                source = source.rename(inputs / f"{source.stem}_{seed}{source.suffix}")
            built[f"{name}@{seed}"] = (
                lambda out, w=workload, src=source, s=seed:
                w.argv(src, out / f"out{w.suffix}", s))
    for study in ("table1", "table2", "table3", "table4", "figure1", "figure2"):
        built[f"simulate-{study}"] = lambda out, study=study: [
            "simulate", study, "--n", "250", "--reps", "30", "--B", "40",
            "--output", str(out / "out.csv")]
    # The workload argv with later flags, which argparse lets win.
    for threads in ("1", "4"):
        for command, name, stem in (("analyze", "analyze-retirement", "retirement"),
                                    ("compare", "compare-bigcell", "bigcell")):
            built[f"{command}-csv-threads{threads}"] = (
                lambda out, w=WORKLOADS[name], stem=stem, t=threads:
                [*w.argv(inputs / f"{stem}_3.csv", out / "report.csv", 3),
                 "--format", "csv", "--bootstrap", "40", "--threads", t])
    query = ["oracle", "--tau", "0.25,0.5,0.75", "--v", "0.5,2", "--y", "2.25"]
    built["oracle-stdout"] = lambda out: query
    built["oracle-csv"] = lambda out: [*query, "--format", "csv",
                                       "--output", str(out / "oracle.csv")]
    return built


def run(tree: Path, argv: list[str], out: Path) -> tuple[int, bytes]:
    """Run the CLI of ``tree`` into ``out``; keep its standard output there
    and return its exit code and normalized standard error."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], env=env, cwd=out,
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=600)
    (out / "stdout").write_bytes(proc.stdout)
    err = TIMING.sub(b"finished in <t>s", proc.stderr.replace(bytes(out), b"<out>"))
    return proc.returncode, err


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = (Path(tree).resolve() for tree in argv)
    differences, files = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "inputs").mkdir()
        built = commands(old, tmp / "inputs")
        for name, build in built.items():
            old_out, new_out = tmp / "old" / name, tmp / "new" / name
            old_code, old_err = run(old, build(old_out), old_out)
            new_code, new_err = run(new, build(new_out), new_out)
            found = []
            if old_code != new_code:
                found.append(f"exit code {old_code} -> {new_code}")
            if old_err != new_err:
                found.append("standard error")
            for file in sorted({p.name for p in old_out.iterdir()}
                               | {p.name for p in new_out.iterdir()}):
                files += 1
                a, b = old_out / file, new_out / file
                if not (a.exists() and b.exists() and a.read_bytes() == b.read_bytes()):
                    found.append(file)
            print(f"{name}: {'DIFFERS ' + ', '.join(found) if found else 'same'}",
                  flush=True)
            differences += found
    print(f"{len(built)} commands, {files} output files (standard output included): "
          f"{len(differences)} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
