"""Layer spans recorded from outside the package, and the metrics read off them.

A :class:`Tracer` wraps the public functions of each ``itedist`` module in
every module namespace that binds them (``pseudo_ites`` is called through
``bootstrap_inference``, ``benchmark_sim`` and ``counterfactual``), so no
source file changes.  Each wrapper records one span: name, start, end, the
span that was open when it was called, and its thread.  Spans stay in memory
until the run ends.

Run as a script, this module is the traced run of the benchmark::

    python3 perfbench/spans.py DUMP.json analyze --input ... --output ...

It calls ``itedist.cli.main`` with the given arguments under the tracer and
writes the per-layer metrics, the workload descriptors and the raw spans to
``DUMP.json``.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
import weakref

import numpy as np

MODULES = ("cli", "data_model", "counterfactual", "bootstrap_inference",
           "empirical_dist", "benchmark_sim", "reports", "_rng")

# (layer, attribute): each attribute is a module-level function, or a method
# given as ``Class.method``.  The span is named ``layer.attribute``.
WRAPPED = (
    ("data_model", "ingest_csv"), ("data_model", "select_group"),
    ("data_model", "estimate_bounds"), ("data_model", "Sample.take"),
    ("data_model", "min_instrument_margin"),
    ("counterfactual", "pseudo_ites"),
    ("bootstrap_inference", "resample"),
    ("bootstrap_inference", "draw_replicates"),
    ("bootstrap_inference", "two_group_quantile_replicates"),
    *(("bootstrap_inference", name) for name in (
        "ci_cdf", "ci_prob_positive", "ci_quantile_and_iqr", "ucb_cdf_constant",
        "ucb_cdf_variable", "ucb_quantile_constant", "ucb_quantile_variable",
        "compare_quantiles", "ucb_quantile_difference", "test_distributions")),
    *(("empirical_dist", name) for name in (
        "ecdf", "quantile", "iqr", "prob_positive", "make_grid")),
    ("_rng", "parallel_map"),
    ("benchmark_sim", "generate"), ("benchmark_sim", "run_coverage"),
    ("reports", "ReportDocument.write_json"), ("reports", "ReportDocument.write_csv"),
    ("cli", "main"),
)

PRODUCTS = tuple(f"bootstrap_inference.{name}" for layer, name in WRAPPED
                 if layer == "bootstrap_inference"
                 and name.startswith(("ci_", "ucb_", "compare_", "test_")))
REPLICATES = ("bootstrap_inference.draw_replicates",
              "bootstrap_inference.two_group_quantile_replicates")

# Read off the trace but properties of the workload or of the trace itself,
# which no change to a layer is meant to move: recorded with the results,
# not declared as per-layer metrics.
DESCRIPTORS = ("cli.main_s", "trace.span_coverage", "counterfactual.pairs_per_fit",
               "input.n", "input.cells", "input.cell_rows_min", "input.cell_rows_max")


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, thread, attrs)
        self.fits: list[tuple] = []    # (sample, bounds) of every pseudo_ites call
        self.resampled = weakref.WeakSet()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """Record ``name`` around the block; ``attrs`` may be filled inside it."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent,
                               threading.get_ident(), attrs))

    @contextlib.contextmanager
    def adopt(self, parent: int):
        """Make ``parent`` the open span of this thread (for pool workers)."""
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    def wrap(self, name: str, fn):
        if name.endswith(".parallel_map"):
            return self._wrap_parallel_map(name, fn)
        hook = getattr(self, "_on_" + name.split(".")[-1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {} if hook else None
            with self.span(name, attrs):
                result = fn(*args, **kwargs)
            if hook:
                hook(attrs, args, kwargs, result)
            return result
        return traced

    def _wrap_parallel_map(self, name, fn):
        @functools.wraps(fn)
        def traced(func, items, threads=1):
            attrs = {}
            cpu = time.process_time()
            with self.span(name, attrs) as parent:
                def adopted(item):
                    with self.adopt(parent):
                        return func(item)
                result = fn(adopted, items, threads)
                attrs["cpu_s"] = time.process_time() - cpu
            return result
        return traced

    # Counter hooks, called after the span closed so their cost stays outside it.
    def _on_pseudo_ites(self, attrs, args, kwargs, result):
        sample = args[0] if args else kwargs["sample"]
        bounds = args[1] if len(args) > 1 else kwargs["bounds"]
        self.fits.append((sample, bounds))

    def _on_resample(self, attrs, args, kwargs, result):
        self.resampled.add(result)

    def _on_min_instrument_margin(self, attrs, args, kwargs, result):
        attrs["margin"] = int(result)

    def _on_write_json(self, attrs, args, kwargs, result):
        attrs["bytes"] = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

    _on_write_csv = _on_write_json

    @contextlib.contextmanager
    def installed(self):
        """Wrap every listed name in every module that binds it; undo on exit."""
        import itedist
        modules = [itedist] + [importlib.import_module(f"itedist.{m}") for m in MODULES]
        undo = []
        try:
            for layer, attr in WRAPPED:
                home = importlib.import_module(f"itedist.{layer}")
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self.wrap(f"{layer}.{method}", original))
                    undo.append((cls, method, original))
                    continue
                original = getattr(home, attr)
                wrapper = self.wrap(f"{layer}.{attr}", original)
                for module in modules:
                    if module.__dict__.get(attr) is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Reading metrics off the spans
# ---------------------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children on pool threads may overlap one another, so the covered part is
    the union of the children's intervals, clipped to the parent.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for span_id, _, start, end, parent, _, _ in spans:
        if parent in by_id:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, start, end, _, _, _ in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ())]
        out[span_id] = (end - start) - _covered([k for k in kids if k[1] > k[0]])
    return out


def fit_counts(sample, bounds) -> tuple[int, int, int]:
    """``(problems, pairs, tie_rows)`` of one ``pseudo_ites`` call.

    A problem is one (cell, target treatment) minimizer with at least one
    query row; its pairs are query rows times candidate points, the candidates
    being the distinct target-group outcomes inside the bounds plus both
    bounds.  A tie row shares its outcome with another row of its cell.
    """
    problems = pairs = ties = 0
    for cell, rows in sample.cell_index.items():
        y = sample.outcomes[rows]
        d = sample.treatments[rows]
        _, inverse, counts = np.unique(y, return_inverse=True, return_counts=True)
        ties += int((counts[inverse] > 1).sum())
        for target in (0, 1):
            queries = int((d == 1 - target).sum())
            if queries == 0:
                continue
            lo, hi = bounds.for_group(target, cell)
            support = y[d == target]
            support = support[(support >= lo) & (support <= hi)]
            problems += 1
            pairs += queries * len(np.unique(np.concatenate(([lo, hi], support))))
    return problems, pairs, ties


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics and descriptors ``{name: (value, unit)}`` of one traced run."""
    spans = tracer.spans
    selfs = self_times(spans)

    def named(*names):
        return [s for s in spans if s[1] in names]

    def busy(*names):
        return float(sum(s[3] - s[2] for s in named(*names)))

    pool_self: dict[int, float] = {}
    for s in named("_rng.parallel_map"):
        pool_self[s[4]] = pool_self.get(s[4], 0.0) + selfs[s[0]]

    def self_sum(*names):
        """Self time of the spans, counting the pool spans they open as their own:
        the pool body is a closure of the caller."""
        return float(sum(selfs[s[0]] + pool_self.get(s[0], 0.0) for s in named(*names)))

    by_id = {s[0]: s for s in spans}

    def outermost_ids(prefix):
        """Ids of the ``prefix`` spans that have no ``prefix`` ancestor."""
        out = set()
        for s in spans:
            if not s[1].startswith(prefix):
                continue
            parent = by_id.get(s[4])
            while parent is not None and not parent[1].startswith(prefix):
                parent = by_id.get(parent[4])
            if parent is None:
                out.add(s[0])
        return out

    def outermost(prefix):
        return float(sum(by_id[i][3] - by_id[i][2] for i in outermost_ids(prefix)))

    main = named("cli.main")
    main_s = sum(s[3] - s[2] for s in main)
    cli_self = self_sum("cli.main")

    fit_ms = np.array([(s[3] - s[2]) * 1e3 for s in named("counterfactual.pseudo_ites")])
    fit_busy = float(fit_ms.sum() / 1e3)
    rows = sum(sample.n for sample, _ in tracer.fits)
    problems = pairs = ties = 0
    for sample, bounds in tracer.fits:
        p, q, t = fit_counts(sample, bounds)
        problems, pairs, ties = problems + p, pairs + q, ties + t
    points = [sample for sample, _ in tracer.fits if sample not in tracer.resampled]
    cell_rows = [len(r) for sample in points for r in sample.cell_index.values()]

    margins = [s[6]["margin"] for s in named("data_model.min_instrument_margin")]
    attempts = len(named("bootstrap_inference.resample"))
    pool = [s for s in named("_rng.parallel_map") if s[0] in outermost_ids("_rng.")]
    pool_wall = sum(s[3] - s[2] for s in pool)

    def share(num, den):
        return float(num / den) if den else 0.0

    return {
        "data_model.ingest_s": (busy("data_model.ingest_csv"), "s"),
        "data_model.select_s": (busy("data_model.select_group"), "s"),
        "data_model.bounds_s": (busy("data_model.estimate_bounds"), "s"),
        "data_model.take_s": (busy("data_model.take"), "s"),
        "data_model.take_calls": (len(named("data_model.take")), "count"),
        "data_model.margin_s": (busy("data_model.min_instrument_margin"), "s"),
        "counterfactual.busy_s": (fit_busy, "s"),
        "counterfactual.calls": (len(fit_ms), "count"),
        "counterfactual.call_p50_ms": (float(np.percentile(fit_ms, 50)) if len(fit_ms) else 0.0, "ms"),
        "counterfactual.call_p90_ms": (float(np.percentile(fit_ms, 90)) if len(fit_ms) else 0.0, "ms"),
        "counterfactual.rows_per_s": (share(rows, fit_busy), "rows/s"),
        "counterfactual.problems": (problems, "count"),
        "counterfactual.pairs": (pairs, "count"),
        "counterfactual.pairs_per_s": (share(pairs, fit_busy), "pairs/s"),
        "counterfactual.pairs_per_fit": (share(pairs, len(fit_ms)), "count"),
        "counterfactual.tie_share": (share(ties, rows), "ratio"),
        "bootstrap_inference.resample_s": (busy("bootstrap_inference.resample"), "s"),
        "bootstrap_inference.replicates_s": (busy(*REPLICATES), "s"),
        "bootstrap_inference.replicates_self_s": (self_sum(*REPLICATES), "s"),
        "bootstrap_inference.attempts": (attempts, "count"),
        "bootstrap_inference.yield": (share(sum(m >= 2 for m in margins), attempts), "ratio"),
        "bootstrap_inference.products_s": (busy(*PRODUCTS), "s"),
        "bootstrap_inference.products_calls": (len(named(*PRODUCTS)), "count"),
        "empirical_dist.busy_s": (outermost("empirical_dist."), "s"),
        "rng.parallel_map_s": (float(pool_wall), "s"),
        "rng.cpu_per_wall": (share(sum(s[6]["cpu_s"] for s in pool), pool_wall), "ratio"),
        "benchmark_sim.generate_s": (busy("benchmark_sim.generate"), "s"),
        "benchmark_sim.evaluate_s": (self_sum("benchmark_sim.run_coverage"), "s"),
        "reports.write_s": (busy("reports.write_json", "reports.write_csv"), "s"),
        "reports.bytes": (sum(s[6]["bytes"] for s in named("reports.write_json",
                                                           "reports.write_csv")), "bytes"),
        "cli.main_s": (float(main_s), "s"),
        "cli.self_s": (cli_self, "s"),
        "trace.span_coverage": (share(main_s - cli_self, main_s), "ratio"),
        "input.n": (max((s.n for s in points), default=0), "rows"),
        "input.cells": (max((len(s.cell_index) for s in points), default=0), "count"),
        "input.cell_rows_min": (min(cell_rows, default=0), "rows"),
        "input.cell_rows_max": (max(cell_rows, default=0), "rows"),
    }


def main(argv: list[str]) -> int:
    dump, cli_argv = argv[0], argv[1:]
    import itedist.cli
    tracer = Tracer()
    with tracer.installed():
        code = itedist.cli.main(cli_argv)
    main_end = time.perf_counter()
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(tracer).items()}
    record = {"exit": code, "main_end": main_end,
              "metrics": {k: m for k, m in metrics.items() if k not in DESCRIPTORS},
              "descriptors": {k: m for k, m in metrics.items() if k in DESCRIPTORS},
              "spans": [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                         "thread": t} for i, n, s, e, p, t, _ in tracer.spans]}
    with open(dump, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
