"""Tests of the benchmark's own code: generators, counters, spans, wrappers."""
from __future__ import annotations

import math
import time

import numpy as np

import inputs
import spans
import workloads
from itedist import Sample, estimate_bounds
from itedist import bootstrap_inference, cli, data_model


def test_retirement_generator_reproduces_layout():
    y, d, z, x = inputs.retirement_columns()
    cells, sizes = np.unique(x, axis=0, return_counts=True)
    assert len(y) == 8702
    assert len(cells) == 64
    assert (sizes.min(), sizes.max()) == (15, 336)
    assert set(np.unique(d)) == set(np.unique(z)) == {0, 1}
    assert np.array_equal(np.round(y, 3), y)


def test_pair_count_matches_brute_force():
    y = [2.0, 2.0, 1.0, 3.0, 3.0, 4.0]
    d = [0, 1, 1, 0, 1, 0]
    x = [0, 0, 0, 1, 1, 1]
    sample = Sample(outcomes=y, treatments=d, instruments=[0, 1, 0, 1, 0, 1],
                    covariates=np.array(x).reshape(-1, 1))
    bounds = estimate_bounds(sample)

    problems, pairs, ties = set(), 0, 0
    for i in range(6):
        target = 1 - d[i]
        lo, hi = bounds.for_group(target, (x[i],))
        candidates = {lo, hi} | {y[j] for j in range(6)
                                 if x[j] == x[i] and d[j] == target and lo <= y[j] <= hi}
        problems.add((x[i], target))
        pairs += len(candidates)
        ties += any(y[j] == y[i] for j in range(6) if j != i and x[j] == x[i])
    assert spans.fit_counts(sample, bounds) == (len(problems), pairs, ties)


def test_self_times_of_nested_spans_sum_to_parent():
    tracer = spans.Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                time.sleep(0.002)
            time.sleep(0.001)
        with tracer.span("d"):
            time.sleep(0.001)
    selfs = spans.self_times(tracer.spans)
    (root,) = [s for s in tracer.spans if s[1] == "a"]
    assert math.isclose(sum(selfs.values()), root[3] - root[2], rel_tol=1e-9)
    assert all(value >= 0 for value in selfs.values())

    # Children on pool threads may overlap: the parent loses their union only.
    overlapping = [(1, "pool", 0.0, 10.0, None, 1, None),
                   (2, "fit", 1.0, 4.0, 1, 2, None), (3, "fit", 3.0, 6.0, 1, 3, None)]
    assert math.isclose(spans.self_times(overlapping)[1], 5.0)


def test_wrappers_leave_report_bytes_unchanged(tmp_path):
    source = inputs.write_retirement_csv(tmp_path / "retirement.csv", 3)
    workload = workloads.AnalyzeRetirement()
    workload.bootstrap = 3
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    originals = (cli.main, bootstrap_inference.pseudo_ites, data_model.Sample.take)

    assert cli.main(workload.argv(source, plain, 5)) == 0
    tracer = spans.Tracer()
    with tracer.installed():
        assert bootstrap_inference.pseudo_ites is not originals[1]
        assert cli.main(workload.argv(source, traced, 5)) == 0

    assert (cli.main, bootstrap_inference.pseudo_ites, data_model.Sample.take) == originals
    assert plain.read_bytes() == traced.read_bytes()
    assert workload.check(traced) == []
    metrics = spans.layer_metrics(tracer)
    assert metrics["counterfactual.calls"][0] == 4
    assert metrics["bootstrap_inference.attempts"][0] == 3
    assert metrics["input.n"][0] == 8702
    assert metrics["reports.bytes"][0] == plain.stat().st_size
    assert metrics["trace.span_coverage"][0] > 0.9


def test_setup_probe_stops_at_first_replication(tmp_path):
    from itedist import benchmark_sim

    originals = (cli.draw_replicates, benchmark_sim.draw_replicates)
    workload = workloads.WORKLOADS["simulate-desk"]
    assert workloads.probe_setup(workload, None, 2, str(tmp_path / "out.csv"))
    assert (cli.draw_replicates, benchmark_sim.draw_replicates) == originals
    assert not (tmp_path / "out.csv").exists()


def test_traced_run_reports_exactly_the_declared_metrics():
    import json
    from pathlib import Path

    declared = json.loads((Path(spans.__file__).parent.parent / "BENCHMARK.json")
                          .read_text(encoding="utf-8"))
    metrics = spans.layer_metrics(spans.Tracer())
    reported = {k for k in metrics if k not in spans.DESCRIPTORS} | {"trace.overhead_share"}
    assert reported == {m["name"] for m in declared["per_layer"]}
