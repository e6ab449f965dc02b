"""Tests of the benchmark itself: span arithmetic, the AUROC oracle, and a
tiny-size run of every workload, traced and untraced.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import threading
from dataclasses import replace

import pytest

import run

run.import_library()

import checks  # noqa: E402
from layers import uncovered  # noqa: E402
from spans import Span, Tracer, covered, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_self_time_subtracts_only_direct_children():
    spans = [
        Span(1, "root", 0.0, 10.0, None, "u", 1),
        Span(2, "child", 1.0, 4.0, 1, "u", 1),
        Span(3, "grandchild", 2.0, 3.0, 2, "u", 1),
        Span(4, "child", 6.0, 7.5, 1, "u", 1),
    ]
    assert self_times(spans) == {1: 5.5, 2: 2.0, 3: 1.0, 4: 1.5}


def test_overlapping_children_on_two_threads_are_merged_not_summed():
    spans = [
        Span(1, "root", 0.0, 10.0, None, "u", 1),
        Span(2, "worker", 1.0, 6.0, 1, "u", 2),
        Span(3, "worker", 3.0, 8.0, 1, "u", 3),
        Span(4, "late", 9.5, 12.0, 1, "u", 1),  # clipped to the parent's end
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 7.0 - 0.5)
    assert covered([(1.0, 6.0), (3.0, 8.0), (8.0, 9.0)], 0.0, 10.0) == 8.0


def test_uncovered_ignores_orchestration_spans():
    root = Span(1, "bench.unit", 0.0, 10.0, None, "u", 1)
    spans = [
        root,
        Span(2, "simulation.run_replicate", 0.0, 10.0, 1, "u", 1),
        Span(3, "roc.auroc", 2.0, 5.0, 2, "u", 1),
        Span(4, "estimation.tally_confusion", 4.0, 6.0, 2, "u", 2),
    ]
    assert uncovered(root, spans) == pytest.approx(6.0)


def test_tracer_parents_pool_thread_spans_to_the_waiting_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.operation("unit-0", "bench.unit"):
        with tracer.span("simulation.run_experiment"):
            def worker():
                with tracer.span("simulation.run_replicate"):
                    clock.now += 1.0

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["simulation.run_replicate"].parent == by_name[
        "simulation.run_experiment"].span_id
    assert by_name["simulation.run_experiment"].parent == by_name["bench.unit"].span_id
    assert {s.op for s in tracer.spans} == {"unit-0"}
    assert by_name["simulation.run_replicate"].thread != by_name["bench.unit"].thread


def test_mann_whitney_oracle_on_hand_computed_ties():
    # positives (0.8, w=2), (0.4, w=1); negatives (0.8, w=1), (0.2, w=3)
    # pairs: tie 0.5*2*1 + 2*3 + 0 + 1*3 = 10, over 3 * 4 = 12
    y, s, w = [1, 0, 1, 0], [0.8, 0.8, 0.4, 0.2], [2.0, 1.0, 1.0, 3.0]
    assert checks.mann_whitney_auc(y, s, w) == pytest.approx(10.0 / 12.0, abs=1e-15)
    # unweighted: tie 0.5 + 1 + 0 + 1 = 2.5 over 4
    assert checks.mann_whitney_auc(y, s, [1.0] * 4) == pytest.approx(2.5 / 4.0, abs=1e-15)


TINY = {
    "sim-default": dict(size=3000, trees=3,
                        allocations={"18-25": 60, "26-34": 40, "35-49": 50,
                                     "50-64": 30, "65+": 20}),
    "sim-continuous": dict(size=3000, trees=3,
                           allocations={"19-25": 40, "25-34": 40, "34-54": 40,
                                        "54-65": 40, "65-100": 40}),
    "cli-exact": dict(population_size=3000,
                      allocations={"19-25": 80, "25-34": 80, "34-54": 80,
                                   "54-65": 80, "65-100": 80}),
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_clean_and_reports_every_metric(name, trace, tmp_path):
    workload = replace(WORKLOADS[name], **TINY[name])
    tracer, setups, properties, units = run.measure(
        workload, seed=7, seconds=0.01, trace=trace, scratch=tmp_path / "work")
    assert len(setups) == run.SETUPS and all(s["scaled"] > 0 for s in setups)
    assert units and all(u["failed"] == 0 and not u["problems"] for u in units)
    assert not (tmp_path / "work").exists()
    descriptor = run.load_descriptor()
    e2e = run.end_to_end(units, setups)
    assert set(e2e) == {m["name"] for m in descriptor["end_to_end"]}
    assert all(value > 0 for value in e2e.values())
    if trace:
        values = run.per_layer(tracer, units)
        assert set(values) == {m["name"] for m in descriptor["per_layer"]}
        assert values["trace.units"] == 1
        if name == "cli-exact":
            assert values["roc.roc_sweep.exact.n"] == properties["distinct_eval_scores"]
            assert values["cli.evaluate.s"] > 0
        else:
            assert values["classifiers.FlatTree.predict.calls"] == 3
            assert values["classifiers.predict_proba_columns.distinct_ratio"] == pytest.approx(
                properties["distinct_pattern_ratio"])


def test_descriptor_names_the_workloads_the_benchmark_defines():
    descriptor = run.load_descriptor()
    assert [w["name"] for w in descriptor["workloads"]] == list(WORKLOADS)
    assert json.loads(json.dumps(descriptor)) == descriptor
