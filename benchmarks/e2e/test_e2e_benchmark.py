"""Tests for the end-to-end benchmark: span self time, the percentile
rule, compare verdicts, and a short smoke run of every workload."""

from __future__ import annotations

import json
import threading

import pytest

from e2e import compare, harness, spans
from e2e.workloads import WORKLOADS


def _span(span_id, parent, name, start, end, size=0):
    return (span_id, parent, parent or span_id, name, start, end, size)


def test_self_time_subtracts_nested_children():
    dump = [
        _span(1, 0, "service.handle", 0, 100),
        _span(2, 1, "manager.show", 10, 60),
        _span(3, 2, "engine.mask", 20, 30),
        _span(4, 2, "engine.mask", 25, 40),  # overlaps its sibling
        _span(5, 1, "protocol.encode", 70, 80),
    ]
    totals = spans.layer_totals(dump, (0, 100))
    assert totals["service.handle"]["self_ns"] == 100 - 50 - 10
    assert totals["manager.show"]["self_ns"] == 50 - 20  # union [20, 40)
    assert totals["engine.mask"]["self_ns"] == 10 + 15
    assert totals["service.handle"]["root_ns"] == 100
    assert totals["manager.show"]["root_ns"] == 0


def test_self_time_clips_children_to_the_parent():
    assert spans.self_time_ns(10, 20, [(5, 12), (18, 30)]) == 10 - 2 - 2
    assert spans.self_time_ns(10, 20, [(0, 5), (25, 30)]) == 10


def test_tracer_links_nested_calls_to_one_root():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    outer()
    (i1, p1, r1, n1, *_), (o1, p2, r2, n2, *_) = tracer.spans[:2]
    assert (n1, n2) == ("inner", "outer")
    assert p1 == o1 and p2 == 0 and r1 == r2 == o1
    assert tracer.spans[2][2] != r1  # the second call is a new root


def test_spans_on_another_thread_are_not_children():
    tracer = spans.Tracer()
    started, release = threading.Event(), threading.Event()

    def hold():
        started.set()
        release.wait(5.0)

    other = tracer.wrap(lambda: None, "other")
    held = tracer.wrap(hold, "held")
    thread = threading.Thread(target=held)
    thread.start()
    assert started.wait(5.0)
    other()  # runs while "held" is open on the other thread
    release.set()
    thread.join(5.0)
    assert not thread.is_alive()
    by_name = {span[3]: span for span in tracer.spans}
    assert by_name["other"][1] == 0  # a root, not a child of "held"
    start, end = by_name["held"][4:6]
    totals = spans.layer_totals(tracer.spans, (start, end))
    assert totals["held"]["self_ns"] == end - start


def test_tail_percentile_needs_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 201)]
    assert harness.samples_beyond(200, 0.95) == 10
    assert harness.tail_percentile(values, 0.95) == 190.0
    assert harness.samples_beyond(199, 0.95) == 9
    with pytest.raises(ValueError, match="9 beyond"):
        harness.tail_percentile(values[:199], 0.95)
    assert harness.percentile(values[:199], 0.95) == 190.0


def _record(tmp_path, name, values, workload="dashboard"):
    path = tmp_path / f"{name}.json"
    runs = [{"workload": workload, "metrics": {
        metric: {"value": v, "unit": "ms"} for metric, v in row.items()}}
        for row in values]
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_compare_verdicts(tmp_path):
    a = _record(tmp_path, "a", [{"gesture_p50_ms": v, "throughput_gps": 100.0}
                                for v in (2.0, 2.02, 2.04)])
    b = _record(tmp_path, "b", [{"gesture_p50_ms": v, "throughput_gps": 50.0}
                                for v in (3.0, 3.03, 3.06)])
    noisy = _record(tmp_path, "n", [{"gesture_p50_ms": v, "throughput_gps": 100.0}
                                    for v in (1.0, 2.0, 4.0)])
    rows = {r["metric"]: r["verdict"] for r in compare.compare([a], [b])}
    assert rows == {"gesture_p50_ms": "WORSE", "throughput_gps": "WORSE"}
    rows = {r["metric"]: r["verdict"] for r in compare.compare([a], [a])}
    assert set(rows.values()) == {"ok"}
    rows = {r["metric"]: r["verdict"] for r in compare.compare([a], [noisy])}
    assert rows["gesture_p50_ms"] == "unresolved"


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(harness.E2E_METRICS)
    assert {m["name"] for m in spec["per_layer"]} == set(harness.PER_LAYER_METRICS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()}
    for kind, table in (("end_to_end", harness.E2E_METRICS),
                        ("per_layer", harness.PER_LAYER_METRICS)):
        for metric in spec[kind]:
            assert (metric["unit"], metric["better"]) == table[metric["name"]]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload):
    record = harness.run_workload(workload, seed=0, seconds=1.0, rows=20_000,
                                  warmup_s=0.3, boots=1)
    assert set(harness.E2E_METRICS) <= set(record["metrics"])
    assert record["metrics"]["error_rate"]["value"] == 0
    assert record["failed"] == 0, record["failures"]
    assert record["checks"] and all(record["checks"].values()), record["problems"]
    if workload == "durable":
        assert {"read_p50_ms", "recover_ms_per_cmd"} <= set(record["metrics"])


def test_traced_smoke_run_fires_every_span():
    # routed: the router and its workers are traced, and every layer fires
    record = harness.run_workload("routed", seed=0, seconds=1.0, trace=True,
                                  rows=20_000, warmup_s=0.3)
    assert set(harness.PER_LAYER_METRICS) <= set(record["metrics"])
    assert record["correct"], record["problems"]
    assert record["metrics"]["service.idem_replays"]["value"] == 0
    assert record["metrics"]["router.backend_ms"]["value"] > 0
