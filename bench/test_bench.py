"""Self-tests for the benchmark: span arithmetic and a tiny run of each workload."""

import json
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import tracer

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def span(sid, parent, t0, t1, name="f", thread=1, counts=None):
    return (sid, parent, name, t0, t1, thread, counts)


def test_union_length_merges_overlaps_and_gaps():
    assert tracer.union_length([]) == 0.0
    assert tracer.union_length([(0, 2), (1, 3), (5, 6), (6, 7)]) == 5.0
    assert tracer.union_length([(4, 5), (0, 10)]) == 10.0


def test_self_time_subtracts_union_of_overlapping_children():
    # parent 0..10; two pool workers overlap on 3..5; a grandchild inside
    # the first worker; a child that outlives the parent is clipped.
    spans = [
        span(1, 0, 0.0, 10.0, "xi_pixels"),
        span(2, 1, 1.0, 5.0, "cross_gram", thread=2),
        span(3, 1, 3.0, 8.0, "cross_gram", thread=3),
        span(4, 2, 2.0, 3.0, "as_pixel_matrix", thread=2),
        span(5, 1, 9.5, 11.0, "late"),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 7.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(5.0)
    assert selfs[4] == pytest.approx(1.0)


def test_process_layers_busy_time_and_counts():
    record = {"spans": [
        span(1, 0, 0.0, 10.0, "detectors.xi_pixels", counts={"rows": 7}),
        span(2, 1, 1.0, 5.0, "kernels.cross_gram", thread=2, counts={"evals": 4}),
        span(3, 1, 3.0, 8.0, "kernels.cross_gram", thread=3, counts={"evals": 6}),
        span(4, 0, 12.0, 13.0, "kernels.gram", counts={"evals": 1, "key": "a"}),
        span(5, 0, 13.0, 14.0, "kernels.gram", counts={"evals": 1, "key": "a"}),
    ]}
    out = tracer.process_layers(record)
    assert out["kernels.cross_gram.s"] == pytest.approx(7.0)
    assert out["kernels.cross_gram.self_s"] == pytest.approx(9.0)
    assert out["kernels.cross_gram.calls"] == 2
    assert out["kernels.cross_gram.evals"] == 10
    assert out["detectors.xi_pixels.self_s"] == pytest.approx(3.0)
    assert out["detectors.xi_pixels.rows"] == 7
    assert out["_in_span_s"] == pytest.approx(12.0)
    merged = tracer.merge([out, {"linalg.spd_factorize.calls": 4,
                                 "linalg.spd_factorize.retried_calls": 1}])
    assert merged["kernels.gram.distinct_frac"] == 0.5
    assert merged["linalg.spd_factorize.first_try_frac"] == 0.75


def test_worker_thread_spans_take_the_blocking_span_as_parent():
    t = tracer.Tracer()
    leaf = t.wrap("leaf", lambda v: v * 2)

    def fan_out(values):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, values))

    outer = t.wrap("outer", fan_out)
    assert outer([1, 2, 3]) == [2, 4, 6]
    by_name = {}
    for s in t.spans:
        by_name.setdefault(s[2], []).append(s)
    (root,) = by_name["outer"]
    assert root[1] == 0 and root[5] == threading.get_ident()
    assert len(by_name["leaf"]) == 3
    assert all(s[1] == root[0] for s in by_name["leaf"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_named_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stderr
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [e["name"] for e in expected]
    for e in expected:
        metric = result["metrics"][e["name"]]
        assert metric["unit"] == e["unit"]
        assert isinstance(metric["value"], (int, float))
    if trace and workload == "linear_scene":
        for name, metric in result["metrics"].items():
            if name.startswith("kernels."):
                assert metric["value"] == 0, name
    if trace and workload == "kernel_tune":
        record = json.loads((BENCH / "results" / "kernel_tune-seed3-trace1.json").read_text())
        calls = record["summary"]["calls_by_step"]
        assert "io_formats.write_roc_csv" not in calls["model"]
        assert calls["model"]["tune.grid_search"] == 1
