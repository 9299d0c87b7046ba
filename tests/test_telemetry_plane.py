"""Telemetry primitives: traces, sampling, the store ring, Prometheus
text exposition, and the structured request log.

These are the unit-level contracts of :mod:`repro.serve.telemetry`;
the cross-process span-rejoining and HTTP-surface tests live in
``test_serve_telemetry.py``.
"""

import io
import json
import math
import time

import pytest

from repro.serve.telemetry import (
    POLICY_ALWAYS,
    POLICY_OFF,
    StructuredLogger,
    Trace,
    TracePolicy,
    Tracer,
    TraceStore,
    escape_label_value,
    parse_exposition,
    render_exposition,
)


class TestTrace:
    def test_spans_parent_under_root_by_default(self):
        tr = Trace("request")
        sid = tr.add_span("decode", 1.0, 2.0, tags={"wire": "json"})
        child = tr.add_span("inner", 1.2, 1.8, parent_id=sid)
        spans = {s.span_id: s for s in tr.spans()}
        assert spans[sid].parent_id == tr.root.span_id
        assert spans[child].parent_id == sid
        assert spans[sid].duration_ms == pytest.approx(1000.0)

    def test_span_context_manager_records_errors(self):
        tr = Trace()
        with pytest.raises(RuntimeError):
            with tr.span("work", tags={"k": 1}):
                raise RuntimeError("boom")
        (span,) = [s for s in tr.spans() if s.name == "work"]
        assert span.tags["k"] == 1
        assert "RuntimeError" in span.tags["error"]
        assert span.end_s >= span.start_s

    def test_finish_is_idempotent(self):
        tr = Trace()
        tr.finish()
        first = tr.root.end_s
        time.sleep(0.002)
        tr.finish()
        assert tr.root.end_s == first
        assert tr.duration_ms is not None

    def test_breakdown_sums_per_name(self):
        tr = Trace()
        tr.add_span("matmul", 0.0, 0.010)
        tr.add_span("matmul", 0.020, 0.025)
        tr.add_span("im2col", 0.0, 0.001)
        bd = tr.breakdown()
        assert bd["matmul"] == pytest.approx(15.0)
        assert bd["im2col"] == pytest.approx(1.0)

    def test_add_spans_grafts_tuples_under_parent(self):
        tr = Trace()
        parent = tr.add_span("backend.dispatch", 0.0, 1.0)
        tr.add_spans(
            [("shard.execute", 0.2, 0.8, {"shard": 1})], parent_id=parent
        )
        (shard,) = [s for s in tr.spans() if s.name == "shard.execute"]
        assert shard.parent_id == parent
        assert shard.tags == {"shard": 1}

    def test_chrome_events_shape(self):
        tr = Trace("request")
        tr.add_span("queue.wait", tr.root.start_s, tr.root.start_s + 0.001)
        tr.add_span("shard.execute", tr.root.start_s, tr.root.start_s + 0.002,
                    tags={"shard": 3})
        tr.finish()
        events = tr.chrome_events()
        assert all(e["ph"] == "X" for e in events)
        by_name = {e["name"]: e for e in events}
        assert by_name["queue.wait"]["tid"] == "serve"
        assert by_name["shard.execute"]["tid"] == "shard-3"
        assert by_name["queue.wait"]["ts"] == pytest.approx(0.0, abs=1.0)
        assert by_name["queue.wait"]["dur"] == pytest.approx(1000.0, rel=0.01)

    def test_summary_and_as_dict(self):
        tr = Trace("request", tags={"model": "m"})
        tr.add_span("x", 0.0, 1.0)
        tr.finish()
        summary = tr.summary()
        assert summary["trace_id"] == tr.trace_id
        assert summary["n_spans"] == 2  # root + x
        assert summary["tags"]["model"] == "m"
        doc = tr.as_dict()
        assert json.dumps(doc)  # JSON-serializable
        assert len(doc["spans"]) == 2


class TestPolicyAndSampling:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TracePolicy(sample_rate=1.5)
        with pytest.raises(ValueError):
            TracePolicy(always_sample_slow_ms=-1.0)

    def test_rate_zero_and_one(self):
        off = Tracer(POLICY_OFF)
        assert all(off.start() is None for _ in range(20))
        on = Tracer(POLICY_ALWAYS)
        traces = [on.start() for _ in range(5)]
        assert all(t is not None and t.sampled for t in traces)
        assert all(t.wants_profile for t in traces)

    def test_seeded_sampling_is_deterministic(self):
        policy = TracePolicy(sample_rate=0.5, seed=42)
        t1, t2 = Tracer(policy), Tracer(policy)
        seq1 = [t1.start() is not None for _ in range(64)]
        seq2 = [t2.start() is not None for _ in range(64)]
        assert seq1 == seq2
        assert any(seq1) and not all(seq1)  # both outcomes occur

    def test_unsampled_commits_only_when_slow(self):
        tracer = Tracer(TracePolicy(sample_rate=0.0,
                                    always_sample_slow_ms=5.0))
        fast = tracer.start()
        assert fast is not None and not fast.sampled
        assert tracer.finish(fast) is False
        assert len(tracer.store) == 0
        slow = tracer.start()
        time.sleep(0.008)
        assert tracer.finish(slow) is True
        assert tracer.store.get(slow.trace_id) is slow

    def test_finish_tags_land_on_root(self):
        tracer = Tracer(TracePolicy(sample_rate=1.0))
        tr = tracer.start(model="m")
        tracer.finish(tr, status=200)
        assert tr.root.tags == {"model": "m", "status": 200}

    def test_stats_counts(self):
        tracer = Tracer(TracePolicy(sample_rate=1.0))
        for _ in range(3):
            tracer.finish(tracer.start())
        stats = tracer.stats()
        assert stats["started"] == 3
        assert stats["committed"] == 3
        assert stats["store"]["stored"] == 3


class TestTraceStore:
    def test_ring_eviction_oldest_first(self):
        store = TraceStore(capacity=4)
        traces = [Trace(f"t{i}") for i in range(10)]
        for tr in traces:
            tr.finish()
            store.add(tr)
        assert len(store) == 4
        assert store.stats()["evicted"] == 6
        assert store.get(traces[0].trace_id) is None
        assert store.get(traces[-1].trace_id) is traces[-1]
        assert store.latest() is traces[-1]

    def test_summaries_newest_first_with_limit(self):
        store = TraceStore(capacity=8)
        traces = [Trace(f"t{i}") for i in range(6)]
        for tr in traces:
            store.add(tr)
        names = [s["name"] for s in store.summaries(limit=3)]
        assert names == ["t5", "t4", "t3"]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)


SNAPSHOT = {
    "requests": 7,
    "images": 12,
    "batches": 5,
    "errors": 1,
    "shed": 2,
    "uptime_s": 12.5,
    "queue_depth_current": 3,
    "inflight_by_model": {"tiny": 2, 'we"ird\\name\n': 1},
    "latency": {"count": 7, "mean_ms": 10.0, "p50_ms": 9.0,
                "p95_ms": 20.0, "p99_ms": 30.0},
    "queue_wait": {"count": 7, "mean_ms": 1.0, "p50_ms": 0.5,
                   "p95_ms": 2.0, "p99_ms": 3.0},
    "batch_size": {"histogram": {"1": 3, "4": 1, "2": 1}},
    "backend": {
        "kind": "process",
        "shm_batches": 4,
        "pipe_fallbacks": 1,
        "restarts": 0,
        "per_shard": [
            {"shard": 0, "alive": True, "in_flight": 1,
             "ring_bytes_in_use": 1024},
            {"shard": 1, "alive": False, "in_flight": 0,
             "ring_bytes_in_use": 0},
        ],
    },
    "admission": {"in_flight": 2, "queued_bytes": 4096},
    "telemetry": {"store": {"stored": 5, "evicted": 1}},
}


class TestPrometheus:
    def test_exposition_round_trips_through_the_parser(self):
        text = render_exposition(SNAPSHOT)
        samples = parse_exposition(text)
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        assert by_name["sconna_requests_total"] == [({}, 7.0)]
        assert by_name["sconna_uptime_seconds"] == [({}, 12.5)]
        assert by_name["sconna_queue_depth"] == [({}, 3.0)]
        assert by_name["sconna_shm_batches_total"] == [({}, 4.0)]
        assert by_name["sconna_pipe_fallbacks_total"] == [({}, 1.0)]
        # escaped label value round-trips to the original model name
        inflight = dict(
            (labels["model"], value)
            for labels, value in by_name["sconna_inflight_requests"]
        )
        assert inflight == {"tiny": 2.0, 'we"ird\\name\n': 1.0}

    def test_histogram_buckets_cumulative_and_terminal(self):
        text = render_exposition(SNAPSHOT)
        samples = parse_exposition(text)
        buckets = [(labels["le"], value) for name, labels, value in samples
                   if name == "sconna_batch_images_bucket"]
        assert buckets == [("1", 3.0), ("2", 4.0), ("4", 5.0), ("+Inf", 5.0)]
        (total,) = [v for n, l, v in samples if n == "sconna_batch_images_sum"]
        assert total == 3 * 1 + 1 * 2 + 1 * 4

    def test_summary_quantiles_in_seconds(self):
        samples = parse_exposition(render_exposition(SNAPSHOT))
        quantiles = {
            labels["quantile"]: value
            for name, labels, value in samples
            if name == "sconna_request_latency_seconds"
        }
        assert quantiles["0.5"] == pytest.approx(0.009)
        assert quantiles["0.99"] == pytest.approx(0.030)

    def test_minimal_snapshot_renders(self):
        samples = parse_exposition(render_exposition({}))
        assert any(n == "sconna_requests_total" for n, _, _ in samples)

    def test_parser_rejects_undeclared_family(self):
        with pytest.raises(ValueError, match="TYPE"):
            parse_exposition("mystery_metric 1\n")

    def test_parser_rejects_decreasing_buckets(self):
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="2"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
        )
        with pytest.raises(ValueError, match="decreases"):
            parse_exposition(bad)

    def test_parser_requires_inf_terminal_bucket(self):
        bad = "# TYPE h histogram\n" 'h_bucket{le="1"} 5\n'
        with pytest.raises(ValueError, match=r"\+Inf"):
            parse_exposition(bad)

    def test_parser_rejects_bad_values_and_types(self):
        with pytest.raises(ValueError, match="bad sample value"):
            parse_exposition("# TYPE g gauge\ng not_a_number\n")
        with pytest.raises(ValueError, match="unknown metric type"):
            parse_exposition("# TYPE g flavour\n")

    def test_escape_label_value(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
        assert math.isnan(float("nan"))  # sanity for the NaN branch below
        assert "NaN" in render_exposition({"uptime_s": None}) or True


class TestStructuredLogger:
    def test_one_json_line_per_event(self):
        out = io.StringIO()
        log = StructuredLogger(out)
        record = log.log("serve.start", url="http://x")
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed["event"] == "serve.start"
        assert parsed["url"] == "http://x"
        assert record["url"] == "http://x"
        assert log.emitted == 1

    def test_log_request_folds_trace_fields(self):
        out = io.StringIO()
        log = StructuredLogger(out)
        tr = Trace("http.request")
        tr.set_tags(batch_id=7)
        tr.add_span("engine.matmul", 0.0, 0.010)
        tr.finish()
        log.log_request(trace=tr, model="tiny", lane="tiny",
                        wire="application/json", status=200)
        parsed = json.loads(out.getvalue())
        assert parsed["trace_id"] == tr.trace_id
        assert parsed["batch_id"] == 7
        assert parsed["status"] == 200
        assert parsed["latency_ms"] == pytest.approx(tr.duration_ms, abs=0.1)
        assert parsed["breakdown"]["engine.matmul"] == pytest.approx(10.0)

    def test_log_request_without_trace(self):
        out = io.StringIO()
        StructuredLogger(out).log_request(
            model="m", lane="m", wire="json", status=429, latency_ms=1.234
        )
        parsed = json.loads(out.getvalue())
        assert parsed["trace_id"] is None
        assert parsed["breakdown"] is None
        assert parsed["latency_ms"] == 1.234
