"""End-to-end telemetry: span trees across every backend, bit-exact
logits under profiling, and the HTTP observability surface.

The acceptance contract of the telemetry plane: one seeded request
yields one span tree covering decode -> admission -> queue -> batch ->
shard -> engine -> encode with shard-side spans rejoined into the
parent's trace, the Prometheus exposition validates, and turning any
of it on never changes a single logit bit.
"""

import io
import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cnn.datasets import N_CLASSES, generate_dataset
from repro.cnn.inference import QuantizedModel
from repro.cnn.micro import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.serve import (
    AdmissionPolicy,
    BatchingPolicy,
    ProcessBackend,
    SconnaClient,
    SconnaService,
    StructuredLogger,
    TracePolicy,
    parse_exposition,
    serve_http,
)
from repro.serve.shm import DEFAULT_RING_BYTES
from repro.serve.telemetry import POLICY_ALWAYS, POLICY_OFF, Tracer
from repro.stochastic.error_models import SconnaErrorModel
from repro.utils.cores import usable_cores
from repro.utils.rng import make_rng

POLICY = BatchingPolicy(max_batch_size=8, max_wait_ms=2.0)


@pytest.fixture(scope="module")
def setup():
    rng = make_rng(0)
    model = Sequential(
        Conv2d(3, 6, 3, padding=1, rng=rng), ReLU(), MaxPool2d(4),
        Flatten(), Linear(6 * 6 * 6, N_CLASSES, rng=rng),
    )
    ds = generate_dataset(6, seed=3)
    qm = QuantizedModel.from_trained(model, ds.images[:24])
    return qm, ds


def traced_service(qm, **kwargs):
    svc = SconnaService(policy=POLICY, tracer=Tracer(POLICY_ALWAYS), **kwargs)
    svc.add_model("tiny", qm)
    return svc


def span_names(trace):
    return {s.name for s in trace.spans()}


class TestThreadBackendTraces:
    def test_span_tree_covers_the_request_path(self, setup):
        qm, ds = setup
        svc = traced_service(qm, admission=AdmissionPolicy(max_inflight=16))
        try:
            svc.predict("tiny", ds.images[0], seed=1)
        finally:
            svc.close()
        trace = svc.tracer.store.latest()
        assert trace is not None and trace.sampled
        names = span_names(trace)
        assert {"admission", "queue.wait", "batch.form",
                "backend.execute"} <= names
        # POLICY_ALWAYS profiles the engine: per-stage spans present
        # (fused plan stages, or coarse per-layer spans on the
        # reference path)
        assert names & {"quantize", "layer"}
        assert names & {"matmul", "engine.matmul", "layer"}
        # engine spans are children of backend.execute
        by_id = {s.span_id: s for s in trace.spans()}
        (execute,) = [s for s in trace.spans() if s.name == "backend.execute"]
        prof = [s for s in trace.spans() if s.name in ("quantize", "layer")]
        assert prof and all(by_id[p.parent_id] is execute for p in prof)
        # root is finished and tagged
        assert trace.duration_ms is not None
        assert trace.root.tags["model"] == "tiny"
        assert trace.root.tags["batch_id"] >= 1

    def test_tracing_off_stores_nothing(self, setup):
        qm, ds = setup
        svc = SconnaService(policy=POLICY, tracer=Tracer(POLICY_OFF))
        svc.add_model("tiny", qm)
        try:
            svc.predict("tiny", ds.images[0], seed=1)
        finally:
            svc.close()
        assert len(svc.tracer.store) == 0
        assert svc.tracer.stats()["started"] == 0

    def test_logits_bit_identical_with_profiling_on_and_off(self, setup):
        qm, ds = setup
        results = {}
        for key, policy in (("off", POLICY_OFF), ("on", POLICY_ALWAYS)):
            svc = SconnaService(policy=POLICY, tracer=Tracer(policy))
            svc.add_model("tiny", qm)
            try:
                results[key] = svc.predict("tiny", ds.images[:3], seed=7)
            finally:
                svc.close()
        assert np.array_equal(results["off"].logits, results["on"].logits)

    def test_shed_request_traces_the_admission_decision(self, setup):
        qm, ds = setup
        svc = traced_service(
            qm, admission=AdmissionPolicy(max_queued_bytes=1),
        )
        try:
            with pytest.raises(Exception, match="admission|shed|bytes"):
                svc.predict("tiny", ds.images[0])
        finally:
            svc.close()
        trace = svc.tracer.store.latest()
        assert trace is not None
        (adm,) = [s for s in trace.spans() if s.name == "admission"]
        assert adm.tags["admitted"] is False


class TestProcessBackendTraces:
    @pytest.mark.parametrize("leg", ["pipe", "shm"])
    def test_shard_spans_rejoin_the_parent_trace(self, setup, leg):
        qm, ds = setup
        # the pipe leg's 64-byte rings hold no batch: it rides the pipe
        ring_bytes = 64 if leg == "pipe" else DEFAULT_RING_BYTES
        svc = traced_service(
            qm, backend=ProcessBackend(n_shards=1, ring_bytes=ring_bytes)
        )
        try:
            pred = svc.predict("tiny", ds.images[1], seed=5, timeout=120.0)
        finally:
            svc.close()
        assert pred.logits.shape == (1, N_CLASSES)
        info = svc.backend.info()
        if leg == "pipe":
            assert info["shm_batches"] == 0
            assert info["pipe_fallbacks"] >= 1
        else:
            assert info["shm_batches"] >= 1
        trace = svc.tracer.store.latest()
        assert trace is not None
        names = span_names(trace)
        assert {"queue.wait", "batch.form", "backend.dispatch",
                "shard.execute"} <= names
        (dispatch,) = [s for s in trace.spans()
                       if s.name == "backend.dispatch"]
        (shard,) = [s for s in trace.spans() if s.name == "shard.execute"]
        # the shard's span is grafted under the parent's dispatch span
        assert shard.parent_id == dispatch.span_id
        assert dispatch.tags["backend"] == "process"
        assert dispatch.tags["transport"] == leg
        assert shard.tags["shard"] == dispatch.tags["shard"]
        # monotonic clocks are system-wide: the shard's window nests
        # inside the parent's dispatch window
        assert dispatch.start_s <= shard.start_s
        assert shard.end_s <= dispatch.end_s + 1e-6
        # engine profile spans crossed the pipe too, tagged by shard
        prof = [s for s in trace.spans()
                if s.name in ("quantize", "layer")]
        assert prof and all(p.tags.get("shard") == shard.tags["shard"]
                            for p in prof)

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_shards_split_within_their_core_budget(self, setup, n_shards):
        """A shard splits a batch of seeded requests over its share of
        the host's cores, ``max(1, cores // n_shards)``, and no further:
        shards that already fill the host never split."""
        qm, ds = setup
        # min_fill holds the batch open until all four requests ride it
        svc = SconnaService(
            policy=BatchingPolicy(max_batch_size=4, max_wait_ms=10_000.0,
                                  min_fill=4),
            tracer=Tracer(POLICY_ALWAYS),
            backend=ProcessBackend(n_shards=n_shards),
        )
        svc.add_model("tiny", qm)
        try:
            pending = [svc.predict_async("tiny", ds.images[i], seed=10 + i)
                       for i in range(4)]
            preds = [f.result(timeout=120.0) for f in pending]
            per_shard = svc.backend.info()["per_shard"]
        finally:
            svc.close()
        budget = max(1, len(usable_cores()) // n_shards)
        assert [s["cores"] for s in per_shard] == [budget] * n_shards
        engine = [s for s in svc.tracer.store.latest().spans()
                  if s.name.startswith("engine.")]
        assert {s.tags.get("chunk") for s in engine} == {
            None, *range(1, min(budget, 4))
        }
        for i, pred in enumerate(preds):
            direct = qm.forward(ds.images[i:i + 1], mode="sconna",
                                error_model=SconnaErrorModel(seed=10 + i))
            assert np.array_equal(pred.logits, direct)

    def test_trace_and_exposition_over_http(self, setup):
        """Behind HTTP, a process-backend response's trace id resolves
        to a tree whose shard span hangs under the dispatch span, and
        the exposition parses and counts ring batches."""
        qm, ds = setup
        svc = traced_service(qm, backend="process", n_shards=1)
        server, _ = serve_http(svc)
        try:
            with SconnaClient(server.url) as client:
                pred = client.predict(ds.images[0], model="tiny", seed=3)
                doc = client.trace(pred.trace_id)
            with urllib.request.urlopen(
                f"{server.url}/v1/metrics?format=prometheus"
            ) as resp:
                text = resp.read().decode()
        finally:
            server.shutdown()
            svc.close()
        by_id = {s["span_id"]: s for s in doc["spans"]}
        assert "http.request" in {s["name"] for s in doc["spans"]}
        shard_spans = [s for s in doc["spans"] if s["name"] == "shard.execute"]
        assert shard_spans and all(
            by_id[s["parent_id"]]["name"] == "backend.dispatch"
            for s in shard_spans
        )
        values = {n: v for n, l, v in parse_exposition(text) if not l}
        assert values["sconna_shm_batches_total"] >= 1

    def test_logits_bit_identical_with_profiling_over_shm(self, setup):
        qm, ds = setup
        results = {}
        for key, policy in (("off", POLICY_OFF), ("on", POLICY_ALWAYS)):
            svc = SconnaService(policy=POLICY, tracer=Tracer(policy),
                                backend="process", n_shards=1)
            svc.add_model("tiny", qm)
            try:
                results[key] = svc.predict("tiny", ds.images[:2], seed=11,
                                           timeout=120.0)
            finally:
                svc.close()
        assert np.array_equal(results["off"].logits, results["on"].logits)


class TestHTTPSurface:
    @pytest.fixture()
    def http(self, setup):
        qm, _ = setup
        log_stream = io.StringIO()
        svc = SconnaService(
            policy=POLICY, tracer=Tracer(POLICY_ALWAYS),
            request_log=StructuredLogger(log_stream),
        )
        svc.add_model("tiny", qm)
        server, _ = serve_http(svc)
        yield svc, server, log_stream
        server.shutdown()
        svc.close()

    def test_trace_id_header_and_trace_endpoints(self, setup, http):
        _, ds = setup
        svc, server, _ = http
        with SconnaClient(server.url) as client:
            pred = client.predict(ds.images[0], model="tiny", seed=3)
            assert pred.trace_id is not None
            assert client.last_trace_id == pred.trace_id
            # list endpoint knows the trace; detail endpoint has the tree
            summaries = client.traces()
            assert pred.trace_id in [s["trace_id"] for s in summaries]
            doc = client.trace(pred.trace_id)
            names = {s["name"] for s in doc["spans"]}
            assert {"http.request", "http.parse", "queue.wait",
                    "batch.form", "backend.execute", "http.encode"} <= names
            assert doc["duration_ms"] > 0
            latest = client.trace("latest")
            assert latest["trace_id"] == pred.trace_id

    def test_chrome_export(self, setup, http):
        _, ds = setup
        svc, server, _ = http
        with SconnaClient(server.url) as client:
            pred = client.predict(ds.images[1], model="tiny", seed=4)
            with urllib.request.urlopen(
                f"{server.url}/v1/trace/{pred.trace_id}?format=chrome"
            ) as resp:
                doc = json.loads(resp.read())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        assert all(e["dur"] >= 0 for e in events)
        assert {"http.parse", "http.encode"} <= {e["name"] for e in events}

    def test_unknown_trace_and_bad_limit(self, http):
        _, server, _ = http
        for path, status in (
            ("/v1/trace/deadbeef", 404),
            ("/v1/trace?limit=x", 400),
        ):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + path)
            assert err.value.code == status

    def test_negative_limit_is_400_and_zero_lists_every_trace(
        self, setup, http
    ):
        """``?limit=-3`` would list every stored trace but the three
        oldest; it is refused.  ``?limit=0`` lists every stored trace,
        more than the default 50, and so does ``client.traces(limit=0)``."""
        _, ds = setup
        _, server, _ = http
        with SconnaClient(server.url) as client:
            for i in range(55):
                client.predict(ds.images[i % 6], model="tiny", seed=i)
            listed = client.traces(limit=0)
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/v1/trace?limit=-3")
        assert err.value.code == 400
        with urllib.request.urlopen(server.url + "/v1/trace?limit=0") as resp:
            doc = json.loads(resp.read())
        assert len(doc["traces"]) == doc["stats"]["store"]["stored"] >= 55
        assert len(listed) == len(doc["traces"])

    def test_prometheus_exposition_from_live_server(self, setup, http):
        _, ds = setup
        svc, server, _ = http
        with SconnaClient(server.url) as client:
            client.predict(ds.images[2], model="tiny", seed=5)
        with urllib.request.urlopen(
            f"{server.url}/v1/metrics?format=prometheus"
        ) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode()
        samples = parse_exposition(text)
        values = {n: v for n, l, v in samples if not l}
        assert values["sconna_requests_total"] >= 1
        assert values["sconna_uptime_seconds"] > 0
        assert values["sconna_traces_stored"] >= 1

    def test_metrics_json_gains_liveness_fields(self, setup, http):
        _, ds = setup
        svc, server, _ = http
        with SconnaClient(server.url) as client:
            client.predict(ds.images[3], model="tiny", seed=6)
            snap = client.metrics()
        assert snap["uptime_s"] > 0
        assert snap["queue_depth_current"] == 0
        assert snap["inflight_by_model"] == {}
        assert snap["telemetry"]["started"] >= 1

    def test_structured_log_line_per_request(self, setup, http):
        _, ds = setup
        svc, server, log_stream = http
        with SconnaClient(server.url, wire_format="json") as client:
            pred = client.predict(ds.images[4], model="tiny", seed=8)
        # the handler writes the access line after the response is
        # flushed, so predict() can return first: wait for the line
        deadline = time.monotonic() + 10.0
        while True:
            lines = [json.loads(l) for l in log_stream.getvalue().splitlines()]
            requests = [l for l in lines if l["event"] == "request"]
            if requests or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert len(requests) == 1
        line = requests[0]
        assert line["trace_id"] == pred.trace_id
        assert line["model"] == "tiny"
        assert line["status"] == 200
        assert line["wire"] == "application/json"
        assert line["latency_ms"] > 0
        assert "queue.wait" in line["breakdown"]

    def test_in_process_sampling_respects_seeded_policy(self, setup):
        """The tracer's admit/skip sequence is deterministic under a
        seeded policy even through the full service path."""
        qm, ds = setup
        admitted = []
        for _ in range(2):
            svc = SconnaService(
                policy=POLICY,
                tracer=Tracer(TracePolicy(sample_rate=0.5, seed=7)),
            )
            svc.add_model("tiny", qm)
            try:
                for i in range(8):
                    svc.predict("tiny", ds.images[i % 6], ideal=True)
            finally:
                svc.close()
            admitted.append(svc.tracer.stats()["committed"])
        assert admitted[0] == admitted[1]
        assert 0 < admitted[0] < 8


class TestServeCLI:
    def test_trace_capacity_bounds_the_replica_ring(self, setup, tmp_path):
        """``python -m repro.serve --trace-capacity N`` keeps N traces."""
        import socket

        from repro.serve import ModelRegistry
        from repro.serve.router import spawn_replicas

        qm, ds = setup
        ModelRegistry(tmp_path).save("tiny", qm)
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        processes, (url,) = spawn_replicas(
            str(tmp_path), 1, port,
            extra_args=["--trace-sample-rate", "1", "--trace-capacity", "3"],
        )
        try:
            with SconnaClient(url) as client:
                for i in range(5):
                    client.predict(ds.images[i], model="tiny", seed=i)
                stats = client._get_json("/v1/trace")["stats"]
        finally:
            for proc in processes:
                proc.terminate()
            for proc in processes:
                proc.wait(timeout=30.0)
        assert stats["store"] == {"capacity": 3, "stored": 3, "evicted": 2}
