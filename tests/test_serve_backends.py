"""Execution backends: thread/process equivalence, sharding, recovery.

The acceptance contract of the backend seam: the same seeded request
stream produces bit-identical per-request logits through
``ThreadBackend`` and ``ProcessBackend`` (the per-request deterministic
ADC noise survives process dispatch), shard crashes are recovered
without losing requests, and close() drains in-flight work and reaps
every shard process.
"""

import signal
import time

import numpy as np
import pytest

from repro.cnn.datasets import N_CLASSES, generate_dataset
from repro.cnn.inference import QuantizedModel
from repro.cnn.micro import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.cnn.serialization import dumps_quantized_model, loads_quantized_model
from repro.serve import (
    BatchingPolicy,
    ModelRegistry,
    ProcessBackend,
    SconnaService,
    ServeMetrics,
    ThreadBackend,
    install_shutdown_handlers,
    make_backend,
    serve_http,
)
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


@pytest.fixture(scope="module")
def process_service(setup):
    """One shared 2-shard service - spawn cost is paid once per module."""
    qm, _ = setup
    svc = SconnaService(policy=POLICY, backend="process", n_shards=2)
    svc.add_model("tiny", qm, warm_shape=(3, 24, 24))
    yield svc
    svc.close()


def seeded_stream(svc, ds, n=18):
    """A mixed request stream: seeded singles, a multi-image stack, an
    ideal request - everything the determinism contract covers."""
    futs = []
    for i in range(n):
        if i % 6 == 4:
            futs.append(svc.predict_async("tiny", ds.images[:3], seed=100 + i))
        elif i % 6 == 5:
            futs.append(svc.predict_async("tiny", ds.images[i % 6], ideal=True))
        else:
            futs.append(svc.predict_async("tiny", ds.images[i % 6], seed=i))
    return [f.result(120.0) for f in futs]


class TestServeMetricsMerge:
    def test_counters_and_histograms_add(self):
        a, b = ServeMetrics(), ServeMetrics()
        a.record_batch(2, 8)
        a.record_requests([(0.1, 0.01, 1), (0.2, 0.02, 1)])
        b.record_batch(1, 8)
        b.record_batch(1, 4)
        b.record_error(3)
        snap = ServeMetrics().merge(a).merge(b).snapshot()
        assert snap["requests"] == 2
        assert snap["batches"] == 3
        assert snap["errors"] == 3
        assert snap["batch_size"]["histogram"] == {"4": 1, "8": 2}

    def test_merge_accepts_exported_state(self):
        a = ServeMetrics()
        a.record_requests([(0.5, 0.1, 2)])
        state = a.state()
        merged = ServeMetrics().merge(state).merge(state)
        snap = merged.snapshot()
        assert snap["requests"] == 2
        assert snap["images"] == 4
        assert snap["latency"]["p50_ms"] == pytest.approx(500.0)

    def test_completion_span_widens(self):
        a, b = ServeMetrics(), ServeMetrics()
        a.record_request(0.1, 0.0)
        time.sleep(0.02)
        b.record_request(0.1, 0.0)
        merged = ServeMetrics().merge(a).merge(b)
        assert merged.snapshot()["requests_per_s"] is not None

    def test_string_histogram_keys_from_json_roundtrip(self):
        a = ServeMetrics()
        a.record_batch(1, 8)
        state = a.state()
        state["batch_hist"] = {str(k): v for k, v in state["batch_hist"].items()}
        snap = ServeMetrics().merge(state).snapshot()
        assert snap["batch_size"]["histogram"] == {"8": 1}


class TestThreadBackendSeam:
    def test_explicit_backend_instance(self, setup):
        qm, ds = setup
        backend = ThreadBackend(n_workers=1)
        svc = SconnaService(policy=POLICY, backend=backend)
        svc.add_model("tiny", qm)
        try:
            from repro.stochastic.error_models import SconnaErrorModel

            direct = qm.forward(
                ds.images[1][None], mode="sconna",
                error_model=SconnaErrorModel(adc_mape=0.0),
            )
            pred = svc.predict("tiny", ds.images[1], ideal=True)
            assert np.array_equal(pred.logits, direct)
            snap = svc.metrics_snapshot()
            assert snap["backend"]["kind"] == "thread"
            assert snap["batches"] >= 1
        finally:
            svc.close()

    def test_make_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")

    def test_pool_warms_each_worker_and_survives_a_raising_task(self):
        """Warm-up runs once in every worker (barrier-synchronised), a
        task that raises only bumps ``task_errors``, and close() drains
        the queue and joins every worker."""
        import threading

        backend = ThreadBackend(n_workers=3)
        seen, lock = [], threading.Lock()

        def record() -> None:
            with lock:
                seen.append(threading.current_thread().name)

        def poisoned() -> None:
            raise RuntimeError("poisoned batch")

        try:
            backend._warm(record, timeout=10.0)
            assert sorted(seen) == [f"sconna-worker-{i}" for i in range(3)]
            backend._tasks.put(poisoned)
            backend._tasks.put(record)
        finally:
            backend.close(timeout=10.0)
        assert len(seen) == 4, "the pool keeps draining after a raising task"
        assert backend.info() == {
            "kind": "thread", "workers": 3, "pending": 0, "task_errors": 1,
        }
        assert not any(t.is_alive() for t in backend._threads)


class TestModelBytesRoundTrip:
    def test_dumps_loads_bit_identical(self, setup):
        qm, ds = setup
        clone = loads_quantized_model(dumps_quantized_model(qm))
        a = qm.forward(ds.images[:2], mode="int8")
        b = clone.forward(ds.images[:2], mode="int8")
        assert np.array_equal(a, b)

    def test_pickled_model_forward_matches(self, setup):
        import pickle

        qm, ds = setup
        clone = pickle.loads(pickle.dumps(qm))
        a = qm.forward(ds.images[:2], mode="int8")
        b = clone.forward(ds.images[:2], mode="int8")
        assert np.array_equal(a, b)


class TestProcessBackend:
    def test_equivalence_bit_identical_per_request(self, setup, process_service):
        """The acceptance test: the same seeded request stream through
        ThreadBackend, ProcessBackend over its shm rings, and
        ProcessBackend over the pipe yields bit-identical logits per
        request.  The pipe leg's 64-byte rings hold no batch, so every
        batch takes the pipe fallback."""
        qm, ds = setup
        thread_svc = SconnaService(policy=POLICY, n_workers=2)
        thread_svc.add_model("tiny", qm)
        pipe_svc = SconnaService(
            policy=POLICY, backend=ProcessBackend(n_shards=1, ring_bytes=64)
        )
        pipe_svc.add_model("tiny", qm)
        try:
            through_threads = seeded_stream(thread_svc, ds)
            through_shm = seeded_stream(process_service, ds)
            through_pipe = seeded_stream(pipe_svc, ds)
            for a, b, c in zip(through_threads, through_shm, through_pipe):
                assert np.array_equal(a.logits, b.logits)
                assert np.array_equal(a.logits, c.logits)
            assert process_service.backend.info()["shm_batches"] >= 1
            pipe_info = pipe_svc.backend.info()
            assert pipe_info["shm_batches"] == 0
            assert pipe_info["pipe_fallbacks"] >= 1
        finally:
            thread_svc.close()
            pipe_svc.close()

    def test_aggregated_metrics_and_backend_info(self, setup, process_service):
        _, ds = setup
        futs = [
            process_service.predict_async("tiny", ds.images[i % 6], seed=i)
            for i in range(10)
        ]
        for f in futs:
            f.result(120.0)
        snap = process_service.metrics_snapshot()
        assert snap["requests"] >= 10
        assert snap["batches"] >= 1  # counted in the parent per on_done
        assert snap["backend"]["kind"] == "process"
        assert snap["backend"]["shards"] == 2
        assert len(snap["backend"]["per_shard"]) == 2
        # each shard's core budget is its share of the host
        budget = max(1, len(usable_cores()) // 2)
        assert [s["cores"] for s in snap["backend"]["per_shard"]] == [budget] * 2
        assert snap["models"] == ["tiny"]

    def test_cost_annotation_computed_in_parent(self, setup, process_service):
        _, ds = setup
        pred = process_service.predict("tiny", ds.images[0], with_cost=True, timeout=120.0)
        assert pred.cost is not None
        assert pred.cost.accelerator == "SCONNA"
        assert process_service.costs.stats()["entries"] >= 1

    def test_execution_failure_routed_to_future(self, setup, process_service):
        """A batch the shard fails on reaches the caller's future and is
        counted once, as one error, by the parent."""
        bad = np.zeros((1, 3, 24, 24), dtype=complex)  # the engine is real-only
        errors_before = process_service.metrics_snapshot()["errors"]
        with pytest.raises(TypeError):
            process_service.predict("tiny", bad, timeout=120.0)
        assert process_service.metrics_snapshot()["errors"] == errors_before + 1

    def test_shard_crash_recovery(self, setup, process_service):
        """Kill a shard process: the backend reaps it, respawns the
        slot, reloads the model, and seeded results are unchanged.  The
        parent counted every batch, so no counter moves with the kill."""
        qm, ds = setup
        expected = process_service.predict("tiny", ds.images[2], seed=5, timeout=120.0)
        counted = ("requests", "batches", "errors")
        before = process_service.metrics_snapshot()
        backend = process_service.backend
        restarts_before = backend.restarts
        backend._shards[0].process.terminate()
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            info = backend.info()
            if info["alive"] == 2 and backend.restarts > restarts_before:
                break
            time.sleep(0.1)
        info = backend.info()
        assert info["alive"] == 2
        assert backend.restarts > restarts_before
        snap = process_service.metrics_snapshot()
        assert {k: snap[k] for k in counted} == {k: before[k] for k in counted}
        assert snap["batch_size"] == before["batch_size"]
        after = process_service.predict("tiny", ds.images[2], seed=5, timeout=120.0)
        assert np.array_equal(after.logits, expected.logits)

    def test_snapshot_does_not_wait_for_a_busy_shard(self, setup):
        """A snapshot taken while the only shard runs a long batch
        returns at once and still counts the batch before it."""
        _, ds = setup
        rng = make_rng(1)
        wide = Sequential(
            Flatten(), Linear(3 * 24 * 24, 512, rng=rng), ReLU(),
            Linear(512, N_CLASSES, rng=rng),
        )
        qm = QuantizedModel.from_trained(wide, ds.images[:24])
        # 1000 uint8 images through a wide linear layer keep the shard
        # busy for ~0.8 s (native kernel) at ~0.1 GB of shard memory
        stack = (np.resize(ds.images, (1000, 3, 24, 24)) * 200).astype(np.uint8)
        svc = SconnaService(policy=POLICY, backend="process", n_shards=1)
        try:
            svc.add_model("wide", qm)
            svc.predict("wide", stack[0], seed=1, timeout=120.0)
            fut = svc.predict_async("wide", stack, seed=2)
            deadline = time.monotonic() + 30.0
            while svc.backend.info()["per_shard"][0]["in_flight"] == 0:
                assert time.monotonic() < deadline, "batch never dispatched"
                time.sleep(0.005)
            t0 = time.monotonic()
            snap = svc.metrics_snapshot()
            elapsed = time.monotonic() - t0
            assert not fut.done(), "the long batch finished first"
            assert elapsed < 0.5
            assert snap["batches"] == 1
            assert snap["batch_size"]["histogram"] == {"1": 1}
            fut.result(120.0)
            snap = svc.metrics_snapshot()
            assert snap["batches"] == 2
            assert snap["batch_size"]["histogram"] == {"1": 1, "1000": 1}
        finally:
            svc.close()

    def test_drain_on_close_and_reaped_shards(self, setup):
        qm, ds = setup
        svc = SconnaService(policy=POLICY, backend="process", n_shards=1)
        svc.add_model("tiny", qm)
        futs = [
            svc.predict_async("tiny", ds.images[i % 6], seed=i) for i in range(8)
        ]
        svc.close(timeout=120.0)
        for f in futs:
            assert f.exception(timeout=0) is None  # drained, not dropped
        for shard in svc.backend._shards:
            assert not shard.process.is_alive()
        with pytest.raises(RuntimeError):
            svc.predict("tiny", ds.images[0])

    def test_registry_archive_is_the_shard_handoff(self, setup, tmp_path):
        """A registry-backed model reaches shards through its NPZ path
        and still round-trips bit-identically over HTTP."""
        import json
        import urllib.request

        qm, ds = setup
        registry = ModelRegistry(tmp_path)
        registry.save("tiny", qm, arch_model="MobileNet_V2")
        svc = SconnaService(policy=POLICY, backend="process", n_shards=1)
        svc.add_from_registry(registry, "tiny")
        server, _ = serve_http(svc)
        try:
            from repro.stochastic.error_models import SconnaErrorModel

            direct = qm.forward(
                ds.images[2][None], mode="sconna",
                error_model=SconnaErrorModel(adc_mape=0.0),
            )
            body = json.dumps({
                "model": "tiny", "image": ds.images[2].tolist(), "ideal": True,
            }).encode()
            req = urllib.request.Request(
                server.url + "/v1/predict", data=body,
                headers={"Content-Type": "application/json"},
            )
            resp = json.loads(urllib.request.urlopen(req, timeout=120).read())
            assert np.array_equal(np.asarray(resp["logits"]), direct)
            metrics = json.loads(
                urllib.request.urlopen(server.url + "/v1/metrics", timeout=120).read()
            )
            assert metrics["backend"]["kind"] == "process"
        finally:
            server.shutdown()
            svc.close()

    def test_backend_validation(self):
        with pytest.raises(ValueError):
            ProcessBackend(n_shards=0)
        with pytest.raises(ValueError):
            ProcessBackend(affinity="spread")

    def test_affinity_auto_pins_round_robin(self, setup):
        """affinity="auto" assigns shard i to core i (mod the allowed
        set), surfaces the pin in info(), and still serves correctly."""
        import os

        qm, ds = setup
        svc = SconnaService(policy=POLICY, backend="process", n_shards=2,
                            affinity="auto")
        try:
            svc.add_model("tiny", qm)
            pred = svc.predict("tiny", ds.images[0], seed=1, timeout=120.0)
            assert pred.logits.shape == (1, N_CLASSES)
            info = svc.backend.info()
            assert info["affinity"] == "auto"
            cpus = [s["cpus"] for s in info["per_shard"]]
            if hasattr(os, "sched_getaffinity"):
                cores = sorted(os.sched_getaffinity(0))
                expected = [[cores[slot % len(cores)]] for slot in range(2)]
                assert cpus == expected
                # a pinned shard's budget is its one core
                assert [s["cores"] for s in info["per_shard"]] == [1, 1]
            else:  # knob accepted and ignored off-Linux
                assert cpus == [None, None]
        finally:
            svc.close()

    def test_affinity_defaults_off(self, setup, process_service):
        info = process_service.backend.info()
        assert info["affinity"] is None
        assert all(s["cpus"] is None for s in info["per_shard"])


class TestShutdownHandlers:
    def test_trigger_drains_service_and_restores_handlers(self, setup):
        qm, ds = setup
        previous_int = signal.getsignal(signal.SIGINT)
        previous_term = signal.getsignal(signal.SIGTERM)
        svc = SconnaService(policy=POLICY, n_workers=1)
        svc.add_model("tiny", qm)
        server, _ = serve_http(svc)
        handlers = install_shutdown_handlers(
            svc, servers=(server,), chain=False
        )
        assert signal.getsignal(signal.SIGTERM) is not previous_term
        futs = [
            svc.predict_async("tiny", ds.images[i % 6], seed=i) for i in range(6)
        ]
        handlers.trigger(signal.SIGTERM)
        assert handlers.triggered == signal.SIGTERM
        assert handlers.wait(timeout=10.0)
        for f in futs:
            assert f.exception(timeout=0) is None  # in-flight work drained
        with pytest.raises(RuntimeError):
            svc.predict("tiny", ds.images[0])
        # previous handlers are back
        assert signal.getsignal(signal.SIGINT) == previous_int
        assert signal.getsignal(signal.SIGTERM) == previous_term

    def test_trigger_is_idempotent(self, setup):
        qm, _ = setup
        svc = SconnaService(policy=POLICY, n_workers=1)
        svc.add_model("tiny", qm)
        handlers = install_shutdown_handlers(svc, chain=False)
        handlers.trigger(signal.SIGINT)
        handlers.trigger(signal.SIGINT)  # second call is a no-op
        assert handlers.triggered == signal.SIGINT
