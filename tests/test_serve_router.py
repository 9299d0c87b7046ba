"""The replica tier: routing, failover, drain, fleet metrics.

The contracts under test:

* **Reproducibility through the fleet** - a seeded request answered
  through the router is bit-identical to the same request sent straight
  to any replica (replicas share the registry; seeded logits are a pure
  function of weights and seed), and that holds across a redispatch.
* **Failover** - a dead replica is ejected by its health probes (and by
  live traffic), requests caught on it are transparently re-sent, and a
  recovered replica rejoins after ``readmit_after`` good probes.
* **Drain** - a draining replica takes no new traffic, finishes what it
  has, and ``undrain`` restores it.
* **Fleet metrics** - the router's merged ``/v1/metrics`` equals the
  sum of the per-replica snapshots, and the Prometheus rendering of the
  fleet sections parses clean.
* **The acceptance gate** - SIGTERM one of two real replica processes
  under open-loop load: every request the client sent completes with
  the right answer; zero client-visible failures.
"""

import json
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.cnn.datasets import N_CLASSES, generate_dataset
from repro.cnn.inference import QuantizedModel
from repro.cnn.micro import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.serve import (
    BatchingPolicy,
    Router,
    RouterPolicy,
    SconnaClient,
    SconnaService,
    serve_http,
    serve_router,
)
from repro.serve.client import ClientError, ServiceUnavailable
from repro.serve.router import Replica, spawn_replicas
from repro.serve.telemetry import (
    TracePolicy,
    Tracer,
    parse_exposition,
    render_exposition,
)
from repro.utils.rng import make_rng


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


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
def replicas(setup):
    """Two in-process replica servers fronting the same model."""
    qm, _ = setup
    fleet = []
    for name in ("replica-a", "replica-b"):
        svc = SconnaService(
            policy=BatchingPolicy(max_batch_size=8, max_wait_ms=1.0),
            n_workers=1, tracer=Tracer(TracePolicy(sample_rate=1.0)),
        )
        svc.add_model("tiny", qm)
        server, _ = serve_http(svc, replica_id=name)
        fleet.append((svc, server))
    yield fleet
    for svc, server in fleet:
        server.shutdown()
        svc.close()


def _make_router(urls, background=False, **policy_kwargs):
    defaults = dict(
        health_interval_s=30.0,   # tests drive probes via probe_now()
        eject_after=1, readmit_after=1, retry_after_s=0.01,
    )
    defaults.update(policy_kwargs)
    return Router(
        list(urls), policy=RouterPolicy(**defaults),
        tracer=Tracer(TracePolicy(sample_rate=1.0)),
        probe_in_background=background,
    )


@pytest.fixture
def routed(replicas):
    """A fresh router + front-end per test (tests mutate health state)."""
    router = _make_router([server.url for _, server in replicas])
    router.probe_now()   # learn replica ids before traffic arrives
    front, _ = serve_router(router)
    yield router, front
    front.shutdown()
    router.close()


class TestRoutedEquivalence:
    def test_seeded_logits_bit_identical_router_vs_direct(
        self, setup, replicas, routed
    ):
        """The reproducibility gate: the fleet answers exactly like any
        single replica for a seeded request."""
        _, ds = setup
        _, front = routed
        kwargs = dict(model="tiny", seed=11, top_k=3)
        with SconnaClient(front.url) as client:
            via_router = client.predict(ds.images[0], **kwargs)
            assert client.last_replica in ("replica-a", "replica-b")
        for _, server in replicas:
            with SconnaClient(server.url) as client:
                direct = client.predict(ds.images[0], **kwargs)
            assert np.array_equal(via_router.logits, direct.logits)
            assert via_router.top_k == direct.top_k

    def test_streamed_frames_relay_through_router(self, setup, routed):
        _, ds = setup
        _, front = routed
        stack = ds.images[:3]
        with SconnaClient(front.url) as client:
            parts = list(client.predict_stream(stack, model="tiny", seed=5))
            ref = client.predict(stack, model="tiny", seed=5)
        assert [p.index for p in parts] == [0, 1, 2]
        streamed = np.concatenate([p.logits for p in parts])
        assert np.array_equal(streamed, ref.logits)

    def test_parent_trace_id_spans_router_and_replica(self, setup, routed):
        """One trace id, both sides: the router's store has the hop
        spans, the replica's store has the execution spans."""
        _, ds = setup
        router, front = routed
        with SconnaClient(front.url) as client:
            client.predict(ds.images[1], model="tiny", seed=1)
            trace_id = client.last_trace_id
            replica_name = client.last_replica
        assert trace_id is not None
        # both servers commit a trace after flushing the response, so
        # the client can hold its answer before either store has it
        deadline = time.monotonic() + 10.0
        while (router.tracer.store.get(trace_id) is None
               and time.monotonic() < deadline):
            time.sleep(0.01)
        hop = router.tracer.store.get(trace_id)
        assert hop is not None
        assert any(s.name == "router.forward" for s in hop.spans())
        replica = next(
            r for r in router.replicas if r.replica_id == replica_name
        )
        with SconnaClient(replica.url) as client:
            while True:
                try:
                    doc = client.trace(trace_id)
                    break
                except ClientError:
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.01)
        assert doc["trace_id"] == trace_id

    def test_router_surface_mirrors_a_single_server(self, routed):
        _, front = routed
        with SconnaClient(front.url) as client:
            assert client.health()["role"] == "router"
            assert client.models() == ["tiny"]
            snap = client.metrics()
        assert snap["fleet"]["size"] == 2
        assert "routed_total" in snap["router"]


class TestConsistentRouting:
    def test_lanes_are_stable_and_bounded(self, routed):
        router, _ = routed
        lanes = router.lanes_for("tiny")
        assert len(lanes) == min(2, len(router.replicas))
        for _ in range(5):
            assert router.lanes_for("tiny") == lanes

    def test_rendezvous_ranking_is_per_model(self):
        urls = [f"http://127.0.0.1:{9000 + i}" for i in range(8)]
        router = _make_router(urls, lanes_per_model=2)
        try:
            orders = {
                name: tuple(r.url for r in router.ranked(name))
                for name in ("alpha", "beta", "gamma", "delta")
            }
            # every model gets a deterministic order...
            for name, order in orders.items():
                assert tuple(r.url for r in router.ranked(name)) == order
            # ...and the orders differ across models (rendezvous spread)
            assert len(set(orders.values())) > 1
        finally:
            router.close()

    def test_removing_a_replica_only_remaps_its_models(self):
        """The rendezvous property: dropping one replica never changes
        the top choice of a model that did not hash onto it."""
        urls = [f"http://127.0.0.1:{9100 + i}" for i in range(6)]
        survivors = urls[:-1]
        full = _make_router(urls)
        small = _make_router(survivors)
        try:
            for name in ("m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"):
                before = full.ranked(name)[0].url
                after = small.ranked(name)[0].url
                if before in survivors:
                    assert after == before
        finally:
            full.close()
            small.close()

    def test_model_less_requests_round_robin(self, routed):
        router, _ = routed
        firsts = {router.ranked(None)[0].url for _ in range(4)}
        assert len(firsts) == 2


class TestHealthAndFailover:
    def test_dead_replica_is_ejected_and_readmitted(self, setup, replicas):
        qm, _ = setup
        port = _free_port()
        live = replicas[0][1].url
        router = _make_router([live, f"http://127.0.0.1:{port}"],
                              readmit_after=2)
        try:
            router.probe_now()
            dead = router.replicas[1]
            assert not dead.available
            assert dead.ejections == 1
            assert [r.url for r in router.candidates("tiny")] == [live]
            # the replica comes back on the same port...
            svc = SconnaService(n_workers=1)
            svc.add_model("tiny", qm)
            server, _ = serve_http(svc, port=port, replica_id="revived")
            try:
                router.probe_now()     # 1 of readmit_after=2
                assert not dead.available
                router.probe_now()     # 2 of 2: rejoins
                assert dead.available
                assert dead.replica_id == "revived"
            finally:
                server.shutdown()
                svc.close()
        finally:
            router.close()

    def test_forward_redispatches_off_a_dead_replica(self, setup, replicas):
        """A request routed at a corpse lands on the live replica with
        the right answer; the corpse is ejected by the traffic itself.

        A model-less request round-robins, and the round-robin counter
        starts at replica 0 (the corpse) - so the first request tries
        the corpse first, fails, and redispatches to the live replica.
        """
        _, ds = setup
        live = replicas[0][1].url
        dead_url = f"http://127.0.0.1:{_free_port()}"
        router = _make_router([dead_url, live])
        front, _ = serve_router(router)
        try:
            with SconnaClient(front.url) as client:
                got = client.predict(ds.images[0], seed=11, top_k=3)
            with SconnaClient(live) as client:
                direct = client.predict(ds.images[0], seed=11, top_k=3)
            assert np.array_equal(got.logits, direct.logits)
            assert router.redispatches >= 1
            assert not router.replicas[0].available   # traffic ejected it
        finally:
            front.shutdown()
            router.close()

    def test_all_replicas_down_is_a_503_with_retry_after(self, setup):
        _, ds = setup
        router = _make_router([f"http://127.0.0.1:{_free_port()}"])
        front, _ = serve_router(router)
        try:
            router.probe_now()
            with SconnaClient(front.url) as client:
                with pytest.raises(ServiceUnavailable) as excinfo:
                    client.predict(ds.images[0], model="tiny")
            assert excinfo.value.retry_after_s > 0
            assert router.unroutable == 1
        finally:
            front.shutdown()
            router.close()

    def test_client_retries_the_503_transparently(self, setup, replicas):
        """ServiceUnavailable falls under the client's retry budget, so
        a briefly-empty fleet heals without caller involvement."""
        _, ds = setup
        router = _make_router([replicas[0][1].url])
        front, _ = serve_router(router)
        try:
            router.drain(replicas[0][1].url, timeout=5.0)
            undrainer = threading.Timer(
                0.2, router.undrain, args=(replicas[0][1].url,)
            )
            undrainer.start()
            try:
                with SconnaClient(front.url, retry_429=20) as client:
                    got = client.predict(ds.images[0], model="tiny", seed=2)
                assert got.model == "tiny"
            finally:
                undrainer.join()
        finally:
            front.shutdown()
            router.close()


class TestDrain:
    def test_drain_diverts_traffic_then_undrain_restores(
        self, setup, replicas, routed
    ):
        _, ds = setup
        router, front = routed
        target = router.replicas[0]
        with SconnaClient(front.url) as client:
            # the admin routes work over HTTP, matching by URL or id
            conn = client._connection()
            conn.request(
                "POST",
                f"/v1/router/drain?replica={target.url}&timeout=5",
            )
            resp = conn.getresponse()
            state = json.loads(resp.read())["replica"]
            assert resp.status == 200 and state["draining"]
            for i in range(4):
                client.predict(ds.images[i % 6], model="tiny", seed=i)
                assert client.last_replica == router.replicas[1].replica_id
            conn.request(
                "POST", f"/v1/router/undrain?replica={target.url}"
            )
            resp = conn.getresponse()
            assert resp.status == 200
            assert not json.loads(resp.read())["replica"]["draining"]
        assert target.available

    def test_drain_unknown_replica_is_404(self, routed):
        _, front = routed
        with SconnaClient(front.url) as client:
            conn = client._connection()
            conn.request("POST", "/v1/router/drain?replica=nope")
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 404

    def test_drain_requires_the_replica_parameter(self, routed):
        _, front = routed
        with SconnaClient(front.url) as client:
            conn = client._connection()
            conn.request("POST", "/v1/router/drain")
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 400


class TestFleetMetrics:
    def test_merged_snapshot_equals_sum_of_replicas(
        self, setup, replicas, routed
    ):
        _, ds = setup
        router, front = routed
        with SconnaClient(front.url) as client:
            for i in range(6):
                client.predict(ds.images[i], model="tiny", seed=i)
            fleet_snap = client.metrics()
        per_replica = []
        for _, server in replicas:
            with SconnaClient(server.url) as client:
                per_replica.append(client.metrics())
        for key in ("requests", "images", "batches", "errors"):
            assert fleet_snap[key] == sum(s[key] for s in per_replica), key
        assert fleet_snap["router"]["routed_total"] >= 6
        assert fleet_snap["fleet"]["healthy"] == 2

    def test_state_export_round_trips(self, setup, replicas):
        """``?format=state`` is the raw merge food: re-hydrating it
        yields the same aggregate snapshot the replica itself serves."""
        from repro.serve.metrics import ServeMetrics

        _, server = replicas[0]
        with SconnaClient(server.url) as client:
            doc = client._get_json("/v1/metrics?format=state")
            snap = client.metrics()
        assert set(doc) >= {"metrics", "models", "backend"}
        rebuilt = ServeMetrics().merge(doc["metrics"]).snapshot()
        assert rebuilt["requests"] == snap["requests"]
        assert rebuilt["batch_size"]["histogram"] == (
            snap["batch_size"]["histogram"]
        )

    def test_fleet_prometheus_exposition_parses(self, routed):
        router, _ = routed
        text = render_exposition(router.metrics_snapshot())
        samples = parse_exposition(text)
        names = {name for name, _, _ in samples}
        assert "sconna_replica_up" in names
        assert "sconna_router_routed_total" in names
        up = [
            value for name, labels, value in samples
            if name == "sconna_replica_up"
        ]
        assert up == [1.0, 1.0]


class TestRouterUnit:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RouterPolicy(lanes_per_model=0)
        with pytest.raises(ValueError):
            RouterPolicy(max_retries=0)
        with pytest.raises(ValueError):
            RouterPolicy(eject_after=0)

    def test_router_rejects_bad_replica_sets(self):
        with pytest.raises(ValueError):
            Router([])
        with pytest.raises(ValueError):
            Router(["http://127.0.0.1:1", "http://127.0.0.1:1"])
        with pytest.raises(ValueError):
            Replica("https://127.0.0.1:1", RouterPolicy())

    def test_replica_health_transitions(self):
        replica = Replica(
            "http://127.0.0.1:1",
            RouterPolicy(eject_after=2, readmit_after=2),
        )
        assert not replica.record_failure("one")
        assert replica.healthy
        assert replica.record_failure("two")       # ejection edge
        assert not replica.healthy
        assert not replica.record_success()
        assert replica.record_success()            # re-admission edge
        assert replica.healthy and replica.last_error is None
        assert replica.ejections == 1


class TestKillUnderLoad:
    def test_sigterm_one_of_two_replicas_under_load(self, setup, tmp_path):
        """The acceptance gate: two real server processes behind the
        router, SIGTERM one mid-load - every request completes with
        bit-identical seeded logits, zero client-visible failures."""
        from repro.serve.registry import ModelRegistry

        qm, ds = setup
        registry = ModelRegistry(tmp_path / "models")
        registry.save("tiny", qm)
        processes, urls = spawn_replicas(
            str(tmp_path / "models"), 2, _free_port(),
            extra_args=["--workers", "1", "--max-wait-ms", "1"],
            wait_s=60.0,
        )
        router = _make_router(
            urls, background=True, health_interval_s=0.1, max_retries=3
        )
        front, _ = serve_router(router)
        failures: "list[Exception]" = []
        results: "list[np.ndarray]" = []
        lock = threading.Lock()

        def worker(n: int) -> None:
            try:
                with SconnaClient(front.url, retry_429=50) as client:
                    for _ in range(n):
                        got = client.predict(
                            ds.images[0], model="tiny", seed=11
                        )
                        with lock:
                            results.append(got.logits)
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                with lock:
                    failures.append(exc)

        try:
            with SconnaClient(urls[0]) as client:
                reference = client.predict(
                    ds.images[0], model="tiny", seed=11
                ).logits
            # consistent routing is visible in the topology before load
            assert router.topology()["model_lanes"].get("tiny")
            # kill the replica the model's requests actually prefer, so
            # the redispatch path (not just the probe path) is exercised
            preferred = router.ranked("tiny")[0].url
            victim = processes[urls.index(preferred)]
            threads = [
                threading.Thread(target=worker, args=(6,)) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.3)   # let the open-loop load get going
            victim.send_signal(signal.SIGTERM)
            for thread in threads:
                thread.join(timeout=120.0)
            assert failures == []
            assert len(results) == 4 * 6
            for logits in results:
                assert np.array_equal(logits, reference)
            # once the victim has actually exited (its graceful drain
            # may outlast the short load), the prober ejects it
            victim.wait(timeout=30.0)
            dead = next(r for r in router.replicas if r.url == preferred)
            deadline = time.monotonic() + 10.0
            while dead.available and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not dead.available
        finally:
            front.shutdown()
            router.close()
            for proc in processes:
                proc.terminate()
            for proc in processes:
                try:
                    proc.wait(timeout=30.0)
                except Exception:
                    proc.kill()
