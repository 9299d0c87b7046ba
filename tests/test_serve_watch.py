"""The fleet watchtower: store math, SLO rules, alerts, self-healing.

The contracts under test:

* **Time-series store** - per-series rings evict oldest points (and
  count what they dropped), whole series evict least-recently-updated
  when the store is full, and counter math survives resets: a counter
  that restarts mid-window contributes its new absolute value, exactly
  as Prometheus ``increase`` defines it.
* **Burn-rate math** - multi-window burn rates match hand-computed
  windows, and the multi-window AND-gate holds: a short-window spike
  without long-window corroboration does not fire.
* **Alert lifecycle** - pending until ``for_s`` elapses, firing after,
  resolved on the first clean evaluation (both transitions logged);
  a pending alert that recovers dissolves without ever firing.
* **Exposition hardening** - duplicate ``(name, labels)`` samples and
  NaN-valued counters are rejected by ``parse_exposition``.
* **Live fleet** - scraping a real 2-replica fleet plus its router
  yields non-empty p99 and per-model energy series (the fleet-merged
  accel counters included), served over ``/v1/watch/*`` and rendered
  into the dashboard.
* **Self-healing** - SIGKILL one of two real replica processes under
  load: the ``replica_down`` alert fires as soon as the router's
  fleet section reports the death, auto-drain marks the corpse
  draining through ``/v1/router/drain``, and the load sees zero
  failures.
"""

import io
import json
import math
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
from repro.serve.router import spawn_replicas
from repro.serve.telemetry import (
    StructuredLogger,
    parse_exposition,
    render_exposition,
)
from repro.serve.telemetry.watch import (
    ScrapeTarget,
    SLOEngine,
    TimeSeriesStore,
    Watchtower,
    default_rules,
    load_rules,
    make_rule,
    serve_watch,
)
from repro.utils.rng import make_rng


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ---------------------------------------------------------------------------
# time-series store
# ---------------------------------------------------------------------------

class TestTimeSeriesStore:
    def test_ring_evicts_oldest_points_and_counts_them(self):
        store = TimeSeriesStore(capacity_per_series=4)
        for t in range(10):
            store.observe("g", {"instance": "a"}, float(t), float(t))
        pts = store.points("g", {"instance": "a"})
        assert [v for _, v in pts] == [6.0, 7.0, 8.0, 9.0]
        stats = store.stats()
        assert stats["points_dropped"] == 6
        assert stats["series"] == 1

    def test_full_store_evicts_least_recently_updated_series(self):
        store = TimeSeriesStore(capacity_per_series=8, max_series=2)
        store.observe("a", None, 1.0, 1.0)
        store.observe("b", None, 1.0, 2.0)
        store.observe("a", None, 2.0, 3.0)   # "b" is now the LRU
        store.observe("c", None, 1.0, 4.0)   # evicts "b"
        assert store.names() == ["a", "c"]
        assert store.stats()["series_evicted"] == 1
        assert store.points("b", None) == []

    def test_increase_handles_counter_reset(self):
        store = TimeSeriesStore()
        # 0 -> 10 (delta 10), restart to 4 (contributes 4), 4 -> 9 (5)
        for t, v in [(0, 0), (1, 10), (2, 4), (3, 9)]:
            store.observe("c", None, float(v), float(t))
        assert store.increase("c", None, 10.0, 3.0) == pytest.approx(19.0)
        assert store.rate("c", None, 10.0, 3.0) == pytest.approx(19.0 / 3.0)

    def test_increase_respects_the_window(self):
        store = TimeSeriesStore()
        for t in range(11):
            store.observe("c", None, 10.0 * t, float(t))
        assert store.increase("c", None, 5.0, 10.0) == pytest.approx(50.0)
        assert store.increase("c", None, 100.0, 10.0) == pytest.approx(100.0)
        # fewer than two in-window points: no increase
        assert store.increase("c", None, 0.5, 10.0) == 0.0

    def test_rate_series_derivation_is_reset_aware(self):
        pts = [(0.0, 0.0), (1.0, 10.0), (2.0, 4.0)]
        derived = TimeSeriesStore.rate_series(pts)
        assert derived == [(1.0, 10.0), (2.0, 4.0)]

    def test_windowed_aggregates(self):
        store = TimeSeriesStore()
        for t, v in enumerate([1.0, 2.0, 3.0, 4.0]):
            store.observe("g", None, v, float(t))
        # window covering only the last two points
        assert store.agg("g", None, "mean", 1.0, 3.0) == pytest.approx(3.5)
        assert store.agg("g", None, "max", 10.0, 3.0) == 4.0
        assert store.agg("g", None, "mean", 10.0, 3.0) == pytest.approx(2.5)
        assert store.agg("g", None, "last", 10.0, 3.0) == 4.0
        assert store.agg("missing", None, "mean", 10.0, 3.0) is None
        with pytest.raises(ValueError, match="unknown aggregate"):
            store.agg("g", None, "median", 10.0, 3.0)

    def test_latest_honours_staleness(self):
        store = TimeSeriesStore()
        store.observe("g", None, 7.0, 100.0)
        assert store.latest("g", None) == 7.0
        assert store.latest("g", None, max_age_s=5.0, now=104.0) == 7.0
        assert store.latest("g", None, max_age_s=5.0, now=106.0) is None

    def test_label_sets_are_independent_series(self):
        store = TimeSeriesStore()
        store.observe("g", {"instance": "a"}, 1.0, 0.0)
        store.observe("g", {"instance": "b"}, 2.0, 0.0)
        matched = store.match("g", {"instance": "a"})
        assert len(matched) == 1
        assert matched[0][0] == {"instance": "a"}
        assert len(store.match("g")) == 2


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

class TestRules:
    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "slo.toml"
        path.write_text(
            '[[rule]]\n'
            'name = "avail"\nkind = "burn_rate"\nseverity = "page"\n'
            'objective = 0.999\nwindows = [[60.0, 14.4], [300.0, 6.0]]\n'
            '\n'
            '[[rule]]\n'
            'name = "down"\nkind = "replica_down"\naction = "drain"\n'
            'for_s = 2.0\n'
        )
        rules = load_rules(str(path))
        assert [r.name for r in rules] == ["avail", "down"]
        assert rules[0].params["windows"] == [(60.0, 14.4), (300.0, 6.0)]
        assert rules[1].action == "drain"
        assert rules[1].for_s == 2.0

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"rule": [
            {"name": "queue", "kind": "threshold",
             "series": "sconna_queue_depth", "agg": "max",
             "op": ">", "value": 64},
        ]}))
        (rule,) = load_rules(str(path))
        assert rule.kind == "threshold"
        assert rule.params["value"] == 64.0

    def test_validation_failures(self, tmp_path):
        with pytest.raises(ValueError, match="unknown kind"):
            make_rule({"name": "x", "kind": "nope"})
        with pytest.raises(ValueError, match="objective"):
            make_rule({"name": "x", "kind": "burn_rate",
                       "objective": 1.5, "windows": [[60, 1]]})
        with pytest.raises(ValueError, match="windows"):
            make_rule({"name": "x", "kind": "burn_rate", "objective": 0.99})
        with pytest.raises(ValueError, match="only 'drain'"):
            make_rule({"name": "x", "kind": "replica_down",
                       "action": "reboot"})
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"rule": [
            {"name": "a", "kind": "replica_down"},
            {"name": "a", "kind": "replica_down"},
        ]}))
        with pytest.raises(ValueError, match="duplicate rule name"):
            load_rules(str(path))

    def test_default_rules_cover_the_advertised_kinds(self):
        kinds = {rule.kind for rule in default_rules()}
        assert kinds == {"burn_rate", "threshold", "replica_down",
                         "energy_budget"}
        drain = [r for r in default_rules() if r.action == "drain"]
        assert [r.kind for r in drain] == ["replica_down"]


# ---------------------------------------------------------------------------
# burn-rate math against hand-computed windows
# ---------------------------------------------------------------------------

class TestBurnRateMath:
    @staticmethod
    def _counters(store, errors_per_100):
        """Counters at 1 sample/s: 100 req/s, ``errors_per_100`` err/s."""
        for t in range(11):
            store.observe("sconna_requests_total", {"instance": "r"},
                          100.0 * t, float(t))
            store.observe("sconna_errors_total", {"instance": "r"},
                          float(errors_per_100) * t, float(t))

    def test_availability_burn_matches_hand_computation(self):
        store = TimeSeriesStore()
        self._counters(store, errors_per_100=10)  # 10% bad, budget 1%
        rule = make_rule({
            "name": "avail", "kind": "burn_rate", "objective": 0.99,
            "windows": [[5.0, 9.0], [10.0, 9.0]],
        })
        engine = SLOEngine(store, [rule])
        events = engine.evaluate(10.0)
        assert [tr for tr, _ in events] == ["firing"]
        (_, alert), = events
        # hand math: bad/total = 50/500 = 0.1; burn = 0.1 / 0.01 = 10
        assert alert.value == pytest.approx(10.0)

    def test_multi_window_gate_requires_every_window(self):
        store = TimeSeriesStore()
        # 9 clean seconds, then one second with 50 errors: the short
        # window burns hot, the long window stays under its threshold
        for t in range(11):
            store.observe("sconna_requests_total", {"instance": "r"},
                          100.0 * t, float(t))
            store.observe("sconna_errors_total", {"instance": "r"},
                          50.0 if t >= 10 else 0.0, float(t))
        rule = make_rule({
            "name": "avail", "kind": "burn_rate", "objective": 0.99,
            # short window: 50/200 / 0.01 = 25 > 20 (breaches);
            # long window: 50/1000 / 0.01 = 5 < 20 (holds the gate)
            "windows": [[2.0, 20.0], [10.0, 20.0]],
        })
        engine = SLOEngine(store, [rule])
        assert engine.evaluate(10.0) == []
        assert engine.active() == []

    def test_latency_burn_counts_quantile_votes(self):
        store = TimeSeriesStore()
        # p99 gauge sampled every second: 4 of the last 10 samples are
        # over 250 ms -> bad fraction 0.4, budget 0.1, burn 4.0
        for t in range(10):
            p99 = 0.400 if t >= 6 else 0.050
            store.observe("sconna_request_latency_seconds",
                          {"quantile": "0.99", "instance": "r"}, p99, float(t))
        rule = make_rule({
            "name": "lat", "kind": "burn_rate", "signal": "latency",
            "objective": 0.9, "threshold_ms": 250.0,
            "windows": [[20.0, 3.0]],
        })
        engine = SLOEngine(store, [rule])
        events = engine.evaluate(9.0)
        assert [tr for tr, _ in events] == ["firing"]
        assert events[0][1].value == pytest.approx(4.0)

    def test_energy_budget_per_image(self):
        store = TimeSeriesStore()
        for t in range(6):
            store.observe("sconna_accel_energy_joules_total",
                          {"model": "m", "instance": "r"}, 6.0 * t, float(t))
            store.observe("sconna_accel_images_total",
                          {"model": "m", "instance": "r"}, 2.0 * t, float(t))
        rule = make_rule({
            "name": "energy", "kind": "energy_budget",
            "window_s": 10.0, "max_joules_per_image": 2.5,
        })
        engine = SLOEngine(store, [rule])
        events = engine.evaluate(5.0)
        assert [tr for tr, _ in events] == ["firing"]
        assert events[0][1].value == pytest.approx(3.0)  # 30 J / 10 images


# ---------------------------------------------------------------------------
# alert lifecycle
# ---------------------------------------------------------------------------

class TestAlertLifecycle:
    @staticmethod
    def _engine(for_s=0.0, logger=None):
        store = TimeSeriesStore()
        rule = make_rule({"name": "down", "kind": "replica_down",
                          "severity": "page", "action": "drain",
                          "for_s": for_s})
        return store, SLOEngine(store, [rule], logger=logger)

    @staticmethod
    def _up(store, replica, up, t):
        store.observe("sconna_replica_up",
                      {"replica": replica, "instance": "router"},
                      1.0 if up else 0.0, float(t))

    def test_firing_and_resolved_transitions_are_logged(self):
        stream = io.StringIO()
        store, engine = self._engine(logger=StructuredLogger(stream=stream))
        self._up(store, "r0", True, 0)
        assert engine.evaluate(0.0) == []
        self._up(store, "r0", False, 1)
        events = engine.evaluate(1.0)
        assert [(tr, a.state) for tr, a in events] == [("firing", "firing")]
        assert events[0][1].labels == {"replica": "r0"}
        self._up(store, "r0", True, 2)
        events = engine.evaluate(2.0)
        assert [(tr, a.state) for tr, a in events] == [("resolved", "resolved")]
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [(r["event"], r["phase"]) for r in records] == [
            ("alert", "firing"), ("alert", "resolved"),
        ]
        assert all(r["rule"] == "down" for r in records)
        # resolved alerts retire to history; nothing stays active
        assert engine.active() == []
        assert [a.rule for a in engine.history()] == ["down"]

    def test_for_s_holds_the_alert_pending(self):
        store, engine = self._engine(for_s=2.0)
        self._up(store, "r0", False, 0)
        assert engine.evaluate(0.0) == []
        (pending,) = engine.active()
        assert pending.state == "pending"
        self._up(store, "r0", False, 1)
        assert engine.evaluate(1.0) == []
        self._up(store, "r0", False, 2)
        events = engine.evaluate(2.0)
        assert [tr for tr, _ in events] == ["firing"]

    def test_pending_alert_dissolves_without_firing(self):
        stream = io.StringIO()
        store, engine = self._engine(
            for_s=5.0, logger=StructuredLogger(stream=stream)
        )
        self._up(store, "r0", False, 0)
        engine.evaluate(0.0)
        self._up(store, "r0", True, 1)
        assert engine.evaluate(1.0) == []
        assert engine.active() == []
        assert engine.history() == []
        assert stream.getvalue() == ""

    def test_stale_up_series_does_not_breach(self):
        store, engine = self._engine()
        self._up(store, "r0", False, 0)
        # 100 s later the sample is long stale (stale_s defaults to 10)
        assert engine.evaluate(100.0) == []


# ---------------------------------------------------------------------------
# exposition hardening + accel counters
# ---------------------------------------------------------------------------

class TestExpositionHardening:
    def test_duplicate_samples_rejected(self):
        text = (
            "# TYPE x_total counter\n"
            'x_total{model="a"} 1\n'
            'x_total{model="a"} 2\n'
        )
        with pytest.raises(ValueError, match="duplicate sample"):
            parse_exposition(text)

    def test_duplicate_detection_is_label_order_independent(self):
        text = (
            "# TYPE x_total counter\n"
            'x_total{a="1",b="2"} 1\n'
            'x_total{b="2",a="1"} 2\n'
        )
        with pytest.raises(ValueError, match="duplicate sample"):
            parse_exposition(text)

    def test_distinct_labels_are_not_duplicates(self):
        text = (
            "# TYPE x_total counter\n"
            'x_total{model="a"} 1\n'
            'x_total{model="b"} 2\n'
        )
        assert len(parse_exposition(text)) == 2

    def test_nan_counter_rejected(self):
        text = "# TYPE x_total counter\nx_total NaN\n"
        with pytest.raises(ValueError, match="NaN"):
            parse_exposition(text)

    def test_nan_gauge_still_allowed(self):
        text = "# TYPE x gauge\nx NaN\n"
        ((name, labels, value),) = parse_exposition(text)
        assert math.isnan(value)

    def test_accel_cost_counters_render_and_parse(self):
        snapshot = {
            "requests": 4,
            "accel_costs": {
                "mnet": {"energy_j": 1.25, "latency_s": 0.5, "images": 10},
            },
        }
        samples = parse_exposition(render_exposition(snapshot))
        by_name = {
            (name, labels.get("model")): value
            for name, labels, value in samples
        }
        assert by_name[("sconna_accel_energy_joules_total", "mnet")] == 1.25
        assert by_name[("sconna_accel_latency_seconds_total", "mnet")] == 0.5
        assert by_name[("sconna_accel_images_total", "mnet")] == 10.0


# ---------------------------------------------------------------------------
# live fleet scrape + HTTP surface
# ---------------------------------------------------------------------------

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
def fleet(setup):
    """Two in-process replicas, a router, and traffic through it."""
    qm, ds = setup
    replicas = []
    for name in ("replica-a", "replica-b"):
        svc = SconnaService(
            policy=BatchingPolicy(max_batch_size=8, max_wait_ms=1.0),
            n_workers=1,
        )
        svc.add_model("tiny", qm)
        server, _ = serve_http(svc, replica_id=name)
        replicas.append((svc, server))
    router = Router(
        [server.url for _, server in replicas],
        policy=RouterPolicy(health_interval_s=30.0),
        probe_in_background=False,
    )
    router.probe_now()
    front, _ = serve_router(router)
    with SconnaClient(front.url, retry_429=50) as client:
        for i in range(24):
            client.predict(ds.images[i % 6], model="tiny", seed=7)
    yield replicas, router, front
    front.shutdown()
    router.close()
    for svc, server in replicas:
        server.shutdown()
        svc.close()


class TestLiveFleetScrape:
    def test_series_alerts_and_dashboard_over_http(self, fleet):
        replicas, router, front = fleet
        targets = [
            ScrapeTarget(name=name, url=server.url)
            for name, (_, server) in zip(
                ("replica-a", "replica-b"), replicas
            )
        ]
        targets.append(
            ScrapeTarget(name="router", url=front.url, role="router")
        )
        tower = Watchtower(targets, interval_s=0.2, router_url=front.url)
        watch_server = serve_watch(tower)
        try:
            t0 = time.monotonic()
            for k in range(3):
                summary = tower.tick(t0 + 0.2 * k)
            assert summary["scrape"]["failed"] == 0

            with SconnaClient(watch_server.url) as client:
                health = client.health()
                assert health["role"] == "watchtower"

                # non-empty p99 series from replicas and the router
                doc = client.watch_series(
                    "sconna_request_latency_seconds",
                    labels={"quantile": "0.99"},
                )
                assert doc["series"]
                assert all(s["points"] for s in doc["series"])
                instances = {
                    s["labels"]["instance"] for s in doc["series"]
                }
                assert "router" in instances

                # fleet-merged energy counters produce a rate series
                doc = client.watch_series(
                    "sconna_accel_energy_joules_total",
                    labels={"instance": "router"}, derive="rate",
                )
                assert doc["series"]
                assert all(s["points"] for s in doc["series"])
                assert doc["series"][0]["labels"]["model"] == "tiny"

                # series directory + alerts document
                directory = client.watch_series()
                assert "sconna_replica_up" in directory["names"]
                alerts = client.alerts()
                assert alerts["engine"]["evaluations"] == 3
                assert alerts["active"] == []

            # the dashboard renders with sparklines and the fleet table
            import urllib.request

            html = urllib.request.urlopen(
                watch_server.url + "/v1/watch/dashboard", timeout=10.0
            ).read().decode("utf-8")
            assert "<svg" in html
            assert "replica-a" in html
            assert "energy" in html
        finally:
            tower.close()
            watch_server.shutdown()

    def test_replica_exposition_carries_energy_counters(self, fleet):
        replicas, router, front = fleet
        import urllib.request

        # the fixture's traffic lands on the model's rendezvous-preferred
        # replica (which of the two depends on the ephemeral ports), so
        # check that one plus the router's fleet-merged view
        preferred = router.ranked("tiny")[0].url
        for url in (preferred, front.url):
            text = urllib.request.urlopen(
                url + "/v1/metrics?format=prometheus", timeout=10.0
            ).read().decode("utf-8")
            samples = parse_exposition(text)
            energy = {
                labels["model"]: value
                for name, labels, value in samples
                if name == "sconna_accel_energy_joules_total"
            }
            assert energy.get("tiny", 0.0) > 0.0

    def test_scrape_failure_is_a_synthetic_down_sample(self):
        tower = Watchtower(
            [ScrapeTarget(name="ghost",
                          url=f"http://127.0.0.1:{_free_port()}")],
            interval_s=0.2,
        )
        try:
            summary = tower.tick(0.0)
            assert summary["scrape"]["failed"] == 1
            assert tower.store.latest(
                "watch_scrape_up", {"instance": "ghost"}
            ) == 0.0
        finally:
            tower.close()


# ---------------------------------------------------------------------------
# the acceptance gate: SIGKILL + auto-drain, zero visible failures
# ---------------------------------------------------------------------------

class TestAutoDrainEndToEnd:
    def test_sigkill_fires_replica_down_and_auto_drains(self, setup, tmp_path):
        """Two real replica processes behind a router; SIGKILL one under
        load.  The watchtower's ``replica_down`` alert fires within two
        evaluation intervals of the router reporting the death,
        auto-drain marks the corpse draining, and every request the
        load sent completes."""
        from repro.serve.registry import ModelRegistry

        qm, ds = setup
        registry = ModelRegistry(tmp_path / "models")
        registry.save("tiny", qm)
        processes, urls = spawn_replicas(
            str(tmp_path / "models"), 2, _free_port(),
            extra_args=["--workers", "1", "--max-wait-ms", "1"],
            wait_s=60.0,
        )
        router = Router(
            urls,
            policy=RouterPolicy(
                health_interval_s=0.1, eject_after=2, readmit_after=2,
                max_retries=3,
            ),
        )
        front, _ = serve_router(router)
        interval_s = 0.15
        stream = io.StringIO()
        tower = Watchtower(
            [ScrapeTarget(name="router", url=front.url, role="router")],
            rules=[make_rule({
                "name": "replica-down", "kind": "replica_down",
                "severity": "page", "action": "drain",
            })],
            interval_s=interval_s,
            router_url=front.url,
            auto_drain=True,
            logger=StructuredLogger(stream=stream),
        )
        tower.start()

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
            victim_url = router.ranked("tiny")[0].url
            victim = processes[urls.index(victim_url)]
            threads = [
                threading.Thread(target=worker, args=(8,)) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.4)
            victim.send_signal(signal.SIGKILL)
            for thread in threads:
                thread.join(timeout=120.0)

            # the alert fires once the router's fleet section reports
            # the corpse down
            deadline = time.monotonic() + 30.0
            firing = []
            while time.monotonic() < deadline:
                firing = [
                    a for a in tower.engine.firing()
                    if a.rule == "replica-down"
                ]
                if firing:
                    break
                time.sleep(0.05)
            assert firing, "replica_down never fired after SIGKILL"
            (alert,) = firing

            # fired within two evaluation intervals of the first
            # scraped down-sample (the acceptance bound)
            replica_label = alert.labels["replica"]
            up_points = tower.store.points(
                "sconna_replica_up",
                {"replica": replica_label, "instance": "router"},
            )
            first_zero_t = next(t for t, v in up_points if v == 0.0)
            assert alert.started_t - first_zero_t <= 2 * interval_s + 0.05

            # auto-drain acted: the router shows the corpse draining
            deadline = time.monotonic() + 10.0
            victim_replica = next(
                r for r in router.replicas if r.url == victim_url
            )
            while not victim_replica.draining and time.monotonic() < deadline:
                time.sleep(0.05)
            assert victim_replica.draining
            acted = [
                rec for rec in tower.alerts_doc()["remediations"]
                if rec.get("acted")
            ]
            assert acted and acted[0]["replica"] == replica_label

            # the remediation and alert were logged
            events = [
                json.loads(line)["event"]
                for line in stream.getvalue().splitlines()
            ]
            assert "alert" in events and "remediation" in events

            # zero client-visible failures, bit-identical answers
            assert failures == []
            assert len(results) == 4 * 8
            for logits in results:
                assert np.array_equal(logits, reference)
        finally:
            tower.close()
            front.shutdown()
            router.close()
            for proc in processes:
                proc.terminate()
            for proc in processes:
                try:
                    proc.wait(timeout=30.0)
                except Exception:
                    proc.kill()
