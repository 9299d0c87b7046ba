"""Service facade, per-request reproducibility, costs, metrics, HTTP."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cnn.datasets import N_CLASSES, generate_dataset
from repro.cnn.inference import QuantizedModel
from repro.cnn.micro import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.cnn.train import build_proxy
from repro.serve import (
    BatchingPolicy,
    ModelRegistry,
    SconnaService,
    descriptor_from_quantized,
    percentile,
    serve_http,
)
from repro.stochastic.error_models import PerRequestErrorModels, SconnaErrorModel
from repro.utils.rng import make_rng


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


@pytest.fixture()
def service(setup):
    qm, _ = setup
    svc = SconnaService(
        policy=BatchingPolicy(max_batch_size=8, max_wait_ms=2.0)
    )
    svc.add_model("tiny", qm)
    yield svc
    svc.close()


class TestPredict:
    def test_ideal_matches_direct_forward(self, setup, service):
        qm, ds = setup
        direct = qm.forward(
            ds.images[1][None], mode="sconna",
            error_model=SconnaErrorModel(adc_mape=0.0),
        )
        pred = service.predict("tiny", ds.images[1], ideal=True)
        assert np.array_equal(pred.logits, direct)

    def test_seeded_request_bit_identical_across_batch_compositions(
        self, setup, service
    ):
        """The reproducibility contract: one request, one RNG stream,
        regardless of which strangers shared the coalesced batch."""
        _, ds = setup
        solo = service.predict("tiny", ds.images[2], seed=5)
        for companions in (3, 7):
            futs = [
                service.predict_async("tiny", ds.images[i % 6], seed=100 + i)
                for i in range(companions)
            ]
            crowd = service.predict("tiny", ds.images[2], seed=5)
            for f in futs:
                f.result(10.0)
            assert np.array_equal(solo.logits, crowd.logits)

    def test_same_seed_same_result_repeated(self, setup, service):
        _, ds = setup
        a = service.predict("tiny", ds.images[0], seed=9)
        b = service.predict("tiny", ds.images[0], seed=9)
        assert np.array_equal(a.logits, b.logits)

    def test_multi_image_request_kept_whole(self, setup, service):
        _, ds = setup
        pred = service.predict("tiny", ds.images[:3], seed=1, top_k=2)
        assert pred.logits.shape == (3, N_CLASSES)
        assert len(pred.top_k) == 3
        assert all(len(per_image) == 2 for per_image in pred.top_k)

    def test_top_k_ordering(self, setup, service):
        _, ds = setup
        pred = service.predict("tiny", ds.images[4], ideal=True, top_k=3)
        logits = [v for _, v in pred.top_k[0]]
        assert logits == sorted(logits, reverse=True)
        assert pred.top_class == pred.top_k[0][0][0]

    def test_unknown_model_and_bad_input(self, setup, service):
        _, ds = setup
        with pytest.raises(KeyError):
            service.predict("ghost", ds.images[0])
        with pytest.raises(ValueError):
            service.predict("tiny", ds.images[0, 0])  # 2-D
        with pytest.raises(ValueError):
            service.predict("tiny", ds.images[0], top_k=0)

    def test_shape_mismatch_fails_caller_not_companions(self, setup, service):
        """A wrong-geometry image is rejected at submit time, so it can
        never poison the strangers it would have been batched with."""
        _, ds = setup
        service.predict("tiny", ds.images[0])  # pins the lane shape
        with pytest.raises(ValueError, match="serving shape"):
            service.predict("tiny", np.zeros((3, 32, 32)))
        ok = service.predict("tiny", ds.images[1], ideal=True)
        assert ok.logits.shape == (1, N_CLASSES)

    def test_bad_first_request_does_not_pin_the_lane_shape(
        self, setup, service
    ):
        """The lane learns its shape from its first batch that completes:
        a wrong-size first request fails in the engine alone, a right-size
        request after it is served, and only then is a wrong size refused
        at submit."""
        _, ds = setup
        with pytest.raises(ValueError):
            service.predict("tiny", np.zeros((3, 32, 32)))
        ok = service.predict("tiny", ds.images[0], ideal=True)
        assert ok.logits.shape == (1, N_CLASSES)
        with pytest.raises(ValueError, match="serving shape"):
            service.predict_async("tiny", np.zeros((3, 32, 32)))

    def test_wrong_size_neighbour_fails_alone(self, setup):
        """Before a lane knows its shape, a wrong-size request and a
        right-size one that arrive together ride separate batches: the
        right-size one is answered, the wrong-size one fails alone."""
        _, ds = setup
        qm = QuantizedModel.from_trained(build_proxy("snet_proxy"), ds.images[:24])
        svc = SconnaService(
            policy=BatchingPolicy(max_batch_size=8, max_wait_ms=50.0, min_fill=8)
        )
        svc.add_model("snet", qm)
        try:
            wrong = svc.predict_async("snet", np.zeros((3, 32, 32)), seed=1)
            right = svc.predict_async("snet", ds.images[0], seed=2)
            assert right.result(30.0).logits.shape == (1, N_CLASSES)
            with pytest.raises(ValueError):
                wrong.result(30.0)
        finally:
            svc.close()

    def test_close_then_predict_raises(self, setup):
        qm, ds = setup
        svc = SconnaService()
        svc.add_model("m", qm)
        svc.close()
        with pytest.raises(RuntimeError):
            svc.predict("m", ds.images[0])


class TestCosts:
    def test_cost_annotation_fields_and_caching(self, setup, service):
        _, ds = setup
        pred = service.predict("tiny", ds.images[0], with_cost=True)
        cost = pred.cost
        assert cost is not None
        assert cost.accelerator == "SCONNA"
        assert cost.latency_s > 0 and cost.energy_j > 0
        assert cost.bottleneck in (
            "compute", "reduction", "memory", "activation", "weight_io"
        )
        # a second annotated request hits the simulation cache
        service.predict("tiny", ds.images[1], with_cost=True)
        assert len(service.costs.cache) == 1

    def test_cost_scales_with_image_count(self, setup, service):
        _, ds = setup
        one = service.predict("tiny", ds.images[0], with_cost=True).cost
        three = service.predict("tiny", ds.images[:3], with_cost=True).cost
        assert three.latency_s == pytest.approx(3 * one.latency_s)
        assert three.energy_j == pytest.approx(3 * one.energy_j)

    def test_descriptor_derivation_matches_structure(self, setup):
        qm, _ = setup
        desc = descriptor_from_quantized(qm, "tiny", (3, 24, 24))
        assert [l.name for l in desc.layers] == ["conv0", "fc4"]
        assert desc.layers[0].vector_size == 27
        assert desc.layers[1].in_channels == 6 * 6 * 6


class TestMetricsAndErrors:
    def test_snapshot_counts_requests_and_batches(self, setup, service):
        _, ds = setup
        futs = [
            service.predict_async("tiny", ds.images[i % 6], seed=i)
            for i in range(10)
        ]
        for f in futs:
            f.result(10.0)
        snap = service.metrics_snapshot()
        assert snap["requests"] >= 10
        assert snap["batches"] >= 1
        assert snap["latency"]["p99_ms"] >= snap["latency"]["p50_ms"]
        assert snap["models"] == ["tiny"]

    def test_percentile_helper(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert percentile(vals, 0) == 1.0
        assert percentile(vals, 100) == 4.0
        assert percentile(vals, 50) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_inference_failure_routed_to_future(self, setup):
        qm, ds = setup
        svc = SconnaService()
        svc.add_model("m", qm)
        try:
            bad = np.zeros((1, 3, 10, 10))  # wrong spatial dims for the FC
            with pytest.raises(Exception):
                svc.predict("m", bad, timeout=10.0)
            snap = svc.metrics_snapshot()
            assert snap["errors"] >= 1
        finally:
            svc.close()


class TestPerRequestErrorModels:
    def test_ideal_passthrough_is_exact(self):
        counts = np.arange(24, dtype=np.int64).reshape(2, 3, 4)
        composite = PerRequestErrorModels([None, SconnaErrorModel(adc_mape=0.0)])
        assert composite.ideal()
        assert np.array_equal(composite.apply_to_counts(counts), counts)

    def test_mixed_batch_noisy_slice_only(self):
        counts = np.full((2, 2, 2), 1000.0)
        composite = PerRequestErrorModels([None, SconnaErrorModel(seed=0)])
        assert not composite.ideal()
        out = composite.apply_to_counts(counts)
        assert np.array_equal(out[0], counts[0])
        assert not np.array_equal(out[1], counts[1])

    def test_segment_sizes_respected(self):
        counts = np.zeros((5, 1, 1))
        composite = PerRequestErrorModels([None, None], sizes=[2, 3])
        assert composite.n_images == 5
        composite.apply_to_counts(counts)
        with pytest.raises(ValueError):
            composite.apply_to_counts(np.zeros((4, 1, 1)))
        with pytest.raises(ValueError):
            PerRequestErrorModels([None], sizes=[1, 2])


class TestHTTP:
    def test_registry_to_http_bit_identical(self, setup, tmp_path):
        """The acceptance path: save -> registry load -> serve -> HTTP
        round trip returns bit-identical logits under the ideal model."""
        qm, ds = setup
        registry = ModelRegistry(tmp_path)
        registry.save("tiny", qm, arch_model="MobileNet_V2")
        svc = SconnaService()
        svc.add_from_registry(registry, "tiny")
        server, _ = serve_http(svc)
        try:
            direct = qm.forward(
                ds.images[2][None], mode="sconna",
                error_model=SconnaErrorModel(adc_mape=0.0),
            )
            # in-process path
            in_proc = svc.predict("tiny", ds.images[2], ideal=True)
            assert np.array_equal(in_proc.logits, direct)
            # HTTP path (JSON round-trips float64 exactly)
            body = json.dumps({
                "model": "tiny", "image": ds.images[2].tolist(),
                "ideal": True, "top_k": 3, "cost": True,
            }).encode()
            req = urllib.request.Request(
                server.url + "/v1/predict", data=body,
                headers={"Content-Type": "application/json"},
            )
            resp = json.loads(urllib.request.urlopen(req, timeout=30).read())
            assert np.array_equal(np.asarray(resp["logits"]), direct)
            assert resp["cost"]["accelerator"] == "SCONNA"
            assert resp["cost"]["model"] == "MobileNet_V2"
            assert len(resp["top_k"][0]) == 3
            # side endpoints
            models = json.loads(
                urllib.request.urlopen(server.url + "/v1/models", timeout=30).read()
            )
            assert models == {"models": ["tiny"]}
            health = json.loads(
                urllib.request.urlopen(server.url + "/healthz", timeout=30).read()
            )
            assert health == {"status": "ok"}
            metrics = json.loads(
                urllib.request.urlopen(server.url + "/v1/metrics", timeout=30).read()
            )
            assert metrics["requests"] >= 2
        finally:
            server.shutdown()
            svc.close()

    def test_http_error_statuses(self, setup):
        qm, ds = setup
        svc = SconnaService()
        svc.add_model("tiny", qm)
        server, _ = serve_http(svc)
        try:
            def post(payload):
                req = urllib.request.Request(
                    server.url + "/v1/predict",
                    data=json.dumps(payload).encode(),
                    headers={"Content-Type": "application/json"},
                )
                return urllib.request.urlopen(req, timeout=30)

            with pytest.raises(urllib.error.HTTPError) as err:
                post({"model": "ghost", "image": ds.images[0].tolist()})
            assert err.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as err:
                post({"model": "tiny"})  # missing image
            assert err.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/nope", timeout=30)
            assert err.value.code == 404
        finally:
            server.shutdown()
            svc.close()

    def test_model_field_optional_with_single_model(self, setup):
        qm, ds = setup
        svc = SconnaService()
        svc.add_model("only", qm)
        server, _ = serve_http(svc)
        try:
            req = urllib.request.Request(
                server.url + "/v1/predict",
                data=json.dumps({"image": ds.images[0].tolist()}).encode(),
                headers={"Content-Type": "application/json"},
            )
            resp = json.loads(urllib.request.urlopen(req, timeout=30).read())
            assert resp["model"] == "only"
        finally:
            server.shutdown()
            svc.close()
