"""Whole-network fused execution plans (graph_plan.py).

The load-bearing contract: fused execution is bit-identical to the
per-layer oracle for every zoo proxy, every supported mode, and every
batch size - the fused path may only ever change wall time.  Also
locked here: the integer-native seams (an int8/uint8 batch never
materialises float64 between entry and logits), arena-slot reuse, and
the kernel rule each sconna stage's count kernel comes from, as the
plan records it in the model's ``autotune`` dict, and the
request-parallel split: a noisy per-request batch cut into chunks on
helper threads returns the unsplit forward's bits.
"""

import sys
import threading

import numpy as np
import pytest

from repro.cnn import graph_plan
from repro.cnn.engine import SconnaEngine, compile_layer_plan
from repro.cnn.inference import QuantizedModel
from repro.cnn.train import PROXY_MODELS, build_proxy
from repro.cnn.datasets import IMAGE_SHAPE
from repro.stochastic.error_models import PerRequestErrorModels, SconnaErrorModel
from repro.utils import native


@pytest.fixture(scope="module")
def calib():
    rng = np.random.default_rng(0)
    return rng.random((32, *IMAGE_SHAPE))


@pytest.fixture(scope="module")
def models(calib):
    return {
        name: QuantizedModel.from_trained(build_proxy(name), calib)
        for name in sorted(PROXY_MODELS)
    }


def _batch(n, seed=1):
    return np.random.default_rng(seed).random((n, *IMAGE_SHAPE))


class TestFusedEqualsReference:
    @pytest.mark.parametrize("name", sorted(PROXY_MODELS))
    @pytest.mark.parametrize("mode", ["int8", "sconna"])
    def test_bit_identical_ideal(self, models, name, mode):
        qm = models[name]
        x = _batch(3)
        em = SconnaErrorModel(adc_mape=0.0) if mode == "sconna" else None
        ref = qm.forward(x, mode=mode, error_model=em, fused=False)
        fus = qm.forward(x, mode=mode, error_model=em, fused=True)
        assert np.array_equal(ref, fus)

    @pytest.mark.parametrize("name", sorted(PROXY_MODELS))
    def test_bit_identical_seeded_noise(self, models, name):
        """The fused noisy path replays the reference's RNG stream:
        same engine calls, same order, same shapes."""
        qm = models[name]
        x = _batch(2, seed=2)
        ref = qm.forward(
            x, mode="sconna", error_model=SconnaErrorModel(seed=11),
            fused=False,
        )
        fus = qm.forward(
            x, mode="sconna", error_model=SconnaErrorModel(seed=11),
            fused=True,
        )
        assert np.array_equal(ref, fus)

    def test_default_error_model_matches(self, models):
        """forward() installs SconnaErrorModel(seed=0) on both paths."""
        qm = models["mnet_proxy"]
        x = _batch(2, seed=3)
        ref = qm.forward(x, mode="sconna", fused=False)
        fus = qm.forward(x, mode="sconna", fused=True)
        assert np.array_equal(ref, fus)

    @pytest.mark.parametrize("batch", [1, 4, 7])
    @pytest.mark.parametrize("mode", ["int8", "sconna"])
    def test_batch_sizes(self, models, batch, mode):
        qm = models["snet_proxy"]
        x = _batch(batch, seed=4)
        em = SconnaErrorModel(adc_mape=0.0) if mode == "sconna" else None
        ref = qm.forward(x, mode=mode, error_model=em, fused=False)
        fus = qm.forward(x, mode=mode, error_model=em, fused=True)
        assert np.array_equal(ref, fus)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.uint16])
    def test_integer_inputs_match_reference(self, models, dtype):
        """The LUT entry quantizes integer batches exactly like the
        reference's float64 max/div/rint/clip sequence."""
        qm = models["gnet_proxy"]
        info = np.iinfo(dtype)
        rng = np.random.default_rng(5)
        x = rng.integers(
            info.min, info.max + 1, size=(3, *IMAGE_SHAPE)
        ).astype(dtype)
        for mode in ("int8", "sconna"):
            em = SconnaErrorModel(adc_mape=0.0) if mode == "sconna" else None
            ref = qm.forward(x, mode=mode, error_model=em, fused=False)
            fus = qm.forward(x, mode=mode, error_model=em, fused=True)
            assert np.array_equal(ref, fus)

    def test_fused_true_raises_when_unsupported(self, models):
        qm = models["mnet_proxy"]
        with pytest.raises(ValueError, match="fused"):
            qm.forward(np.zeros(8), mode="int8", fused=True)


def requant_grid_dtypes(qm, mode, shape):
    """The dtypes of the compiled program's inter-layer requantize grids."""
    prog = qm.network_plan.program_for(mode, shape)
    return [s.requant[2].dtype for s in prog.stages if s.requant is not None]


def quantize_entry(profile):
    """The ``entry`` tag of a profiled forward's ``quantize`` span."""
    (span,) = [tags for name, _, _, tags in profile if name == "quantize"]
    return span["entry"]


class TestIntegerSeams:
    """The int8 socket-to-logits acceptance gate: no float64 tensor at
    the entry, inter-layer, or exit seams for integer requests."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8])
    def test_no_float64_between_entry_and_logits(self, models, dtype):
        qm = models["mnet_proxy"]
        x = (np.random.default_rng(6).random((2, *IMAGE_SHAPE)) * 120).astype(
            dtype
        )
        profile = []
        out = qm.forward(x, mode="int8", fused=True, profile=profile)
        assert quantize_entry(profile) == "lut"
        grids = requant_grid_dtypes(qm, "int8", x.shape)
        assert grids, "expected inter-layer requantize grids"
        assert all(d.kind == "u" for d in grids)
        assert out.dtype == np.float64

    def test_float_input_uses_float_workspace_entry(self, models):
        qm = models["mnet_proxy"]
        profile = []
        qm.forward(_batch(2, seed=7), mode="int8", fused=True, profile=profile)
        assert quantize_entry(profile) == "float"


class TestBufferLifetimes:
    def test_arena_slots_are_reused(self, models):
        """Liveness analysis must map more logical buffers than slots."""
        qm = models["rnet_proxy"]
        qm.forward(_batch(2, seed=8), mode="sconna",
                   error_model=SconnaErrorModel(adc_mape=0.0), fused=True)
        prog = qm.network_plan.program_for("sconna", (2, *IMAGE_SHAPE))
        assert prog is not None
        assert prog.n_slots < prog.n_buffers
        assert prog.arena_bytes > 0

    def test_programs_cached_per_shape(self, models):
        qm = models["mnet_proxy"]
        p1 = qm.network_plan.program_for("int8", (2, *IMAGE_SHAPE))
        p2 = qm.network_plan.program_for("int8", (2, *IMAGE_SHAPE))
        assert p1 is p2
        p3 = qm.network_plan.program_for("int8", (3, *IMAGE_SHAPE))
        assert p3 is not p1


def _rule_plan(b=8):
    w = np.random.default_rng(13).integers(-256, 257, size=(4, 30))
    return compile_layer_plan(w, b, 16)


class TestKernelRule:
    def test_cols_at_p8_split_below_numpy_without_native(self):
        """One rule picks each stage's remainder kernel: ``cols`` at
        P >= 8, ``split`` at P < 8, ``numpy`` without the native kernel
        or its uint8 layout."""
        plan = _rule_plan()
        eng = SconnaEngine()
        picks = [eng.remainder_kernel(plan, p) for p in (1, 7, 8, 64)]
        if native.native_available():
            assert picks == ["split", "split", "cols", "cols"]
        else:
            assert picks == ["numpy"] * 4
        assert SconnaEngine(use_native=False).remainder_kernel(plan, 64) == "numpy"
        # B > 8 is outside the native kernels' multiply-high identity
        assert eng.remainder_kernel(_rule_plan(b=12), 64) == "numpy"

    def test_native_sconna_forward_makes_no_blas_call(self, models,
                                                      monkeypatch):
        """With the native library a fused sconna forward, noisy or
        ideal, never calls ``np.matmul``, so BLAS threading cannot reach
        it; an int8 forward still does."""
        if not native.native_available():
            pytest.skip("no native kernel in this environment")
        calls = []
        blas = np.matmul

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return blas(*args, **kwargs)

        # the module attribute engine.py and graph_plan.py resolve
        monkeypatch.setattr(np, "matmul", spy)
        x = _batch(4, seed=30)
        for qm in models.values():
            for em in (
                PerRequestErrorModels([SconnaErrorModel(seed=s) for s in range(4)]),
                SconnaErrorModel(seed=3),
                SconnaErrorModel(adc_mape=0.0),
            ):
                qm.forward(x, mode="sconna", error_model=em, fused=True)
        assert calls == []
        models["snet_proxy"].forward(x, mode="int8", fused=True)
        assert calls


class TestAutotune:
    """``QuantizedModel.autotune`` is a record, not a tuner: the fused
    plan fills it with each sconna stage's pick from the kernel rule and
    times nothing."""

    def test_choices_recorded_with_shapes(self, calib):
        qm = QuantizedModel.from_trained(build_proxy("snet_proxy"), calib)
        qm.forward(_batch(2, seed=9), mode="sconna",
                   error_model=SconnaErrorModel(adc_mape=0.0), fused=True)
        assert qm.autotune, "the fused plan records each stage's pick"
        eng, plan = SconnaEngine(), _rule_plan()
        for key, pick in qm.autotune.items():
            assert key.endswith(":sconna")
            assert pick["q"] > 0 and pick["p"] > 0
            assert pick["remainder"] == eng.remainder_kernel(plan, pick["p"])
        kinds = {pick["remainder"] for pick in qm.autotune.values()}
        if native.native_available():
            assert kinds == {"cols", "split"}  # conv stages and the FC

    def test_autotune_off_pins_defaults(self, calib):
        """A NumPy-only engine pins every stage to ``numpy``, and the
        fused logits still equal the oracle's."""
        qm = QuantizedModel.from_trained(build_proxy("snet_proxy"), calib)
        qm._engine = SconnaEngine(use_native=False)
        x = _batch(2, seed=10)
        fus = qm.forward(x, mode="sconna", error_model=SconnaErrorModel(seed=4),
                         fused=True)
        assert {p["remainder"] for p in qm.autotune.values()} == {"numpy"}
        ref = qm.forward(x, mode="sconna", error_model=SconnaErrorModel(seed=4),
                         fused=False)
        assert np.array_equal(ref, fus)


def _requests(seeds, sizes):
    """Per-request error models: an int seed is a noisy request, None an
    ideal-datapath one, ``"ideal"`` an ideal-ADC model."""
    models = [
        None if s is None
        else SconnaErrorModel(adc_mape=0.0) if s == "ideal"
        else SconnaErrorModel(seed=s)
        for s in seeds
    ]
    return PerRequestErrorModels(models, sizes)


#: mixed ideal/noisy requests with multi-image stacks; 32 images
MIXED = ((3, None, "ideal", 17, 5, None, 23), (3, 1, 4, 8, 2, 6, 8))


@pytest.fixture
def submits(monkeypatch):
    """The image count of each chunk the core budget sends to a
    helper thread."""
    calls = []
    real = graph_plan.CORE_BUDGET.submit

    def spy(fn, *args):
        calls.append(args[0].shape[0])
        return real(fn, *args)

    monkeypatch.setattr(graph_plan.CORE_BUDGET, "submit", spy)
    return calls


def _cut_at(monkeypatch, *edges):
    """Force the split path to cut at ``edges`` (with enough cores)."""
    monkeypatch.setattr(graph_plan.CORE_BUDGET, "cores", len(edges) + 1)
    monkeypatch.setattr(
        graph_plan, "_chunk_bounds",
        lambda n, cuts, held: list(zip((0, *edges), (*edges, n))),
    )


class TestRequestParallel:
    """A noisy per-request batch runs as chunks on helper threads, cut
    between requests; the concatenated logits must be the unsplit
    forward's and the oracle's, bit for bit.  Every other batch runs
    whole."""

    @pytest.fixture(scope="class")
    def references(self, models):
        x = _batch(32, seed=20)
        out = {}
        for name, qm in models.items():
            out[name, "noisy"] = qm.forward(
                x, mode="sconna", error_model=_requests(range(1, 33), None),
                fused=False,
            )
            out[name, "int8"] = qm.forward(x, mode="int8", fused=False)
            out[name, "ideal"] = qm.forward(
                x, mode="sconna", error_model=SconnaErrorModel(adc_mape=0.0),
                fused=False,
            )
        return x, out

    @pytest.mark.parametrize("cut", [1, 7, 13, 31])
    def test_request_boundary_cuts(self, models, references, monkeypatch,
                                   submits, cut):
        x, oracle = references
        monkeypatch.setattr(graph_plan.CORE_BUDGET, "cores", 1)
        unsplit = {
            name: qm.forward(x, mode="sconna",
                             error_model=_requests(range(1, 33), None))
            for name, qm in models.items()
        }
        _cut_at(monkeypatch, cut)
        for name, qm in models.items():
            split = qm.forward(x, mode="sconna",
                               error_model=_requests(range(1, 33), None))
            assert split.tobytes() == unsplit[name].tobytes()
            assert split.tobytes() == oracle[name, "noisy"].tobytes()
        assert submits == [32 - cut] * len(models)
        assert graph_plan.CORE_BUDGET.held == 0

    @pytest.mark.parametrize("path", ["int8", "ideal"])
    def test_int8_and_ideal_run_whole(self, models, references, monkeypatch,
                                      submits, path):
        """No benchmark times these paths on more than one core, so they
        never split, even where the cut points are forced."""
        x, oracle = references
        mode = "int8" if path == "int8" else "sconna"
        ideal = [SconnaErrorModel(adc_mape=0.0),
                 _requests([None, "ideal"] * 16, None)]
        _cut_at(monkeypatch, 1, 7, 13, 31)
        for name, qm in models.items():
            for em in ([None] if path == "int8" else ideal):
                got = qm.forward(x, mode=mode, error_model=em)
                assert got.tobytes() == oracle[name, path].tobytes()
        assert submits == []
        assert graph_plan.CORE_BUDGET.held == 0

    @pytest.mark.parametrize("name", ["mnet_proxy", "snet_proxy"])
    def test_per_request_boundaries(self, models, monkeypatch, submits, name):
        qm = models[name]
        x = _batch(32, seed=21)
        oracle = qm.forward(x, mode="sconna", error_model=_requests(*MIXED),
                            fused=False)
        monkeypatch.setattr(graph_plan.CORE_BUDGET, "cores", 1)
        unsplit = qm.forward(x, mode="sconna", error_model=_requests(*MIXED))
        assert unsplit.tobytes() == oracle.tobytes()
        for edges in ((3,), (4,), (16, 18), (3, 4, 8, 16, 18, 24)):
            _cut_at(monkeypatch, *edges)
            got = qm.forward(x, mode="sconna", error_model=_requests(*MIXED))
            assert got.tobytes() == oracle.tobytes(), edges
        # the balanced split picks request boundaries on its own
        monkeypatch.undo()
        monkeypatch.setattr(graph_plan.CORE_BUDGET, "cores", 3)
        got = qm.forward(x, mode="sconna", error_model=_requests(*MIXED))
        assert got.tobytes() == oracle.tobytes()
        assert graph_plan.CORE_BUDGET.held == 0

    def test_balanced_bounds(self):
        assert graph_plan._chunk_bounds(32, range(1, 32), 2) == [(0, 16), (16, 32)]
        assert graph_plan._chunk_bounds(7, range(1, 7), 3) == [(0, 2), (2, 5), (5, 7)]
        cuts = [3, 4, 8, 16, 18, 24]
        assert graph_plan._chunk_bounds(32, cuts, 2) == [(0, 16), (16, 32)]
        assert graph_plan._chunk_bounds(32, cuts, 3) == [(0, 8), (8, 24), (24, 32)]
        # too few cut points: fewer, never empty, chunks
        assert graph_plan._chunk_bounds(32, [1, 2], 4) == [(0, 2), (2, 32)]
        assert graph_plan._chunk_bounds(32, [], 2) == [(0, 32)]

    def test_cores_no_chunk_uses_go_back(self, models, monkeypatch):
        """Requests of 1, 1 and 30 images take three cores but cut into
        two chunks; the third core is free again before they run."""
        held = []
        real = graph_plan.CORE_BUDGET.submit

        def spy(fn, *args):
            held.append(graph_plan.CORE_BUDGET.held)
            return real(fn, *args)

        monkeypatch.setattr(graph_plan.CORE_BUDGET, "submit", spy)
        monkeypatch.setattr(graph_plan.CORE_BUDGET, "cores", 4)
        qm = models["snet_proxy"]
        x = _batch(32, seed=27)
        em = _requests([1, 2, 3], [1, 1, 30])
        got = qm.forward(x, mode="sconna", error_model=em)
        assert held == [2]
        assert graph_plan.CORE_BUDGET.held == 0
        oracle = qm.forward(x, mode="sconna", fused=False,
                            error_model=_requests([1, 2, 3], [1, 1, 30]))
        assert got.tobytes() == oracle.tobytes()

    def test_never_splits_other_batches(self, models, monkeypatch, submits):
        qm = models["snet_proxy"]
        x = _batch(8, seed=22)
        monkeypatch.setattr(graph_plan.CORE_BUDGET, "cores", 1)
        qm.forward(x, mode="sconna", error_model=_requests(range(1, 9), None))
        assert submits == [], "a 1-core budget never splits"
        monkeypatch.setattr(graph_plan.CORE_BUDGET, "cores", 4)
        # one noisy model: one RNG stream spans the batch
        qm.forward(x, mode="sconna", error_model=SconnaErrorModel(seed=1))
        # one request of 8 images, and two requests sharing a generator
        qm.forward(x, mode="sconna", error_model=_requests([1], [8]))
        shared = SconnaErrorModel(seed=2)
        qm.forward(x, mode="sconna",
                   error_model=PerRequestErrorModels([shared, shared], [4, 4]))
        # int8 ignores an error model, noisy or not
        plain = qm.forward(x, mode="int8")
        with_noise = qm.forward(x, mode="int8",
                                error_model=_requests([1, 2, 3], [3, 1, 4]))
        assert with_noise.tobytes() == plain.tobytes()
        assert submits == []
        qm.forward(x, mode="sconna", error_model=_requests(range(1, 9), None))
        assert submits == [2, 2, 2]
        assert graph_plan.CORE_BUDGET.held == 0

    def test_mismatched_requests_raise_before_any_split(self, models,
                                                        monkeypatch, submits):
        monkeypatch.setattr(graph_plan.CORE_BUDGET, "cores", 4)
        with pytest.raises(ValueError, match="does not match"):
            models["snet_proxy"].forward(
                _batch(8, seed=23), mode="sconna",
                error_model=_requests(range(1, 8), None),
            )
        assert submits == []
        assert graph_plan.CORE_BUDGET.held == 0

    def test_helper_exception_reaches_caller(self, models, monkeypatch,
                                             submits):
        """The second request's skirt leakage needs slot statistics the
        engine does not have: its chunk, on a helper thread, raises."""
        models_ = [SconnaErrorModel(seed=1),
                   SconnaErrorModel(seed=2, skirt_leakage=0.02)]
        _cut_at(monkeypatch, 1)
        with pytest.raises(ValueError, match="skirt_slots"):
            models["snet_proxy"].forward(
                _batch(2, seed=24), mode="sconna",
                error_model=PerRequestErrorModels(models_),
            )
        assert submits == [1]
        assert graph_plan.CORE_BUDGET.held == 0

    def test_profile_spans_carry_stage_and_chunk(self, models, monkeypatch):
        qm = models["snet_proxy"]
        n_stages = len(qm.network_plan.stages)
        _cut_at(monkeypatch, 3)
        profile = []
        qm.forward(_batch(8, seed=25), mode="sconna",
                   error_model=_requests(range(1, 9), None), profile=profile)
        engine = [s for s in profile if s[0].startswith("engine.")]
        noise = [s for s in engine if s[0] == "engine.noise"]
        matmul = [s for s in engine if s[0] == "engine.matmul"]
        assert noise and len(noise) == len(matmul), "one draw per psum group"
        assert all(0 <= s[3]["stage"] < n_stages for s in engine)
        assert {s[3]["stage"] for s in noise} == set(range(n_stages))
        chunks = {s[3].get("chunk") for s in profile}
        assert chunks == {None, 1}, "helper spans are tagged, the caller's not"
        assert len([s for s in noise if "chunk" in s[3]]) * 2 == len(noise)

    def test_concurrent_forwards_stress(self, models, monkeypatch):
        """Four threads share one model and a 4-core budget under a
        tiny switch interval: every forward returns the serial bits and
        the budget drains back to 0."""
        qm = models["mnet_proxy"]
        x = _batch(12, seed=26)
        monkeypatch.setattr(graph_plan.CORE_BUDGET, "cores", 1)
        want = [
            qm.forward(x, mode="sconna", error_model=_requests(
                range(100 * t, 100 * t + 12), None))
            for t in range(4)
        ]
        monkeypatch.setattr(graph_plan.CORE_BUDGET, "cores", 4)
        bad = []

        def worker(t):
            for _ in range(6):
                got = qm.forward(x, mode="sconna", error_model=_requests(
                    range(100 * t, 100 * t + 12), None))
                if got.tobytes() != want[t].tobytes():
                    bad.append(t)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(t,))
                       for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(th.is_alive() for th in threads)
        assert bad == []
        assert graph_plan.CORE_BUDGET.held == 0
