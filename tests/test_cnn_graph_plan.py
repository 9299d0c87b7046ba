"""Whole-network fused execution plans (graph_plan.py).

The load-bearing contract: fused execution is bit-identical to the
per-layer oracle for every zoo proxy, every supported mode, and every
batch size - the fused path may only ever change wall time.  Also
locked here: the integer-native seams (an int8/uint8 batch never
materialises float64 between entry and logits), arena-slot reuse, and
the kernel rule each sconna stage's remainder kernel comes from, as the
plan records it in the model's ``autotune`` dict.
"""

import numpy as np
import pytest

from repro.cnn.engine import SconnaEngine, compile_layer_plan
from repro.cnn.inference import QuantizedModel
from repro.cnn.train import PROXY_MODELS, build_proxy
from repro.cnn.datasets import IMAGE_SHAPE
from repro.stochastic.error_models import SconnaErrorModel
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


class TestIntegerSeams:
    """The int8 socket-to-logits acceptance gate: no float64 tensor at
    the entry, inter-layer, or exit seams for integer requests."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8])
    def test_no_float64_between_entry_and_logits(self, models, dtype):
        qm = models["mnet_proxy"]
        x = (np.random.default_rng(6).random((2, *IMAGE_SHAPE)) * 120).astype(
            dtype
        )
        trace = []
        out = qm.forward(x, mode="int8", fused=True, trace=trace)
        entry = trace[0]
        assert entry == ("entry", f"lut:{np.dtype(dtype).name}")
        grids = [t for t in trace if t[0] == "grid"]
        assert grids, "expected inter-layer grid checkpoints"
        assert all(np.dtype(d).kind == "u" for _, d in grids)
        assert trace[-1] == ("logits", "float64")
        assert out.dtype == np.float64

    def test_float_input_uses_float_workspace_entry(self, models):
        qm = models["mnet_proxy"]
        trace = []
        qm.forward(_batch(2, seed=7), mode="int8", fused=True, trace=trace)
        assert trace[0] == ("entry", "float64-ws")


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
        # B > 8 needs the uint16 low-bits layout, which has no C kernel
        assert eng.remainder_kernel(_rule_plan(b=12), 64) == "numpy"


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
