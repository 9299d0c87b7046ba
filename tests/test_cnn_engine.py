"""Tests for the vectorized count-domain engine and its satellites.

The load-bearing property: the vectorized ``sconna`` path (native C
kernel *and* pure-NumPy fallback) is bit-exact against the seed
per-output-channel implementation (kept as
``sconna_matmul_reference``) for every group size, precision and weight
sign pattern - the floor-decomposition identity is exact, not
approximate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnn.engine import (
    SconnaEngine,
    compile_layer_plan,
    psum_group_size,
    sconna_matmul_reference,
    vector_path_supported,
)
from repro.cnn.functional import im2col
from repro.cnn.inference import QuantLayer, QuantizedModel
from repro.cnn.micro import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.cnn.datasets import N_CLASSES, generate_dataset
from repro.core.config import SconnaConfig
from repro.core.vdpe import SconnaVDPE
from repro.stochastic.arithmetic import sc_vdp, sc_vdp_batch
from repro.stochastic.error_models import PerRequestErrorModels, SconnaErrorModel
from repro.stochastic.lut import OsmLookupTable
from repro.utils import native


@pytest.fixture(scope="module")
def engines():
    return SconnaEngine(use_native=True), SconnaEngine(use_native=False)


#: each remainder kernel -> (use_native, output pixels P) the rule sends
#: to it
KERNEL_CASES = {"cols": (True, 12), "split": (True, 5), "numpy": (False, 12)}


def available_kernels() -> "list[str]":
    """The remainder kernels this environment can run."""
    if native.native_available():
        return list(KERNEL_CASES)
    return [k for k, (use_native, _) in KERNEL_CASES.items() if not use_native]


def kernel_engine(kind: str) -> "tuple[SconnaEngine, int]":
    """An engine whose rule picks ``kind``, and the P that picks it
    (skips the native kernels where they cannot build)."""
    if kind not in available_kernels():
        pytest.skip("no native kernel in this environment")
    use_native, p = KERNEL_CASES[kind]
    return SconnaEngine(use_native=use_native), p


def exact_counts(cols, w, b, contraction):
    """Ideal signed counts ``sum_q sign(w) * floor(i * |w| / 2**B)``,
    computed without the engine or the oracle, by one of two contractions:

    * ``blas``: the floor-decomposition identity - a float64 BLAS
      ``np.matmul`` of the signed weights, less the signed
      ``(i * |w|) mod 2**B`` remainders, over ``2**B`` (every term is an
      integer below 2**53, so float64 is exact);
    * ``einsum``: each product floored first, then contracted by
      ``np.einsum``.
    """
    prods = cols[:, None, :, :] * np.abs(w)[None, :, :, None]  # (B, L, Q, P)
    sign = np.sign(w)
    if contraction == "blas":
        s = np.matmul(w.astype(np.float64)[None], cols.astype(np.float64))
        rem = ((prods & ((1 << b) - 1)) * sign[None, :, :, None]).sum(axis=2)
        return (s - rem) / (1 << b)
    return np.einsum("blqp,lq->blp", prods >> b, sign)


class TestBitExactEquivalence:
    @given(
        b=st.sampled_from([4, 8, 12]),  # 12 exercises the uint16 low-bits path
        seed=st.integers(min_value=0, max_value=2**31),
        group=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_any_group(self, engines, b, seed, group):
        """Odd groups, q not divisible by group, zero/negative weights."""
        rng = np.random.default_rng(seed)
        batch = int(rng.integers(1, 4))
        l = int(rng.integers(1, 9))
        q = int(rng.integers(1, 97))
        p = int(rng.integers(1, 20))
        length = 1 << b
        cols = rng.integers(0, length + 1, size=(batch, q, p)).astype(np.int64)
        w = rng.integers(-length, length + 1, size=(l, q)).astype(np.int64)
        w[rng.random(w.shape) < 0.2] = 0  # force zero weights
        ref = sconna_matmul_reference(cols, w, b, group)
        plan = compile_layer_plan(w, b, group)
        for eng in engines:
            assert np.array_equal(ref, eng.matmul(plan, cols))

    def test_extreme_operands(self, engines):
        """Saturated activations/weights (value 2**B) hit the wraparound."""
        b = 8
        cols = np.full((2, 7, 3), 256, dtype=np.int64)
        w = np.array([[256, -256, 0, 255, -255, 1, 256]] * 3, dtype=np.int64)
        ref = sconna_matmul_reference(cols, w, b, 5)
        plan = compile_layer_plan(w, b, 5)
        for eng in engines:
            assert np.array_equal(ref, eng.matmul(plan, cols))

    def test_matches_vdpe_exact_reference(self, engines):
        """Summed engine counts equal the VDPE's golden scalar reference."""
        rng = np.random.default_rng(3)
        for b in (4, 8):
            length = 1 << b
            q = 131  # not divisible by any nice group
            i_vec = rng.integers(0, length + 1, size=q)
            w_vec = rng.integers(-length, length + 1, size=q)
            exact = SconnaVDPE.exact_reference(i_vec, w_vec, b)
            cols = i_vec.astype(np.int64)[None, :, None]
            plan = compile_layer_plan(w_vec[None, :], b, 17)
            for eng in engines:
                out = eng.matmul(plan, cols)
                assert int(out[0, 0, 0]) == exact

    def test_noisy_path_is_reproducible(self, engines):
        rng = np.random.default_rng(5)
        cols = rng.integers(0, 257, size=(2, 50, 6)).astype(np.int64)
        w = rng.integers(-256, 257, size=(4, 50)).astype(np.int64)
        plan = compile_layer_plan(w, 8, 16)
        eng = engines[0]
        a = eng.matmul(plan, cols, SconnaErrorModel(seed=7))
        c = eng.matmul(plan, cols, SconnaErrorModel(seed=7))
        assert np.array_equal(a, c)
        # and the noise actually perturbs relative to the ideal path
        ideal = eng.matmul(plan, cols)
        assert not np.array_equal(a, ideal)

    def test_unsupported_configs_rejected(self):
        assert not vector_path_supported(17, 4)
        assert not vector_path_supported(8, 2**26)
        assert vector_path_supported(8, 704)
        with pytest.raises(ValueError):
            compile_layer_plan(np.zeros((2, 4), dtype=np.int64), 17, 4)

    @pytest.mark.parametrize("p", [5, 12])
    def test_seeded_noise_matches_reference(self, engines, p):
        """The oracle draws ADC noise in the engine's order - once per
        psum group over the stacked [pos; neg] counts - so seeded noisy
        counts agree bit for bit, per request too."""
        rng = np.random.default_rng(15)
        cols = rng.integers(0, 257, size=(4, 50, p)).astype(np.int64)
        w = rng.integers(-256, 257, size=(6, 50)).astype(np.int64)
        w[rng.random(w.shape) < 0.2] = 0
        plan = compile_layer_plan(w, 8, 16)

        def error_models():
            yield SconnaErrorModel(seed=7)
            yield PerRequestErrorModels(
                [SconnaErrorModel(seed=s) for s in (1, 2, 3)], sizes=[1, 2, 1]
            )

        for eng in engines:
            for ref_em, eng_em in zip(error_models(), error_models()):
                ref = sconna_matmul_reference(cols, w, 8, 16, ref_em)
                assert np.array_equal(ref, eng.matmul(plan, cols, eng_em))
        ideal = sconna_matmul_reference(cols, w, 8, 16)
        assert not np.array_equal(ideal, ref), "noise must perturb"

    def test_skirt_leakage_raises_on_in_place_noise(self, engines):
        """The engine has no per-VDP slot statistics, so a leaky model
        must fail loudly on the in-place draw, alone or per request."""
        rng = np.random.default_rng(16)
        cols = rng.integers(0, 257, size=(2, 20, 3)).astype(np.int64)
        plan = compile_layer_plan(
            rng.integers(-256, 257, size=(3, 20)).astype(np.int64), 8, 16
        )
        leaky = SconnaErrorModel(seed=1, skirt_leakage=0.02)
        for em in (leaky, PerRequestErrorModels([SconnaErrorModel(seed=2), leaky])):
            with pytest.raises(ValueError, match="skirt_slots"):
                engines[0].matmul(plan, cols, em)

    def test_reference_rejects_q_mismatch(self):
        """Like SconnaEngine.matmul: a wrong-geometry request must fail,
        not return counts."""
        cols = np.zeros((1, 9, 2), dtype=np.int64)
        w = np.zeros((2, 8), dtype=np.int64)
        with pytest.raises(ValueError, match="Q=9"):
            sconna_matmul_reference(cols, w, 8, 4)

    def test_model_routes_through_engine_and_falls_back(self):
        """In the engine's envelope the fused plan runs; outside it (B=18
        has no exact vectorized form) forward() falls back to the oracle."""
        from repro.cnn.quantize import QuantParams

        rng = np.random.default_rng(11)

        def linear_model(bits, w):
            params = QuantParams(scale=1.0, levels=1 << bits, signed=True)
            layer = QuantLayer(
                kind="linear", weight_q=w, weight_params=params,
                act_params=params, float_layer=None,
            )
            return QuantizedModel([layer], precision_bits=bits), layer

        # in-envelope: plan compiled, fused forward == oracle
        w = rng.integers(-256, 257, size=(6, 300)).astype(np.int64)
        qm, layer = linear_model(8, w)
        x = rng.integers(0, 257, size=(2, 300)).astype(np.float64)
        assert layer.plan is not None
        assert np.array_equal(
            qm.forward(x, "sconna", SconnaErrorModel(seed=3), fused=True),
            qm.forward(x, "sconna", SconnaErrorModel(seed=3), fused=False),
        )

        # outside the envelope (B=18): no plan, no fused program
        length = 1 << 18
        w18 = rng.integers(-length, length + 1, size=(2, 9)).astype(np.int64)
        qm18, layer18 = linear_model(18, w18)
        x18 = rng.integers(0, length + 1, size=(1, 9)).astype(np.float64)
        ideal = SconnaErrorModel(adc_mape=0.0)
        assert layer18.plan is None
        with pytest.raises(ValueError, match="fused"):
            qm18.forward(x18, "sconna", ideal, fused=True)
        counts = sconna_matmul_reference(
            x18.astype(np.int64)[:, :, None], w18, 18,
            psum_group_size(qm18.config),
        )
        assert np.array_equal(
            qm18.forward(x18, "sconna", ideal), counts[:, :, 0] * (1 << 18)
        )


class TestLayerPlans:
    def test_plans_prebuilt_at_quantization_time(self):
        rng_model = Sequential(
            Conv2d(3, 4, 3, padding=1), ReLU(), MaxPool2d(4),
            Flatten(), Linear(4 * 6 * 6, N_CLASSES),
        )
        ds = generate_dataset(2, seed=0)
        qm = QuantizedModel.from_trained(rng_model, ds.images[:8])
        quant_layers = [s for s in qm.structure if isinstance(s, QuantLayer)]
        assert quant_layers and all(ql.plan is not None for ql in quant_layers)
        group = psum_group_size(qm.config)
        assert all(ql.plan.group == group for ql in quant_layers)

    def test_plan_recompiled_when_config_changes(self):
        rng = np.random.default_rng(0)
        w = rng.integers(-256, 257, size=(3, 20)).astype(np.int64)
        plan = compile_layer_plan(w, 8, 10)
        assert plan.n_out == 3 and plan.n_in == 20
        assert len(plan.group_slices) == 2
        assert plan.w_stacked.shape == (6, 20)
        # sign split: pos rows hold positive magnitudes only
        assert (plan.w_stacked[:3][w <= 0] == 0).all()
        assert (plan.w_stacked[3:][w >= 0] == 0).all()


class TestBiasedConvRegression:
    """Satellite: conv bias must survive quantization in every mode."""

    @pytest.fixture(scope="class")
    def biased_setup(self):
        rng = np.random.default_rng(9)
        conv = Conv2d(3, 5, 3, padding=1, rng=rng, bias=True)
        conv.bias[:] = rng.normal(0.0, 0.5, size=5)
        model = Sequential(
            conv, ReLU(), MaxPool2d(4), Flatten(),
            Linear(5 * 6 * 6, N_CLASSES, rng=rng),
        )
        ds = generate_dataset(3, seed=1)
        qm = QuantizedModel.from_trained(model, ds.images[:16])
        return model, ds, qm

    def test_float_and_int8_agree_with_bias(self, biased_setup):
        model, ds, qm = biased_setup
        x = ds.images[:6]
        f = qm.forward(x, mode="float")
        q = qm.forward(x, mode="int8")
        assert np.allclose(f, model.forward(x.astype(np.float64)))
        assert np.abs(f - q).max() < 0.25 * np.abs(f).max() + 0.1

    def test_quantized_conv_actually_applies_bias(self, biased_setup):
        """int8/sconna outputs shift by exactly the bias vector."""
        _, ds, qm = biased_setup
        x = ds.images[:4]
        layer = next(s for s in qm.structure if isinstance(s, QuantLayer))
        assert layer.kind == "conv" and layer.bias is not None
        saved = layer.bias
        for mode in ("int8", "sconna"):
            em = SconnaErrorModel(adc_mape=0.0) if mode == "sconna" else None
            with_bias = qm._run_quant_layer(layer, x.astype(np.float64), mode, em)
            layer.bias = None
            without = qm._run_quant_layer(layer, x.astype(np.float64), mode, em)
            layer.bias = saved
            delta = with_bias - without
            expected = np.broadcast_to(saved.reshape(1, -1, 1, 1), delta.shape)
            assert np.allclose(delta, expected)

    def test_conv_bias_trains(self):
        conv = Conv2d(1, 2, 3, bias=True)
        x = np.ones((2, 1, 5, 5))
        out = conv.forward(x)
        conv.backward(np.ones_like(out))
        assert conv.grad_bias.shape == (2,)
        assert np.all(conv.grad_bias == 2 * 3 * 3)  # batch * out_h * out_w
        assert len(conv.parameters()) == 2


class TestLutArrayApi:
    def test_matches_scalar_fetch(self):
        lut = OsmLookupTable(4)
        rng = np.random.default_rng(2)
        i_arr = rng.integers(0, 16, size=40)
        w_arr = rng.integers(0, 16, size=40)
        batch = lut.fetch_product_counts(i_arr, w_arr)
        scalar = [lut.fetch_product_count(int(i), int(w)) for i, w in zip(i_arr, w_arr)]
        assert batch.tolist() == scalar

    def test_counts_are_floor_products(self):
        lut = OsmLookupTable(8)
        rng = np.random.default_rng(4)
        i_arr = rng.integers(0, 256, size=(3, 17))
        w_arr = rng.integers(0, 256, size=(3, 17))
        out = lut.fetch_product_counts(i_arr, w_arr)
        assert np.array_equal(out, (i_arr * w_arr) >> 8)

    def test_osm_batch_wrapper_matches_lut(self):
        from repro.core.osm import OpticalStochasticMultiplier

        osm = OpticalStochasticMultiplier()
        rng = np.random.default_rng(14)
        i_arr = rng.integers(0, 256, size=25)
        w_arr = rng.integers(0, 256, size=25)
        assert np.array_equal(
            osm.multiply_streams_batch(i_arr, w_arr),
            osm.lut.fetch_product_counts(i_arr, w_arr),
        )

    def test_broadcasting_and_validation(self):
        lut = OsmLookupTable(4)
        out = lut.fetch_product_counts(np.arange(16), 15)
        assert out.shape == (16,)
        with pytest.raises(ValueError):
            lut.fetch_product_counts(np.array([16]), np.array([0]))
        with pytest.raises(ValueError):
            lut.fetch_product_counts(np.array([0]), np.array([-1]))

    def test_engine_counts_match_bit_true_lut_accumulation(self, engines):
        """The vectorized engine equals physically ANDing LUT streams.

        Cross-checks the closed-form floor decomposition against the
        bit-true OSM path: sign-steered sums of per-product AND
        popcounts fetched through the array API.
        """
        b = 4
        lut = OsmLookupTable(b)
        rng = np.random.default_rng(13)
        q, l, p = 23, 3, 5
        cols = rng.integers(0, 1 << b, size=(2, q, p)).astype(np.int64)
        w = rng.integers(-(1 << b) + 1, 1 << b, size=(l, q)).astype(np.int64)
        counts = lut.fetch_product_counts(
            cols[:, None, :, :], np.abs(w)[None, :, :, None]
        )
        expected = (np.sign(w)[None, :, :, None] * counts).sum(axis=2)
        plan = compile_layer_plan(w, b, group=7)
        for eng in engines:
            assert np.array_equal(eng.matmul(plan, cols), expected)


class TestBatchedVdp:
    def test_batch_matches_scalar_loop(self):
        rng = np.random.default_rng(8)
        i_mat = rng.integers(0, 257, size=(9, 33))
        w_mat = rng.integers(-256, 257, size=(9, 33))
        pos, neg = sc_vdp_batch(i_mat, w_mat, 8)
        for row in range(9):
            assert (int(pos[row]), int(neg[row])) == sc_vdp(i_mat[row], w_mat[row], 8)

    def test_vdpe_compute_vdp_unchanged(self):
        """The batched piece computation preserves the functional contract."""
        rng = np.random.default_rng(12)
        i = rng.integers(0, 257, size=450)  # 450 = 2*176 + 98: ragged tail
        w = rng.integers(-256, 257, size=450)
        vdpe = SconnaVDPE(seed=0)
        res = vdpe.compute_vdp(i, w, apply_adc_error=False)
        assert res.signed_count == SconnaVDPE.exact_reference(i, w, 8)
        assert res.optical_passes == 3


class TestIm2colBufferReuse:
    def test_out_buffer_matches_fresh_allocation(self):
        rng = np.random.default_rng(6)
        x = rng.integers(0, 100, size=(2, 3, 9, 9)).astype(np.int64)
        fresh = im2col(x, 3, stride=2, padding=1)
        buf = np.empty(fresh.shape, dtype=np.int64)
        out = im2col(x, 3, stride=2, padding=1, out=buf)
        assert out is buf
        assert np.array_equal(fresh, buf)

    def test_out_buffer_fuses_dtype_cast(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 100, size=(1, 2, 6, 6)).astype(np.int64)
        fresh = im2col(x, 2)
        buf = np.empty(fresh.shape, dtype=np.float64)
        im2col(x, 2, out=buf)
        assert np.array_equal(fresh.astype(np.float64), buf)

    def test_bad_out_shape_rejected(self):
        x = np.zeros((1, 1, 4, 4))
        with pytest.raises(ValueError):
            im2col(x, 2, out=np.empty((1, 4, 4)))


class TestNativeKernel:
    def test_fallback_matches_native_when_available(self):
        """The split (row layout) and cols (column layout) C kernels
        against an int64 ground truth over a sub-range of Q."""
        if not native.native_available():
            pytest.skip("no native kernel in this environment")
        rng = np.random.default_rng(10)
        a_rows = np.ascontiguousarray(
            rng.integers(0, 256, size=(2, 5, 40)).astype(np.uint8)
        )
        w = rng.integers(-256, 257, size=(3, 40)).astype(np.int64)
        plan = compile_layer_plan(w, 8, 40)
        expect = (
            (a_rows[:, None, :, 8:31].astype(np.int64)
             * plan.w_lo[None, :, None, 8:31]) % 256
        ).sum(axis=-1)
        out = np.empty((2, 6, 5), dtype=np.int32)
        assert native.remainder_group_sums_split(
            a_rows, plan.w_mag_lo, plan.w_pos_mask, 8, 31, 0xFF, out
        )
        assert np.array_equal(out.astype(np.int64), expect)
        out = np.empty((2, 6, 5), dtype=np.int32)
        a_cols = np.ascontiguousarray(a_rows.transpose(0, 2, 1))
        assert native.remainder_group_sums_cols(
            a_cols, plan.w_mag_lo, plan.w_pos_mask, 8, 31, 0xFF, out
        )
        assert np.array_equal(out.astype(np.int64), expect)

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert native.get_kernel() is None


class TestKernelVariants:
    """Every remainder kernel the rule can pick computes the same exact
    integer sums as the oracle and as the count definition under either
    contraction (``exact_counts``)."""

    def _case(self, seed, kind, b=8):
        eng, p = kernel_engine(kind)
        rng = np.random.default_rng(seed)
        batch, l, q = 2, 5, 43
        length = 1 << b
        cols = rng.integers(0, length + 1, size=(batch, q, p)).astype(np.int64)
        w = rng.integers(-length, length + 1, size=(l, q)).astype(np.int64)
        w[rng.random(w.shape) < 0.2] = 0
        assert eng.remainder_kernel(compile_layer_plan(w, b, 16), p) == kind
        return eng, cols, w, b

    @pytest.mark.parametrize("contraction", ["blas", "einsum"])
    @pytest.mark.parametrize("kind", list(KERNEL_CASES))
    def test_matmul_variants_match_reference(self, kind, contraction):
        eng, cols, w, b = self._case(21, kind)
        truth = exact_counts(cols, w, b, contraction)
        ref = sconna_matmul_reference(cols, w, b, group=16)
        assert np.array_equal(ref, truth)
        plan = compile_layer_plan(w, b, 16)
        got = eng.matmul(plan, cols)
        assert np.array_equal(truth, got)
        out = np.empty_like(got)
        eng.matmul(plan, cols, out=out)
        assert np.array_equal(truth, out)

    @pytest.mark.parametrize("contraction", ["blas", "einsum"])
    @pytest.mark.parametrize("kind", list(KERNEL_CASES))
    def test_matmul_ideal_matches_noisy_path_ideal(self, kind, contraction):
        """The collapsed signed-BLAS ideal path is bit-exact against the
        stacked reference for every kernel."""
        eng, cols, w, b = self._case(22, kind)
        truth = exact_counts(cols, w, b, contraction)
        ref = sconna_matmul_reference(cols, w, b, group=8)
        assert np.array_equal(ref, truth)
        plan = compile_layer_plan(w, b, 8)
        assert np.array_equal(truth, eng.matmul_ideal(plan, cols))

    def test_float64_cols_operand_matches_int64(self):
        """The fused path hands the engine C-contiguous float64 columns
        (used directly as the BLAS operand); results must be identical
        to the int64-cols call."""
        for kind in available_kernels():
            eng, cols, w, b = self._case(23, kind)
            plan = compile_layer_plan(w, b, 16)
            cols_f = np.ascontiguousarray(cols.astype(np.float64))
            ref = eng.matmul(plan, cols)
            assert np.array_equal(ref, eng.matmul(plan, cols_f))
            assert np.array_equal(ref, eng.matmul_ideal(plan, cols_f))

    def test_seeded_noise_identical_across_variants(self):
        """Each native kernel's seeded noisy counts equal the NumPy
        kernel's at the same shape."""
        numpy_only = SconnaEngine(use_native=False)
        for kind in available_kernels():
            eng, cols, w, b = self._case(24, kind)
            plan = compile_layer_plan(w, b, 16)
            assert np.array_equal(
                eng.matmul(plan, cols, SconnaErrorModel(seed=5)),
                numpy_only.matmul(plan, cols, SconnaErrorModel(seed=5)),
            )


class TestRemainderFallbackBoundary:
    """The chunked-broadcast fallback at the int32 top of the
    vector_path_supported envelope (the historical bug: accumulating
    with dtype=uint32 into the int32 buffer)."""

    def test_envelope_edges(self):
        # largest group whose remainder sums fit int32 at B=16
        assert vector_path_supported(16, 32768)
        assert not vector_path_supported(16, 32769)

    def test_exact_at_int32_boundary(self):
        from repro.cnn.engine import _remainder_fallback

        bits, qg = 16, 32768
        mask = (1 << bits) - 1
        # a*w mod 2**16 == 65535 for every q: the worst-case sum
        a_lo = np.full((1, 1, qg), mask, dtype=np.uint16)
        w_lo = np.ones((2, qg), dtype=np.uint16)
        out = np.empty((1, 2, 1), dtype=np.int32)
        _remainder_fallback(a_lo, w_lo, slice(0, qg), mask, out)
        expect = qg * mask  # 2147450880 < 2**31 - 1: must not wrap
        assert out.dtype == np.int32
        assert np.all(out == expect)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_property_matches_int64_ground_truth(self, seed):
        from repro.cnn.engine import _remainder_fallback

        rng = np.random.default_rng(seed)
        bits = int(rng.integers(9, 17))
        mask = (1 << bits) - 1
        qg = int(rng.integers(1, 200))
        b, l2, p = 2, 3, 4
        a_lo = rng.integers(0, mask + 1, size=(b, p, qg)).astype(np.uint16)
        w_lo = rng.integers(0, mask + 1, size=(l2, qg)).astype(np.uint16)
        out = np.empty((b, l2, p), dtype=np.int32)
        _remainder_fallback(a_lo, w_lo, slice(0, qg), mask, out)
        expect = (
            (a_lo[:, None, :, :].astype(np.int64) * w_lo[None, :, None, :])
            & mask
        ).sum(axis=-1)
        assert np.array_equal(out.astype(np.int64), expect)


class TestEventKernelBatch:
    def test_schedule_batch_orders_like_loop(self):
        from repro.arch.events import EventKernel

        seen = []
        k = EventKernel()
        k.schedule_batch([3e-9, 1e-9, 2e-9], lambda: seen.append(k.now))
        k.schedule(1e-9, lambda: seen.append(("single", k.now)))
        k.run()
        assert seen == [1e-9, ("single", 1e-9), 2e-9, 3e-9]

    def test_schedule_batch_rejects_past(self):
        from repro.arch.events import EventKernel, SimulationError

        with pytest.raises(SimulationError):
            EventKernel().schedule_batch([1.0, -0.5], lambda: None)
