"""Tests for the end-to-end SCONNA error model."""

import numpy as np
import pytest

from repro.stochastic.error_models import (
    PerRequestErrorModels,
    SconnaErrorModel,
    measure_vdp_error,
)


class TestSconnaErrorModel:
    def test_ideal_model_is_identity(self):
        m = SconnaErrorModel(adc_mape=0.0)
        counts = np.array([100, 2000, 45056])
        assert np.array_equal(m.apply_to_counts(counts), counts)
        assert m.ideal()

    def test_default_paper_configuration(self):
        m = SconnaErrorModel()
        assert m.adc_mape == pytest.approx(0.013)
        assert not m.ideal()

    def test_noise_is_relative(self):
        m = SconnaErrorModel(seed=0)
        big = m.apply_to_counts(np.full(20_000, 10_000.0))
        err = np.abs(big - 10_000) / 10_000
        assert err.mean() == pytest.approx(0.013, rel=0.1)

    def test_skirt_leakage_requires_slots(self):
        m = SconnaErrorModel(skirt_leakage=0.02, adc_mape=0.0)
        with pytest.raises(ValueError):
            m.apply_to_counts(np.array([100.0]))

    def test_skirt_leakage_adds_expected_offset(self):
        m = SconnaErrorModel(skirt_leakage=0.05, adc_mape=0.0)
        out = m.apply_to_counts(np.array([100.0]), skirt_slots=np.array([200.0]))
        assert out[0] == 110  # 100 + 0.05*200

    def test_invalid_leakage_rejected(self):
        with pytest.raises(ValueError):
            SconnaErrorModel(skirt_leakage=1.0)

    def test_seeded_reproducibility(self):
        a = SconnaErrorModel(seed=5).apply_to_counts(np.arange(100.0, 200.0))
        b = SconnaErrorModel(seed=5).apply_to_counts(np.arange(100.0, 200.0))
        assert np.array_equal(a, b)


class TestPerRequestModels:
    def test_each_request_draws_its_own_stream(self):
        """A composite's noise for one request is that request's model
        drawn alone; ideal entries leave their counts as they are."""
        counts = np.random.default_rng(2).integers(0, 5000, (6, 4, 5)) * 1.0
        composite = PerRequestErrorModels(
            [SconnaErrorModel(seed=5), None, SconnaErrorModel(seed=6),
             SconnaErrorModel(adc_mape=0.0)],
            sizes=[2, 1, 2, 1],
        )
        before = counts.copy()
        got = composite.apply_to_counts(counts)
        assert np.array_equal(counts, before), "counts are an input only"
        for sl, seed in ((slice(0, 2), 5), (slice(3, 5), 6)):
            alone = PerRequestErrorModels([SconnaErrorModel(seed=seed)], [2])
            assert np.array_equal(got[sl], alone.apply_to_counts(counts[sl]))
        assert np.array_equal(got[2], counts[2])
        assert np.array_equal(got[5], counts[5])

    def test_draw_rejects_a_mismatched_batch(self):
        with pytest.raises(ValueError, match="does not match"):
            PerRequestErrorModels([SconnaErrorModel(seed=1)], [2]).draw(3)


class TestMeasuredVdpError:
    def test_ideal_pipeline_error_is_floor_only(self):
        stats = measure_vdp_error(
            vdpe_size=176,
            precision_bits=8,
            model=SconnaErrorModel(adc_mape=0.0),
            n_trials=50,
        )
        # floor rounding alone stays well below 2 % relative on average
        assert stats.mean_relative_error < 0.02

    def test_adc_noise_raises_error(self):
        ideal = measure_vdp_error(
            176, 8, SconnaErrorModel(adc_mape=0.0), n_trials=50, seed=3
        )
        noisy = measure_vdp_error(
            176, 8, SconnaErrorModel(adc_mape=0.013, seed=1), n_trials=50, seed=3
        )
        assert noisy.mean_relative_error > ideal.mean_relative_error

    def test_stats_fields_consistent(self):
        stats = measure_vdp_error(64, 8, SconnaErrorModel(seed=2), n_trials=30)
        assert stats.max_relative_error >= stats.mean_relative_error
        assert stats.mape_percent == pytest.approx(
            stats.mean_relative_error * 100.0
        )
