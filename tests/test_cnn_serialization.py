"""NPZ round-trip tests for QuantizedModel.save / QuantizedModel.load."""

import json

import numpy as np
import pytest

from repro.cnn.datasets import N_CLASSES, generate_dataset
from repro.cnn.inference import QuantizedModel
from repro.cnn.micro import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.core.config import SconnaConfig
from repro.stochastic.error_models import SconnaErrorModel
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def saved_setup(tmp_path_factory):
    rng = make_rng(0)
    model = Sequential(
        Conv2d(3, 6, 3, padding=1, rng=rng, bias=True), ReLU(), MaxPool2d(4),
        Flatten(), Linear(6 * 6 * 6, N_CLASSES, rng=rng),
    )
    ds = generate_dataset(6, seed=3)
    qm = QuantizedModel.from_trained(model, ds.images[:24])
    path = tmp_path_factory.mktemp("models") / "tiny.npz"
    qm.save(path)
    return qm, QuantizedModel.load(path), ds, path


class TestRoundTrip:
    @pytest.mark.parametrize("mode", ["float", "int8"])
    def test_bit_identical_deterministic_modes(self, saved_setup, mode):
        qm, loaded, ds, _ = saved_setup
        x = ds.images[:8]
        assert np.array_equal(qm.forward(x, mode=mode), loaded.forward(x, mode=mode))

    def test_bit_identical_sconna_ideal(self, saved_setup):
        qm, loaded, ds, _ = saved_setup
        x = ds.images[:8]
        ideal = SconnaErrorModel(adc_mape=0.0)
        a = qm.forward(x, mode="sconna", error_model=ideal)
        b = loaded.forward(x, mode="sconna", error_model=ideal)
        assert np.array_equal(a, b)

    def test_bit_identical_sconna_equal_seeds(self, saved_setup):
        qm, loaded, ds, _ = saved_setup
        x = ds.images[:4]
        a = qm.forward(x, mode="sconna", error_model=SconnaErrorModel(seed=7))
        b = loaded.forward(x, mode="sconna", error_model=SconnaErrorModel(seed=7))
        assert np.array_equal(a, b)

    def test_property_random_batches(self, saved_setup):
        """Round-trip equality holds for arbitrary inputs, not just data
        the calibration saw (a draw-many-random-batches property test)."""
        qm, loaded, _, _ = saved_setup
        rng = make_rng(11)
        ideal = SconnaErrorModel(adc_mape=0.0)
        for _ in range(5):
            x = rng.uniform(0.0, 1.5, size=(3, 3, 24, 24))
            for mode, em in (("float", None), ("int8", None), ("sconna", ideal)):
                assert np.array_equal(
                    qm.forward(x, mode=mode, error_model=em),
                    loaded.forward(x, mode=mode, error_model=em),
                )

    def test_config_and_metadata_preserved(self, saved_setup):
        qm, loaded, _, _ = saved_setup
        assert loaded.precision_bits == qm.precision_bits
        assert loaded.config == qm.config
        assert len(loaded.structure) == len(qm.structure)

    def test_plans_recompiled_on_load(self, saved_setup):
        from repro.cnn.inference import QuantLayer

        _, loaded, _, _ = saved_setup
        quant_layers = [s for s in loaded.structure if isinstance(s, QuantLayer)]
        assert quant_layers and all(l.plan is not None for l in quant_layers)


class TestEdgeCases:
    def test_custom_config_round_trips(self, tmp_path):
        rng = make_rng(2)
        model = Sequential(
            Conv2d(3, 4, 3, padding=1, rng=rng), ReLU(),
            Flatten(), Linear(4 * 24 * 24, N_CLASSES, rng=rng),
        )
        ds = generate_dataset(2, seed=0)
        config = SconnaConfig(vdpe_size=64, pca_design_activity=0.5)
        qm = QuantizedModel.from_trained(model, ds.images[:8], config=config)
        path = tmp_path / "custom.npz"
        qm.save(path)
        loaded = QuantizedModel.load(path)
        assert loaded.config.vdpe_size == 64
        assert loaded.config.pca_design_activity == 0.5
        ideal = SconnaErrorModel(adc_mape=0.0)
        assert np.array_equal(
            qm.forward(ds.images[:4], mode="sconna", error_model=ideal),
            loaded.forward(ds.images[:4], mode="sconna", error_model=ideal),
        )

    def test_unsupported_layer_rejected(self, tmp_path):
        class Odd:
            def forward(self, x):
                return x

        qm = QuantizedModel.__new__(QuantizedModel)
        qm.structure = [Odd()]
        qm.precision_bits = 8
        qm.config = SconnaConfig()
        with pytest.raises(ValueError, match="cannot serialize"):
            from repro.cnn.serialization import save_quantized_model

            save_quantized_model(qm, tmp_path / "odd.npz")

    def test_non_archive_rejected(self, tmp_path):
        path = tmp_path / "not_a_model.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(ValueError, match="archive"):
            QuantizedModel.load(path)

    def test_creates_parent_directories(self, tmp_path):
        rng = make_rng(1)
        model = Sequential(Flatten(), Linear(3 * 24 * 24, N_CLASSES, rng=rng))
        ds = generate_dataset(2, seed=1)
        qm = QuantizedModel.from_trained(model, ds.images[:8])
        path = tmp_path / "nested" / "dir" / "m.npz"
        qm.save(path)
        assert path.exists()
        loaded = QuantizedModel.load(path)
        assert np.array_equal(
            qm.forward(ds.images[:4], mode="int8"),
            loaded.forward(ds.images[:4], mode="int8"),
        )


def _read_meta(path):
    with np.load(path) as archive:
        return json.loads(str(archive["__meta__"]))


class TestAutotunePersistence:
    """Kernel picks are not persisted: the engine's rule re-derives them
    after a load.  Archives from when timed picks were stored carry an
    ``autotune`` map in their meta record, naming kernels that no longer
    exist; they still load and serve."""

    def _model(self):
        rng = make_rng(4)
        model = Sequential(
            Conv2d(3, 4, 3, padding=1, rng=rng), ReLU(), MaxPool2d(4),
            Flatten(), Linear(4 * 6 * 6, N_CLASSES, rng=rng),
        )
        ds = generate_dataset(4, seed=5)
        return QuantizedModel.from_trained(model, ds.images[:16]), ds

    def test_choices_survive_save_load(self, tmp_path):
        """A loaded model starts with an empty record; its first fused
        forward records the same picks as the saved model's."""
        qm, ds = self._model()
        em = SconnaErrorModel(adc_mape=0.0)
        qm.forward(ds.images[:2], mode="sconna", error_model=em, fused=True)
        assert qm.autotune, "fused forward should have recorded picks"
        path = tmp_path / "picked.npz"
        qm.save(path)
        assert "autotune" not in _read_meta(path)
        loaded = QuantizedModel.load(path)
        assert loaded.autotune == {}
        x = ds.images[:3]
        assert np.array_equal(
            loaded.forward(x, mode="sconna", error_model=em, fused=True),
            loaded.forward(x, mode="sconna", error_model=em, fused=False),
        )
        assert loaded.autotune == qm.autotune

    def test_stale_entries_revalidated_after_load(self, tmp_path):
        """Stale timed picks in an old archive are ignored: the loaded
        model serves the fresh model's logits bit for bit, on the rule's
        picks."""
        qm, ds = self._model()
        path = tmp_path / "old.npz"
        qm.save(path)
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        stale = {
            "0:sconna": {"q": 999999, "p": 576, "matmul": "einsum",
                         "remainder": "native"},
            "4:sconna": {"q": 144, "p": 1, "matmul": "blas",
                         "remainder": "auto"},
        }
        meta = dict(_read_meta(path), autotune=stale)
        arrays["__meta__"] = np.array(json.dumps(meta))
        np.savez_compressed(path, **arrays)

        loaded = QuantizedModel.load(path)
        assert loaded.autotune == {}
        x = ds.images[:3]
        for mode, em in (
            ("int8", lambda: None),
            ("sconna", lambda: SconnaErrorModel(adc_mape=0.0)),
            ("sconna", lambda: SconnaErrorModel(seed=7)),
        ):
            assert np.array_equal(
                loaded.forward(x, mode=mode, error_model=em()),
                qm.forward(x, mode=mode, error_model=em()),
            )
        assert loaded.autotune == qm.autotune

    def test_untuned_archive_loads_with_empty_autotune(self, saved_setup):
        # saved_setup serializes before any fused forward ran, so the
        # archive predates any pick - loads must not invent one
        _, _, _, path = saved_setup
        assert QuantizedModel.load(path).autotune == {}
