"""Model-registry round trips and manifest handling."""

import json

import numpy as np
import pytest

from repro.cnn.datasets import N_CLASSES, generate_dataset
from repro.cnn.inference import QuantizedModel
from repro.cnn.micro import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.serve import ModelRegistry
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def tiny_qmodel():
    rng = make_rng(0)
    model = Sequential(
        Conv2d(3, 5, 3, padding=1, rng=rng), ReLU(), MaxPool2d(4),
        Flatten(), Linear(5 * 6 * 6, N_CLASSES, rng=rng),
    )
    ds = generate_dataset(4, seed=1)
    return QuantizedModel.from_trained(model, ds.images[:16]), ds


class TestRegistry:
    def test_save_load_round_trip(self, tiny_qmodel, tmp_path):
        qm, ds = tiny_qmodel
        reg = ModelRegistry(tmp_path)
        entry = reg.save("tiny", qm, arch_model="ShuffleNet_V2",
                         metadata={"note": "unit test"})
        assert entry.precision_bits == 8
        assert "tiny" in reg and reg.names() == ["tiny"]
        loaded = reg.load("tiny")
        assert np.array_equal(
            qm.forward(ds.images[:4], mode="int8"),
            loaded.forward(ds.images[:4], mode="int8"),
        )

    def test_manifest_fields(self, tiny_qmodel, tmp_path):
        qm, _ = tiny_qmodel
        reg = ModelRegistry(tmp_path)
        reg.save("m1", qm, arch_model="GoogleNet")
        entry = reg.entry("m1")
        assert entry.arch_model == "GoogleNet"
        assert entry.path.exists()
        assert entry.created_at > 0

    def test_unknown_arch_model_rejected(self, tiny_qmodel, tmp_path):
        qm, _ = tiny_qmodel
        with pytest.raises(ValueError, match="arch_model"):
            ModelRegistry(tmp_path).save("m", qm, arch_model="AlexNet")

    def test_invalid_names_rejected(self, tiny_qmodel, tmp_path):
        qm, _ = tiny_qmodel
        reg = ModelRegistry(tmp_path)
        for bad in ("../escape", "a/b", "", ".hidden"):
            with pytest.raises(ValueError):
                reg.save(bad, qm)

    def test_missing_model_raises_keyerror(self, tmp_path):
        reg = ModelRegistry(tmp_path)
        with pytest.raises(KeyError):
            reg.entry("ghost")
        with pytest.raises(KeyError):
            reg.delete("ghost")

    def test_delete_removes_entry(self, tiny_qmodel, tmp_path):
        qm, _ = tiny_qmodel
        reg = ModelRegistry(tmp_path)
        reg.save("gone", qm)
        reg.delete("gone")
        assert "gone" not in reg and len(reg) == 0

    def test_overwrite_updates_entry(self, tiny_qmodel, tmp_path):
        qm, _ = tiny_qmodel
        reg = ModelRegistry(tmp_path)
        reg.save("m", qm)
        reg.save("m", qm, metadata={"v": 2})
        assert reg.entry("m").metadata == {"v": 2}
        assert len(reg) == 1


def _write_legacy_autotune(root, name):
    """Rewrite ``name``'s archive and manifest the way older revisions
    did, when timed kernel picks were persisted: each carries an
    ``autotune`` map naming kernels that no longer exist."""
    legacy = {
        "0:sconna": {"q": 27, "p": 576, "matmul": "einsum",
                     "remainder": "native"},
        "4:sconna": {"q": 180, "p": 1, "matmul": "blas",
                     "remainder": "auto"},
    }
    archive_path = root / f"{name}.npz"
    with np.load(archive_path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    meta = json.loads(str(arrays["__meta__"]))
    arrays["__meta__"] = np.array(json.dumps(dict(meta, autotune=legacy)))
    np.savez_compressed(archive_path, **arrays)
    manifest_path = root / f"{name}.json"
    manifest = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps(dict(manifest, autotune=legacy)))


class TestAutotuneManifest:
    """Manifests no longer mirror kernel picks (the engine's rule
    re-derives them at load), and old manifests that do still load."""

    def test_manifest_carries_choices(self, tiny_qmodel, tmp_path):
        """An old manifest carrying picks still reads as an entry; saving
        over it drops the field."""
        qm, _ = tiny_qmodel
        reg = ModelRegistry(tmp_path)
        reg.save("old", qm, arch_model="MobileNet_V2")
        _write_legacy_autotune(tmp_path, "old")
        entry = reg.entry("old")
        assert entry.name == "old" and entry.arch_model == "MobileNet_V2"
        reg.save("old", qm, arch_model="MobileNet_V2")
        manifest = json.loads((tmp_path / "old.json").read_text())
        assert "autotune" not in manifest

    def test_loaded_model_is_pretuned(self, tiny_qmodel, tmp_path):
        """Loaded from an old archive and manifest, a model serves logits
        bit-identical to the fresh model's, on the rule's picks (no
        timing pass at load or at first forward)."""
        from repro.stochastic.error_models import SconnaErrorModel

        qm, ds = tiny_qmodel
        reg = ModelRegistry(tmp_path)
        reg.save("old", qm)
        _write_legacy_autotune(tmp_path, "old")
        loaded = reg.load("old")
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
        # the loaded model runs the kernel rule, not the stale picks
        assert loaded.autotune == qm.autotune

    def test_untuned_model_has_empty_autotune(self, tiny_qmodel, tmp_path):
        qm, _ = tiny_qmodel
        reg = ModelRegistry(tmp_path)
        reg.save("plain", qm, arch_model="GoogleNet")
        manifest = json.loads((tmp_path / "plain.json").read_text())
        assert "autotune" not in manifest
        assert reg.load("plain").autotune == {}
