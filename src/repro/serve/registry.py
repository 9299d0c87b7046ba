"""On-disk model registry: named, versionable QuantizedModel storage.

Layout under the registry root::

    <root>/<name>.npz    the model archive (repro.cnn.serialization)
    <root>/<name>.json   manifest: arch link, precision, user metadata

The manifest's optional ``arch_model`` field links a stored model to one
of the published :mod:`repro.cnn.zoo` architectures (``MODEL_BUILDERS``
names) so the serving layer can annotate its requests with the paper
network's simulated cost; without it the cost module derives a
descriptor from the quantized structure itself.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.cnn.inference import QuantizedModel
from repro.cnn.zoo import MODEL_BUILDERS

#: registry names double as file stems - keep them path-safe
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid registry name {name!r}: use letters, digits, '.', '_', '-'"
        )
    return name


@dataclass(frozen=True)
class RegistryEntry:
    """Manifest of one registered model."""

    name: str
    path: Path                      #: the .npz archive
    precision_bits: int
    arch_model: str | None = None   #: linked zoo architecture, if any
    created_at: float = 0.0         #: unix timestamp of registration
    metadata: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-serializable entry summary (what ``/v1/models`` lists)."""
        return {
            "name": self.name,
            "file": self.path.name,
            "precision_bits": self.precision_bits,
            "arch_model": self.arch_model,
            "created_at": self.created_at,
            "metadata": self.metadata,
        }


class ModelRegistry:
    """Directory-backed store of named quantized models."""

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- writing ---------------------------------------------------------
    def save(
        self,
        name: str,
        qmodel: QuantizedModel,
        arch_model: str | None = None,
        metadata: dict | None = None,
    ) -> RegistryEntry:
        """Store ``qmodel`` under ``name`` (overwrites an existing entry)."""
        _check_name(name)
        if arch_model is not None and arch_model not in MODEL_BUILDERS:
            raise ValueError(
                f"unknown arch_model {arch_model!r}; "
                f"available: {sorted(MODEL_BUILDERS)}"
            )
        path = self.root / f"{name}.npz"
        qmodel.save(path)
        entry = RegistryEntry(
            name=name,
            path=path,
            precision_bits=qmodel.precision_bits,
            arch_model=arch_model,
            created_at=time.time(),
            metadata=dict(metadata or {}),
        )
        manifest = entry.as_dict()
        (self.root / f"{name}.json").write_text(json.dumps(manifest, indent=2))
        return entry

    def delete(self, name: str) -> None:
        """Remove a registered model's weights and manifest from disk."""
        _check_name(name)
        found = False
        for suffix in (".npz", ".json"):
            p = self.root / f"{name}{suffix}"
            if p.exists():
                p.unlink()
                found = True
        if not found:
            raise KeyError(f"no registered model named {name!r}")

    # -- reading ---------------------------------------------------------
    def entry(self, name: str) -> RegistryEntry:
        """The manifest-backed entry for ``name`` (``KeyError`` if unknown)."""
        _check_name(name)
        manifest_path = self.root / f"{name}.json"
        if not manifest_path.exists():
            raise KeyError(f"no registered model named {name!r}")
        manifest = json.loads(manifest_path.read_text())
        # keys this revision does not know are ignored: the "autotune"
        # kernel picks and the per-model shard "placement" older
        # manifests carry (every shard now serves every model)
        return RegistryEntry(
            name=manifest["name"],
            path=self.root / manifest["file"],
            precision_bits=int(manifest["precision_bits"]),
            arch_model=manifest.get("arch_model"),
            created_at=float(manifest.get("created_at", 0.0)),
            metadata=manifest.get("metadata", {}),
        )

    def load(self, name: str) -> QuantizedModel:
        """Rebuild the named model, plans compiled and ready to serve."""
        return QuantizedModel.load(self.entry(name).path)

    def archive_path(self, name: str) -> Path:
        """The on-disk NPZ archive of a registered model.

        Shard worker processes load models straight from this path, so a
        shared registry directory is the natural hand-off point between a
        serving parent and its workers.
        """
        path = self.entry(name).path
        if not path.exists():
            raise KeyError(
                f"registry manifest for {name!r} points at missing archive {path}"
            )
        return path

    def names(self) -> "list[str]":
        """Registered model names, sorted."""
        return sorted(p.stem for p in self.root.glob("*.json"))

    def __contains__(self, name: str) -> bool:
        return (self.root / f"{name}.json").exists()

    def __len__(self) -> int:
        return len(self.names())
