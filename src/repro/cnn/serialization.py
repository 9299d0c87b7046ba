"""NPZ + JSON serialization of :class:`~repro.cnn.inference.QuantizedModel`.

A saved model is a single compressed ``.npz`` archive holding

* ``__meta__`` - a JSON document describing the model structure (layer
  kinds and geometry, quantization parameters, the
  :class:`~repro.core.config.SconnaConfig` operating point, format
  version), and
* one array entry per tensor (``L{i}_weight_q``, ``L{i}_weight_f``,
  ``L{i}_bias``) referenced from the structure records.

Everything derived from the tensors - in particular the compiled
:class:`~repro.cnn.engine.SconnaLayerPlan` per layer - is rebuilt on
load by ``QuantizedModel.__init__``, so the archive stays a pure data
format: no pickled code, stable across engine refactors.  The arrays
are stored exactly (integer grids and float64 weights), which makes the
round-trip bit-identical: a reloaded model produces the same logits in
every datapath (for ``sconna`` under an ideal or equal-seeded error
model).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.cnn.micro import Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.cnn.quantize import QuantParams
from repro.core.config import SconnaConfig
from repro.photonics.tir import TIRParams

#: bump when the archive layout changes incompatibly
FORMAT_VERSION = 1
FORMAT_NAME = "sconna-quantized-model"


# -- QuantParams / SconnaConfig <-> plain dicts ---------------------------
def _params_to_dict(p: QuantParams) -> dict:
    return {"scale": p.scale, "levels": p.levels, "signed": p.signed}


def _params_from_dict(d: dict) -> QuantParams:
    return QuantParams(
        scale=float(d["scale"]), levels=int(d["levels"]), signed=bool(d["signed"])
    )


def _config_to_dict(config: SconnaConfig) -> dict:
    return dataclasses.asdict(config)


def _config_from_dict(d: dict) -> SconnaConfig:
    fields = dict(d)
    tir = fields.pop("tir", None)
    known = {f.name for f in dataclasses.fields(SconnaConfig)}
    unknown = set(fields) - known
    if unknown:
        raise ValueError(f"unknown SconnaConfig fields in archive: {sorted(unknown)}")
    if tir is not None:
        fields["tir"] = TIRParams(**tir)
    return SconnaConfig(**fields)


# -- structure items <-> records ------------------------------------------
def _describe_structure(qmodel) -> "tuple[list[dict], dict[str, np.ndarray]]":
    """Flatten the model structure into JSON records + named arrays."""
    from repro.cnn.inference import QuantLayer  # local: avoid import cycle

    records: list[dict] = []
    arrays: dict[str, np.ndarray] = {}
    for i, item in enumerate(qmodel.structure):
        if isinstance(item, QuantLayer):
            rec: dict[str, Any] = {
                "type": f"quant_{item.kind}",
                "weight_params": _params_to_dict(item.weight_params),
                "act_params": _params_to_dict(item.act_params),
            }
            if item.kind == "conv":
                rec["stride"] = item.stride
                rec["padding"] = item.padding
            arrays[f"L{i}_weight_q"] = item.weight_q
            arrays[f"L{i}_weight_f"] = item.float_layer.weight
            if item.bias is not None:
                rec["has_bias"] = True
                arrays[f"L{i}_bias"] = item.bias
            else:
                rec["has_bias"] = False
        elif isinstance(item, ReLU):
            rec = {"type": "relu"}
        elif isinstance(item, MaxPool2d):
            rec = {"type": "maxpool", "kernel": item.kernel, "stride": item.stride}
        elif isinstance(item, Flatten):
            rec = {"type": "flatten"}
        else:
            raise ValueError(
                f"cannot serialize structure item {type(item).__name__!r}; "
                "supported: QuantLayer, ReLU, MaxPool2d, Flatten"
            )
        records.append(rec)
    return records, arrays


def _rebuild_quant_layer(rec: dict, i: int, archive) -> "object":
    from repro.cnn.inference import QuantLayer  # local: avoid import cycle

    weight_q = np.asarray(archive[f"L{i}_weight_q"])
    weight_f = np.asarray(archive[f"L{i}_weight_f"], dtype=np.float64)
    bias = (
        np.asarray(archive[f"L{i}_bias"], dtype=np.float64)
        if rec["has_bias"]
        else None
    )
    kind = rec["type"].removeprefix("quant_")
    if kind == "conv":
        l, c, k, _ = weight_f.shape
        stride, padding = int(rec["stride"]), int(rec["padding"])
        float_layer: Conv2d | Linear = Conv2d(
            c, l, k, stride=stride, padding=padding, bias=bias is not None
        )
    else:
        out_f, in_f = weight_f.shape
        stride, padding = 1, 0
        float_layer = Linear(in_f, out_f)
    # overwrite the randomly-initialised parameters with the saved ones
    float_layer.weight = weight_f
    float_layer.grad_weight = np.zeros_like(weight_f)
    if bias is not None:
        float_layer.bias = bias.copy()
        float_layer.grad_bias = np.zeros_like(float_layer.bias)
    return QuantLayer(
        kind=kind,
        weight_q=weight_q,
        weight_params=_params_from_dict(rec["weight_params"]),
        act_params=_params_from_dict(rec["act_params"]),
        float_layer=float_layer,
        stride=stride,
        padding=padding,
        bias=bias,
    )


# -- public API ------------------------------------------------------------
def _write_archive(qmodel, target) -> None:
    """Serialize ``qmodel`` into ``target`` (a path or binary file object)."""
    records, arrays = _describe_structure(qmodel)
    meta = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "precision_bits": qmodel.precision_bits,
        "config": _config_to_dict(qmodel.config),
        "structure": records,
    }
    np.savez_compressed(target, __meta__=np.array(json.dumps(meta)), **arrays)


def _read_archive(source, label: str):
    """Rebuild a model from ``source`` (a path or binary file object)."""
    from repro.cnn.inference import QuantizedModel  # local: avoid import cycle

    with np.load(source, allow_pickle=False) as archive:
        if "__meta__" not in archive:
            raise ValueError(f"{label} is not a {FORMAT_NAME} archive")
        meta = json.loads(str(archive["__meta__"]))
        if meta.get("format") != FORMAT_NAME:
            raise ValueError(f"{label}: unexpected format {meta.get('format')!r}")
        if meta.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"{label}: unsupported archive version {meta.get('version')!r} "
                f"(expected {FORMAT_VERSION})"
            )
        structure: list[object] = []
        for i, rec in enumerate(meta["structure"]):
            kind = rec["type"]
            if kind in ("quant_conv", "quant_linear"):
                structure.append(_rebuild_quant_layer(rec, i, archive))
            elif kind == "relu":
                structure.append(ReLU())
            elif kind == "maxpool":
                structure.append(
                    MaxPool2d(kernel=int(rec["kernel"]), stride=int(rec["stride"]))
                )
            elif kind == "flatten":
                structure.append(Flatten())
            else:
                raise ValueError(f"{label}: unknown structure record {kind!r}")
    # archives from before the fixed kernel rule may carry an "autotune"
    # map of timed kernel picks; the engine's rule replaces it, so it is
    # ignored like any other unknown meta key
    return QuantizedModel(
        structure,
        precision_bits=int(meta["precision_bits"]),
        config=_config_from_dict(meta["config"]),
    )


def save_quantized_model(qmodel, path: "str | Path") -> Path:
    """Write ``qmodel`` as a compressed NPZ archive; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_archive(qmodel, path)
    return path


def load_quantized_model(path: "str | Path"):
    """Rebuild a :class:`~repro.cnn.inference.QuantizedModel` from disk.

    Layer plans are recompiled eagerly by the model constructor, so a
    loaded model is immediately ready to serve.
    """
    path = Path(path)
    return _read_archive(path, str(path))


def dumps_quantized_model(qmodel) -> bytes:
    """The NPZ archive as in-memory bytes (same format as :func:`save_quantized_model`).

    Used to ship a not-yet-registered model over a pipe to a shard
    worker process without touching disk; :func:`loads_quantized_model`
    is the inverse and the round trip is bit-identical, exactly like the
    file-based one.
    """
    import io

    buf = io.BytesIO()
    _write_archive(qmodel, buf)
    return buf.getvalue()


def loads_quantized_model(data: bytes):
    """Rebuild a model from :func:`dumps_quantized_model` bytes."""
    import io

    return _read_archive(io.BytesIO(data), "<bytes>")
