"""Quantized inference engines: float, exact int-8, and SCONNA.

``QuantizedModel.from_trained`` takes a trained float network and a
calibration batch and produces a post-training-quantized model that can
run in three modes:

* ``float``  - the original network (reference accuracy),
* ``int8``   - exact integer arithmetic (``sum(i_q * w_q)`` then
  dequantise): the accuracy an ideal 8-bit accelerator achieves,
* ``sconna`` - the stochastic pipeline: every product is the count-
  domain OSM result ``floor(i_q * |w_q| / 2**B)`` sign-steered into
  positive/negative PCA accumulations, grouped into electrical psums by
  the multi-pass accumulation rule, each psum perturbed by the 1.3 %
  MAPE ADC error model, then dequantised with the extra ``2**B`` scale.

Table V is the Top-1/Top-5 gap between ``int8`` and ``sconna``.

``int8`` and ``sconna`` run on one production path, the fused
whole-network plan (:mod:`repro.cnn.graph_plan`).  The per-layer path
(``forward(..., fused=False)``, and the fallback for whatever the plan
cannot run) is the oracle: the seed math, quantize -> ``im2col`` ->
exact int64 ``np.matmul`` (int8) or
:func:`~repro.cnn.engine.sconna_matmul_reference` (sconna).  The two
agree bit for bit, seeded ADC noise included.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cnn.engine import (
    SconnaEngine,
    SconnaLayerPlan,
    compile_layer_plan,
    psum_group_size,
    sconna_matmul_reference,
    vector_path_supported,
)
from repro.cnn.functional import conv2d, conv_output_hw, im2col, linear, max_pool2d
from repro.cnn.micro import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.cnn.quantize import (
    QuantParams,
    calibrate_activation,
    calibrate_weight,
    quantize,
)
from repro.core.config import SconnaConfig
from repro.stochastic.error_models import SconnaErrorModel

Mode = str  # "float" | "int8" | "sconna"


@dataclass
class QuantLayer:
    """One quantized compute layer (conv or linear)."""

    kind: str                     #: "conv" or "linear"
    weight_q: np.ndarray          #: signed integer weights
    weight_params: QuantParams
    act_params: QuantParams
    float_layer: Conv2d | Linear
    stride: int = 1
    padding: int = 0
    bias: np.ndarray | None = None
    plan: SconnaLayerPlan | None = None  #: compiled engine constants


class QuantizedModel:
    """Post-training-quantized view of a trained Sequential network."""

    def __init__(
        self,
        structure: "list[object]",
        precision_bits: int = 8,
        config: SconnaConfig | None = None,
    ) -> None:
        self.structure = structure
        self.precision_bits = precision_bits
        self.config = config or SconnaConfig(precision_bits=precision_bits)
        self._engine = SconnaEngine()
        self._plan_lock = threading.Lock()
        #: each fused sconna stage's remainder-kernel pick, keyed
        #: ``"<structure index>:sconna"`` (see :mod:`repro.cnn.graph_plan`);
        #: a record of what runs, never persisted
        self.autotune: "dict[str, dict]" = {}
        self._network_plan: "object | None" = None
        for item in structure:
            if isinstance(item, QuantLayer):
                self._plan_for(item)

    # A model must survive a trip into a fresh worker process (the
    # multi-process serving backend, multiprocessing sweeps): the plan
    # arrays and weights pickle as data, while the lock - process-local
    # by nature - is recreated on the other side.  The engine's own
    # __getstate__ drops its thread-local buffers, so the copy warms up
    # from scratch exactly like a newly loaded model.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_plan_lock"]
        # the network plan holds locks and cached shape programs; it is
        # rebuilt on first fused forward in the new process
        state["_network_plan"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._plan_lock = threading.Lock()
        # models pickled by older revisions predate these fields
        self.__dict__.setdefault("autotune", {})
        self.__dict__.setdefault("_network_plan", None)

    @property
    def network_plan(self) -> "object":
        """The graph-level compiled plan (built lazily; see
        :class:`repro.cnn.graph_plan.NetworkPlan`)."""
        plan = self._network_plan
        if plan is None:
            with self._plan_lock:
                plan = self._network_plan
                if plan is None:
                    from repro.cnn.graph_plan import NetworkPlan

                    plan = NetworkPlan(self)
                    self._network_plan = plan
        return plan

    # -- construction ------------------------------------------------------
    @classmethod
    def from_trained(
        cls,
        model: Sequential,
        calibration_images: np.ndarray,
        precision_bits: int = 8,
        config: SconnaConfig | None = None,
    ) -> "QuantizedModel":
        """Calibrate activation scales layer by layer on real data."""
        structure: list[object] = []
        x = calibration_images.astype(np.float64)
        for layer in model.layers:
            if isinstance(layer, Conv2d):
                act = calibrate_activation(x, precision_bits)
                wq_params = calibrate_weight(layer.weight, precision_bits)
                structure.append(
                    QuantLayer(
                        kind="conv",
                        weight_q=quantize(layer.weight, wq_params),
                        weight_params=wq_params,
                        act_params=act,
                        float_layer=layer,
                        stride=layer.stride,
                        padding=layer.padding,
                        bias=None if layer.bias is None else layer.bias.copy(),
                    )
                )
            elif isinstance(layer, Linear):
                act = calibrate_activation(x, precision_bits)
                wq_params = calibrate_weight(layer.weight, precision_bits)
                structure.append(
                    QuantLayer(
                        kind="linear",
                        weight_q=quantize(layer.weight, wq_params),
                        weight_params=wq_params,
                        act_params=act,
                        float_layer=layer,
                        bias=layer.bias.copy(),
                    )
                )
            else:
                structure.append(layer)
            x = layer.forward(x)
        return cls(structure, precision_bits, config)

    # -- persistence -------------------------------------------------------
    def save(self, path: "str | object") -> "object":
        """Serialize to a compressed NPZ archive (see
        :mod:`repro.cnn.serialization`); returns the written path."""
        from repro.cnn.serialization import save_quantized_model

        return save_quantized_model(self, path)

    @classmethod
    def load(cls, path: "str | object") -> "QuantizedModel":
        """Rebuild a saved model; layer plans are recompiled eagerly."""
        from repro.cnn.serialization import load_quantized_model

        return load_quantized_model(path)

    # -- execution ---------------------------------------------------------
    def forward(
        self,
        images: np.ndarray,
        mode: Mode = "int8",
        error_model: SconnaErrorModel | None = None,
        *,
        fused: "bool | None" = None,
        profile: "list | None" = None,
    ) -> np.ndarray:
        """Run a batch through the selected datapath; returns logits.

        ``fused`` selects the execution strategy: ``None`` (default)
        uses the whole-network fused plan when this model/mode/shape
        supports it and falls back to the per-layer oracle otherwise;
        ``False`` forces the oracle; ``True`` demands the fused path and
        raises if it cannot run.  Both paths return bit-identical
        logits.  ``profile``, when a list, collects ``(name, start_s, end_s,
        tags)`` per-stage timing tuples (quantize / im2col / matmul /
        requantize on the fused path, coarse per-layer timings on the
        reference path) without perturbing the arithmetic.
        """
        if mode not in ("float", "int8", "sconna"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "sconna" and error_model is None:
            error_model = SconnaErrorModel(seed=0)
        if fused is not False and mode in ("int8", "sconna"):
            out = self.network_plan.try_execute(
                images, mode, error_model, profile=profile
            )
            if out is not None:
                return out
            if fused is True:
                raise ValueError(
                    "fused execution is unsupported for this "
                    "model/mode/input-shape combination"
                )
        x = images.astype(np.float64)
        # the trainable layers' forwards cache backward-pass state on
        # shared instances; inference dispatches to the stateless
        # functional kernels instead, so concurrent forward passes into
        # one model (the serving worker pool) never share mutable state
        for i, item in enumerate(self.structure):
            t0 = time.monotonic() if profile is not None else 0.0
            if isinstance(item, QuantLayer):
                x = self._run_quant_layer(item, x, mode, error_model)
            elif isinstance(item, MaxPool2d):
                x = max_pool2d(x, item.kernel, item.stride)
            elif isinstance(item, ReLU):
                x = np.maximum(x, 0.0)
            elif isinstance(item, Flatten):
                x = x.reshape(x.shape[0], -1)
            else:
                x = item.forward(x)
            if profile is not None:
                profile.append(("layer", t0, time.monotonic(),
                                {"index": i,
                                 "op": type(item).__name__}))
        return x

    def _run_quant_layer(
        self,
        layer: QuantLayer,
        x: np.ndarray,
        mode: Mode,
        error_model: SconnaErrorModel | None,
    ) -> np.ndarray:
        if mode == "float":
            # stateless equivalents of the trainable forwards (bit-equal:
            # same im2col/matmul/bias order), again so a shared model
            # serves concurrent float-mode requests safely
            fl = layer.float_layer
            if layer.kind == "conv":
                return conv2d(
                    x, fl.weight, stride=layer.stride,
                    padding=layer.padding, bias=fl.bias,
                )
            return linear(x, fl.weight, fl.bias)

        # the oracle: quantize, im2col (a linear layer's activations are
        # (B, Q, 1) columns), then the exact integer contraction or the
        # seed per-channel count-domain kernel
        a_q = quantize(np.maximum(x, 0.0), layer.act_params)
        l = layer.weight_q.shape[0]
        w_flat = layer.weight_q.reshape(l, -1)
        if layer.kind == "conv":
            k = layer.weight_q.shape[2]
            cols = im2col(a_q, k, layer.stride, layer.padding)
            out_shape = (x.shape[0], l, *conv_output_hw(
                x.shape[2], x.shape[3], k, layer.stride, layer.padding
            ))
        else:
            cols = a_q[:, :, None]
            out_shape = (x.shape[0], l)
        scale = layer.act_params.scale * layer.weight_params.scale
        if mode == "int8":
            out = np.matmul(w_flat, cols).astype(np.float64) * scale
        else:
            counts = sconna_matmul_reference(
                cols, w_flat, self.precision_bits,
                psum_group_size(self.config), error_model,
            )
            out = counts * (scale * (1 << self.precision_bits))
        if layer.bias is not None:
            out = out + layer.bias[:, None]
        return out.reshape(out_shape)

    # -- count-domain kernels ----------------------------------------------
    def _plan_for(self, layer: QuantLayer) -> SconnaLayerPlan | None:
        """The layer's compiled engine plan (built on first use).

        Returns None when the configuration falls outside the vectorized
        engine's exactness envelope; callers then take the reference
        path.  Compilation is serialized behind a lock so concurrent
        first requests into a shared model cannot race on ``layer.plan``
        (plans are normally compiled eagerly at construction, but a
        config/precision change re-triggers the lazy path).
        """
        group = psum_group_size(self.config)
        if not vector_path_supported(self.precision_bits, group):
            return None

        def stale(p: SconnaLayerPlan | None) -> bool:
            return (
                p is None
                or p.group != group
                or p.precision_bits != self.precision_bits
            )

        plan = layer.plan
        if stale(plan):
            with self._plan_lock:
                plan = layer.plan  # double-checked: another thread may have won
                if stale(plan):
                    l = layer.weight_q.shape[0]
                    plan = compile_layer_plan(
                        layer.weight_q.reshape(l, -1), self.precision_bits, group
                    )
                    layer.plan = plan
        return plan

    # -- evaluation ----------------------------------------------------------
    def predict_logits(
        self,
        images: np.ndarray,
        mode: Mode = "int8",
        error_model: SconnaErrorModel | None = None,
        batch_size: int = 50,
        *,
        fused: "bool | None" = None,
    ) -> np.ndarray:
        """Batched forward pass returning all logits."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        outs = []
        for start in range(0, images.shape[0], batch_size):
            outs.append(
                self.forward(
                    images[start : start + batch_size],
                    mode=mode,
                    error_model=error_model,
                    fused=fused,
                )
            )
        return np.concatenate(outs, axis=0)

    @staticmethod
    def count_top_k(
        logits: np.ndarray, labels: np.ndarray, ks: "tuple[int, ...]"
    ) -> "dict[int, int]":
        """Correct-prediction counts for several k at once (one argsort).

        The single scoring rule behind :meth:`top_k_from_logits`,
        :meth:`top_k_accuracy` and :func:`evaluate_accuracy` - streamed
        evaluation accumulates these per-batch counts.
        """
        order = np.argsort(logits, axis=1)[:, -max(ks):]
        return {
            k: int((order[:, -k:] == labels[:, None]).any(axis=1).sum())
            for k in ks
        }

    @staticmethod
    def top_k_from_logits(logits: np.ndarray, labels: np.ndarray, k: int) -> float:
        counts = QuantizedModel.count_top_k(logits, labels, (k,))
        return counts[k] / max(labels.shape[0], 1)

    def top_k_accuracy(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        k: int = 1,
        mode: Mode = "int8",
        error_model: SconnaErrorModel | None = None,
        batch_size: int = 50,
    ) -> float:
        if images.shape[0] != labels.shape[0]:
            raise ValueError("images/labels length mismatch")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        # streamed: per-batch correct counts, never the full logit matrix
        correct = 0
        for start in range(0, images.shape[0], batch_size):
            logits = self.forward(
                images[start : start + batch_size],
                mode=mode,
                error_model=error_model,
            )
            lab = labels[start : start + batch_size]
            correct += self.count_top_k(logits, lab, (k,))[k]
        return correct / max(images.shape[0], 1)


@dataclass(frozen=True)
class AccuracyReport:
    """Accuracy of one model across the three datapaths."""

    model_name: str
    top1_float: float
    top1_int8: float
    top1_sconna: float
    top5_float: float
    top5_int8: float
    top5_sconna: float

    @property
    def top1_drop_percent(self) -> float:
        """Table V metric: int8 -> SCONNA Top-1 drop in % points."""
        return (self.top1_int8 - self.top1_sconna) * 100.0

    @property
    def top5_drop_percent(self) -> float:
        return (self.top5_int8 - self.top5_sconna) * 100.0


def evaluate_accuracy(
    model_name: str,
    qmodel: QuantizedModel,
    images: np.ndarray,
    labels: np.ndarray,
    error_model: SconnaErrorModel | None = None,
    batch_size: int = 50,
) -> AccuracyReport:
    """Measure float / int8 / SCONNA Top-1 and Top-5 on a test set.

    Streams the test set in ``batch_size`` chunks and accumulates
    correct-prediction counts, so peak memory is one batch of logits per
    datapath rather than the full ``(N, classes)`` logit matrix - the
    difference between "fits" and "does not" on ImageNet-scale sets.
    """
    if images.shape[0] != labels.shape[0]:
        raise ValueError("images/labels length mismatch")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    error_model = error_model or SconnaErrorModel(seed=0)
    n = images.shape[0]
    correct = {(mode, k): 0 for mode in ("float", "int8", "sconna") for k in (1, 5)}
    for start in range(0, n, batch_size):
        img = images[start : start + batch_size]
        lab = labels[start : start + batch_size]
        for mode in ("float", "int8", "sconna"):
            em = error_model if mode == "sconna" else None
            logits = qmodel.forward(img, mode=mode, error_model=em)
            counts = qmodel.count_top_k(logits, lab, (1, 5))
            correct[(mode, 1)] += counts[1]
            correct[(mode, 5)] += counts[5]
    out = {key: count / max(n, 1) for key, count in correct.items()}
    return AccuracyReport(
        model_name=model_name,
        top1_float=out[("float", 1)],
        top1_int8=out[("int8", 1)],
        top1_sconna=out[("sconna", 1)],
        top5_float=out[("float", 5)],
        top5_int8=out[("int8", 5)],
        top5_sconna=out[("sconna", 5)],
    )
