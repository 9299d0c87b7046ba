"""End-to-end error model of the SCONNA compute pipeline.

The stochastic datapath has three error sources, applied to the
count-domain VDP results in this order:

1. **floor rounding** of each product (inherent to the finite stream
   length; already part of :func:`repro.stochastic.arithmetic.sc_products`),
2. **PCA analog accumulation** - ideal in the calibrated configuration
   (Fig. 7(b) shows the TIR stays linear), but optional optical *skirt
   leakage* can be enabled: sub-threshold light from single-operand '0'
   slots deposits a small fraction of charge,
3. **ADC conversion error** - 1.3 % MAPE (Section V-C), modelled by
   :class:`repro.photonics.converters.AdcErrorModel`.

:class:`SconnaErrorModel` bundles these into one object the CNN
inference engine can apply per layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.photonics.converters import AdcErrorModel
from repro.utils.rng import make_rng


@dataclass
class SconnaErrorModel:
    """Perturbs ideal count-domain VDP results like the hardware would.

    Parameters
    ----------
    adc_mape:
        Mean absolute percentage error of the PCA's ADC (paper: 1.3 %).
    skirt_leakage:
        Fraction of a full '1' charge deposited by each *non-product*
        slot through the OAG's Lorentzian skirt (0 disables; a realistic
        value for the 0.6 nm/0.75 nm operating point is ~0.01-0.05).
        Requires per-VDP slot statistics, so it is applied as an expected
        offset proportional to the operand activity passed in.
    seed:
        Seed for the ADC noise draw.
    """

    adc_mape: float = 0.013
    skirt_leakage: float = 0.0
    seed: int | None = None
    _adc: AdcErrorModel = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.skirt_leakage < 1.0):
            raise ValueError("skirt_leakage must be in [0, 1)")
        self._adc = AdcErrorModel(mape=self.adc_mape, seed=self.seed)

    def apply_to_counts(
        self,
        counts: np.ndarray,
        skirt_slots: np.ndarray | None = None,
        *,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Perturb ideal PCA counts.

        ``skirt_slots`` (same shape as ``counts``) gives, per VDP, the
        number of single-operand-'1' slots whose leakage charge lands on
        the PCA; omitted when ``skirt_leakage == 0``.  ``out`` selects
        the in-place float64 form of :meth:`AdcErrorModel.apply` (same
        bits as the int64 result).
        """
        vals = np.asarray(counts, dtype=float)
        if self.skirt_leakage > 0.0:
            if skirt_slots is None:
                raise ValueError(
                    "skirt_slots required when skirt_leakage is enabled"
                )
            vals = vals + self.skirt_leakage * np.asarray(skirt_slots, dtype=float)
        return self._adc.apply(vals, out=out)

    def ideal(self) -> bool:
        return self.adc_mape == 0.0 and self.skirt_leakage == 0.0


class PerRequestErrorModels:
    """Batch-axis composite: one independent error model per request.

    The serving layer coalesces independent single-image requests into
    one engine batch, but each request must see the *same* ADC noise it
    would see served alone - otherwise results depend on which other
    requests happened to share the batch.  This wrapper carries one
    :class:`SconnaErrorModel` (or ``None`` for the ideal datapath) per
    request, plus the number of images each request contributed, and
    applies each model to its own contiguous slice of the batch axis.

    Because the engine consumes noise in a fixed per-layer, per-psum-
    group order with shapes ``(n_i, 2L, P)`` that depend only on the
    request's own image count ``n_i``, every request's RNG stream is
    identical across batch compositions: a seeded request returns
    bit-identical logits whether it runs solo or packed with strangers.
    """

    def __init__(
        self,
        models: "list[SconnaErrorModel | None]",
        sizes: "list[int] | None" = None,
    ) -> None:
        self.models = list(models)
        self.sizes = [1] * len(self.models) if sizes is None else list(sizes)
        if len(self.sizes) != len(self.models):
            raise ValueError("models/sizes length mismatch")
        if any(s < 1 for s in self.sizes):
            raise ValueError("request sizes must be >= 1")

    @property
    def n_images(self) -> int:
        return sum(self.sizes)

    def ideal(self) -> bool:
        return all(m is None or m.ideal() for m in self.models)

    def _check_batch(self, n_images: int) -> None:
        if n_images != self.n_images:
            raise ValueError(
                f"batch axis {n_images} does not match the "
                f"{self.n_images} images of the registered requests"
            )

    def apply_to_counts(
        self,
        counts: np.ndarray,
        skirt_slots: np.ndarray | None = None,
        *,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Apply each request's model to its own slice of the batch axis.

        Returns float64 counts.  Without ``out`` each noisy request
        takes the allocating int64 form; with ``out`` (C-contiguous
        float64, ``counts``' shape, not overlapping it) every slice is
        perturbed in place there - same generator calls, same bits.
        """
        vals = np.asarray(counts, dtype=float)
        self._check_batch(vals.shape[0])
        fresh = out is None
        if fresh:
            out = np.empty_like(vals)
        start = 0
        for model, size in zip(self.models, self.sizes):
            sl = slice(start, start + size)
            if model is None or model.ideal():
                # counts are exact integers; rint mirrors the noisy
                # branch's integer quantization without perturbing them
                np.rint(vals[sl], out=out[sl])
            else:
                noisy = model.apply_to_counts(
                    vals[sl],
                    None if skirt_slots is None else skirt_slots[sl],
                    out=None if fresh else out[sl],
                )
                if fresh:
                    out[sl] = noisy
            start += size
        return out

    def cut_points(self, n_images: int) -> "list[int]":
        """Image offsets where a batch of these requests can be cut into
        pieces computed independently: every request boundary, since a
        request's noise depends only on its own generator and image
        count.  None at all when two noisy requests share one generator,
        whose draws would then depend on the order the pieces ran in.
        Raises ``ValueError`` when the batch does not hold exactly these
        requests' ``n_images`` images.
        """
        self._check_batch(n_images)
        gens = [
            id(m._adc._rng)
            for m in self.models
            if m is not None and not m.ideal()
        ]
        if len(set(gens)) < len(gens):
            return []
        return list(itertools.accumulate(self.sizes[:-1]))

    def split(
        self, bounds: "list[tuple[int, int]]"
    ) -> "list[PerRequestErrorModels]":
        """The composites of the ``[start, stop)`` image ranges
        ``bounds``, each cut at :meth:`cut_points`."""
        first = {
            s: i
            for i, s in enumerate(itertools.accumulate(self.sizes, initial=0))
        }
        return [
            PerRequestErrorModels(
                self.models[first[a]:first[b]], self.sizes[first[a]:first[b]]
            )
            for a, b in bounds
        ]


@dataclass
class MonteCarloErrorStats:
    """Empirical error statistics of the SC pipeline on random VDPs.

    Used by the scalability/error analysis (Section V-C) and the SNG
    ablation to quantify how each error source propagates to VDP
    results.
    """

    mean_relative_error: float
    max_relative_error: float
    mape_percent: float


def measure_vdp_error(
    vdpe_size: int,
    precision_bits: int,
    model: SconnaErrorModel,
    n_trials: int = 200,
    seed: int | None = 0,
) -> MonteCarloErrorStats:
    """Monte-Carlo error of SC VDPs versus exact integer VDPs.

    Fully batched: all trial operands are drawn in one shot, the SC
    counts come from :func:`repro.stochastic.arithmetic.sc_vdp_batch`,
    and the ADC error is applied in a single vectorized draw over the
    ``(n_trials, 2)`` count pairs.  (The batched draws consume the RNG in
    a different order than the seed's per-trial loop, so individual trial
    values differ run-to-run across engine versions while the statistics
    are unchanged.)
    """
    from repro.stochastic.arithmetic import sc_vdp_batch  # local: avoid cycle

    rng = make_rng(seed)
    length = 1 << precision_bits
    i_mat = rng.integers(0, length, size=(n_trials, vdpe_size))
    w_mat = rng.integers(-length // 2, length // 2, size=(n_trials, vdpe_size))
    # Ideal (un-floored, noiseless) accumulations in the count domain.
    prods = i_mat.astype(float) * w_mat.astype(float) / length
    ideal_pos = np.where(prods > 0, prods, 0.0).sum(axis=1)
    ideal_neg = -np.where(prods < 0, prods, 0.0).sum(axis=1)
    pos, neg = sc_vdp_batch(i_mat, w_mat, precision_bits)
    noisy = model.apply_to_counts(np.stack([pos, neg], axis=1))
    measured = noisy[:, 0].astype(float) - noisy[:, 1].astype(float)
    # Normalise by the total accumulated magnitude - the scale the
    # paper's PCA/ADC MAPE is defined over (unsigned counts) - so a
    # signed VDP that cancels to ~0 does not inflate the metric.
    denom = np.maximum(ideal_pos + ideal_neg, 1.0)
    arr = np.abs(measured - (ideal_pos - ideal_neg)) / denom
    return MonteCarloErrorStats(
        mean_relative_error=float(arr.mean()),
        max_relative_error=float(arr.max()),
        mape_percent=float(arr.mean() * 100.0),
    )
