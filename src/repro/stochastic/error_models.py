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

from dataclasses import dataclass, field

import numpy as np

from repro.photonics.converters import (
    AdcDraw,
    AdcErrorModel,
    adc_noise,
    noise_block,
    noise_table,
)
from repro.utils import native
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
        Seed of the ADC noise stream (``None``: a fresh random stream).
    """

    adc_mape: float = 0.013
    skirt_leakage: float = 0.0
    seed: int | None = None
    _adc: AdcErrorModel = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.skirt_leakage < 1.0):
            raise ValueError("skirt_leakage must be in [0, 1)")
        self._adc = AdcErrorModel(mape=self.adc_mape, seed=self.seed)

    def draw(self, n_images: int) -> AdcDraw:
        """Reserve the next ``n_images`` images of this model's stream."""
        return AdcDraw.reserve([(self._adc, n_images)])

    def apply_to_counts(
        self,
        counts: np.ndarray,
        skirt_slots: np.ndarray | None = None,
        *,
        draw: "AdcDraw | None" = None,
        layer: int = 0,
        group: int = 0,
        fold: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Perturb ideal PCA counts.

        ``skirt_slots`` (same shape as ``counts``) gives, per VDP, the
        number of single-operand-'1' slots whose leakage charge lands on
        the PCA; omitted when ``skirt_leakage == 0``.  Without ``draw``
        this is a standalone draw (:meth:`AdcErrorModel.apply`, int64);
        with one, see :meth:`PerRequestErrorModels.apply_to_counts`.
        """
        vals = np.asarray(counts, dtype=float)
        if self.skirt_leakage > 0.0:
            if skirt_slots is None:
                raise ValueError(
                    "skirt_slots required when skirt_leakage is enabled"
                )
            vals = vals + self.skirt_leakage * np.asarray(skirt_slots, dtype=float)
        if draw is None:
            return self._adc.apply(vals)
        return _apply_draw(vals, draw, layer, group, fold)

    def ideal(self) -> bool:
        return self.adc_mape == 0.0 and self.skirt_leakage == 0.0


def _apply_draw(vals, draw, layer, group, fold):
    """The stream of one layer's psum group over ``vals``; with ``fold``
    (``(B, L, P)``) the sign-split noisy counts fold into it natively
    when the library is loaded."""
    block = noise_block(layer, group)
    if fold is None:
        return adc_noise(vals, draw, block)
    if not native.adc_noise_fold(
        vals, draw.keys, draw.images, draw.sigma, noise_table(), block, fold
    ):
        noisy = adc_noise(vals, draw, block)
        fold += noisy[:, : fold.shape[1]]
        fold -= noisy[:, fold.shape[1]:]
    return fold


class PerRequestErrorModels:
    """Batch-axis composite: one independent error model per request.

    The serving layer coalesces independent single-image requests into
    one engine batch, but each request must see the *same* ADC noise it
    would see served alone - otherwise results depend on which other
    requests happened to share the batch.  This wrapper carries one
    :class:`SconnaErrorModel` (or ``None`` for the ideal datapath) per
    request, plus the number of images each request contributed.

    A forward reserves the batch's images once (:meth:`draw`): each
    request's images take the next indices of its own model's stream,
    and every draw is a pure function of that stream's key and the
    count's position.  So a seeded request returns bit-identical logits
    whether it runs solo or packed with strangers, and the batch can be
    cut at any image.
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

    def draw(self, n_images: int) -> AdcDraw:
        """Reserve each request's images in its model's stream.  Raises
        ``ValueError`` when the batch does not hold exactly these
        requests' ``n_images`` images."""
        if n_images != self.n_images:
            raise ValueError(
                f"batch axis {n_images} does not match the "
                f"{self.n_images} images of the registered requests"
            )
        return AdcDraw.reserve(
            (None if m is None else m._adc, n)
            for m, n in zip(self.models, self.sizes)
        )

    def apply_to_counts(
        self,
        counts: np.ndarray,
        skirt_slots: np.ndarray | None = None,
        *,
        draw: "AdcDraw | None" = None,
        layer: int = 0,
        group: int = 0,
        fold: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Apply each request's stream to its own images (axis 0).

        ``draw`` is the forward's reservation (:meth:`draw`; taken here
        when omitted) and ``layer``/``group`` place the counts in each
        stream.  Returns float64 noisy counts; with ``fold``, a
        ``(B, L, P)`` array, the ``(B, 2L, P)`` ``[pos; neg]`` noisy
        counts are added to it as ``fold += noisy[:, :L] - noisy[:, L:]``
        (one native pass when the library is loaded) and ``fold`` is
        returned.
        """
        vals = np.asarray(counts, dtype=float)
        leak = [0.0 if m is None else m.skirt_leakage for m in self.models]
        if any(leak):
            if skirt_slots is None:
                raise ValueError(
                    "skirt_slots required when skirt_leakage is enabled"
                )
            per_image = np.repeat(leak, self.sizes)
            vals = vals + per_image.reshape(-1, *[1] * (vals.ndim - 1)) * skirt_slots
        if draw is None:
            draw = self.draw(len(vals))
        return _apply_draw(vals, draw, layer, group, fold)


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
    and the ADC error is one standalone draw over the ``(n_trials, 2)``
    count pairs: each trial takes the next image of ``model``'s stream.
    (Trial values differ from the seed's per-trial loop, which drew
    operands and noise from one generator; the statistics do not.)
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
