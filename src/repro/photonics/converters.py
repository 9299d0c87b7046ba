"""Behavioural ADC / DAC models with latency, power, area and error.

Paper Table IV uses three converters:

* AMM/MAM **DAC** - 10 GS/s 4-bit (Juanda et al.): 30 mW, 0.034 mm2,
  0.78 ns latency; one per modulator MRR in the analog baselines.
* AMM/MAM **ADC** - 5 GS/s SAR (Guo et al.): 29 mW, 0.103 mm2, 0.78 ns.
* SCONNA **ADC** - 1 GS/s 8-bit SAR-flash (Oh et al.): 2.55 mW,
  0.002 mm2, 0.78 ns; one per PCA.

Functionally we model an ideal mid-tread quantizer plus a calibrated
random error term: Section V-C measures a **1.3 % mean absolute
percentage error** on the PCA's ADC output, which the accuracy study
(Table V) injects into every VDP result.  For a zero-mean Gaussian
relative error, ``E|eps| = sigma * sqrt(2/pi)``, so we store
``sigma = MAPE * sqrt(pi/2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import make_rng


@dataclass(frozen=True)
class ConverterSpec:
    """Static latency / power / area descriptor of a data converter."""

    name: str
    resolution_bits: int
    latency_s: float
    power_w: float
    area_mm2: float

    def __post_init__(self) -> None:
        if self.resolution_bits <= 0:
            raise ValueError("resolution_bits must be positive")
        if self.latency_s < 0 or self.power_w < 0 or self.area_mm2 < 0:
            raise ValueError("latency/power/area cannot be negative")


#: Table IV converter instances.
SCONNA_ADC = ConverterSpec("sar-flash-8b-1gsps", 8, 0.78e-9, 2.55e-3, 0.002)
ANALOG_ADC = ConverterSpec("sar-5gsps", 8, 0.78e-9, 29e-3, 0.103)
ANALOG_DAC = ConverterSpec("dac-4b-10gsps", 4, 0.78e-9, 30e-3, 0.034)


class QuantizingADC:
    """Mid-tread quantizer over a configurable full-scale range."""

    def __init__(self, spec: ConverterSpec, full_scale: float) -> None:
        if full_scale <= 0:
            raise ValueError("full_scale must be positive")
        self.spec = spec
        self.full_scale = full_scale
        self.levels = (1 << spec.resolution_bits) - 1

    def convert(self, value: np.ndarray | float) -> np.ndarray:
        """Quantize ``value`` (clipped to [0, full_scale]) to integer codes."""
        v = np.clip(np.asarray(value, dtype=float), 0.0, self.full_scale)
        return np.rint(v / self.full_scale * self.levels).astype(np.int64)

    def reconstruct(self, codes: np.ndarray | int) -> np.ndarray:
        """Map integer codes back to the analog domain."""
        c = np.asarray(codes, dtype=float)
        return c / self.levels * self.full_scale


@dataclass
class AdcErrorModel:
    """Calibrated multiplicative error of the PCA's ADC (Section V-C).

    ``mape`` is the target mean absolute percentage error (paper: 1.3 %).
    :meth:`apply` perturbs values as ``v * (1 + eps)`` with
    ``eps ~ N(0, sigma)``, ``sigma = mape * sqrt(pi/2)``, then rounds back
    to integers (VDP results are integer counts of ones).
    """

    mape: float = 0.013
    seed: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.mape < 1.0):
            raise ValueError(f"mape must be in [0, 1), got {self.mape}")
        self._rng = make_rng(self.seed)

    @property
    def sigma(self) -> float:
        return self.mape * math.sqrt(math.pi / 2.0)

    def apply(
        self, values: np.ndarray, *, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Perturb integer VDP results with the calibrated relative error.

        Returns int64 counts.  With ``out`` (a C-contiguous float64
        array of ``values``' shape that does not overlap it) the same
        counts are written there as float64 and returned, with no
        temporary: the draw lands in ``out`` and is scaled, offset and
        multiplied in place.  ``normal(0, sigma)`` is
        ``0 + sigma * standard_normal`` with the same generator calls,
        so both forms give the same bits.
        """
        v = np.asarray(values, dtype=float)
        if out is None:
            if self.mape == 0.0:
                return np.rint(v).astype(np.int64)
            eps = self._rng.normal(0.0, self.sigma, size=v.shape)
            return np.rint(v * (1.0 + eps)).astype(np.int64)
        if self.mape == 0.0:
            return np.rint(v, out=out)
        self._rng.standard_normal(out=out)
        out *= self.sigma
        out += 1.0
        out *= v
        return np.rint(out, out=out)

    def measured_mape(self, n_samples: int = 200_000, magnitude: float = 1e4) -> float:
        """Monte-Carlo estimate of the realised MAPE (for calibration tests)."""
        rng = make_rng(0 if self.seed is None else self.seed + 1)
        truth = rng.uniform(magnitude / 2, magnitude, size=n_samples)
        noisy = truth * (1.0 + rng.normal(0.0, self.sigma, size=n_samples))
        return float(np.mean(np.abs(noisy - truth) / truth))
