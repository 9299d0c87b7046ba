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

import functools
import hashlib
import math
import operator
import secrets
import threading
from dataclasses import dataclass

import numpy as np


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


#: SplitMix64's increment (2**64 / golden ratio)
_GAMMA = 0x9E3779B97F4A7C15
#: serializes stream reservations, so threads sharing a model never
#: receive overlapping images
_RESERVE = threading.Lock()
#: Wichura's AS241 inverse-normal-CDF rational approximations, highest
#: power first: (numerator, denominator) for |p - 0.5| <= 0.425, then
#: for the tail, in sqrt(-log p) - 1.6
_AS241_CENTRAL = (
    (2509.0809287301226727, 33430.575583588128105, 67265.770927008700853,
     45921.953931549871457, 13731.693765509461125, 1971.5909503065514427,
     133.14166789178437745, 3.387132872796366608),
    (5226.495278852854561, 28729.085735721942674, 39307.89580009271061,
     21213.794301586595867, 5394.1960214247511077, 687.1870074920579083,
     42.313330701600911252, 1.0))
_AS241_TAIL = (
    (7.7454501427834140764e-4, 0.0227238449892691845833,
     0.24178072517745061177, 1.27045825245236838258, 3.64784832476320460504,
     5.7694972214606914055, 4.6303378461565452959, 1.42343711074968357734),
    (1.05075007164441684324e-9, 5.475938084995344946e-4,
     0.0151986665636164571966, 0.14810397642748007459,
     0.68976733498510000455, 1.6763848301838038494, 2.05319162663775882187,
     1.0))


def _horner(coeffs: tuple, r: np.ndarray) -> np.ndarray:
    """Horner's rule, highest power first, one rounding per operation."""
    acc = coeffs[0] * r
    for c in coeffs[1:-1]:
        acc += c
        acc *= r
    return acc + coeffs[-1]


@functools.cache
def noise_table() -> np.ndarray:
    """The ADC stream's inverse-normal-CDF nodes, built once per process.

    Node ``j`` of the ``2**16 + 1`` is ``Phi^-1((j + 0.5) / 65537)``,
    mirrored so the table is exactly antisymmetric.  Its bits are the
    same on every host: AS241 runs on NumPy's correctly rounded
    ``+ - * / sqrt`` and the tail's logarithm is libm's (:func:`math.log`),
    never NumPy's SIMD ``log``.  The native pass reads the same array.
    """
    p = (np.arange(32769) + 0.5) / 65537
    lower = np.empty_like(p)
    central = p >= 0.075
    q = p[central] - 0.5
    r = 0.180625 - q * q
    num, den = _AS241_CENTRAL
    lower[central] = _horner(num, r) * q / _horner(den, r)
    # p >= 0.5 / 65537 keeps sqrt(-log p) inside AS241's tail range
    r = np.sqrt([-math.log(x) for x in p[~central].tolist()]) - 1.6
    num, den = _AS241_TAIL
    lower[~central] = -(_horner(num, r) / _horner(den, r))
    table = np.concatenate([lower, -lower[-2::-1]])
    table.flags.writeable = False
    return table


def stream_key(seed: "int | None") -> int:
    """The 64-bit ADC stream key of ``seed``: a fixed hash of the integer,
    the same on every host.  ``None`` draws a fresh random key."""
    if seed is None:
        return secrets.randbits(64)
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    digest = hashlib.blake2b(b"%d" % seed, digest_size=8, person=b"sconna-adc")
    return int.from_bytes(digest.digest(), "little")


def noise_block(layer: int, group: int) -> int:
    """The counter block of a layer's psum group."""
    return (layer << 32) | group


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a uint64 array (wrapping)."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


@dataclass(frozen=True)
class AdcDraw:
    """Where a batch's images sit in their ADC noise streams: per image,
    its stream's ``keys``, its index ``images`` in that stream, and
    ``sigma`` (0 leaves its counts as they are).  Slicing selects
    images, so a batch cut into pieces draws what it draws whole."""

    keys: np.ndarray                 #: (B,) uint64
    images: np.ndarray               #: (B,) uint64
    sigma: np.ndarray                #: (B,) float64

    @classmethod
    def reserve(cls, streams) -> "AdcDraw":
        """The next ``n`` images of each ``(AdcErrorModel | None, n)`` in
        ``streams``, reserved; None stands for ``n`` ideal images."""
        keys: "list[int]" = []
        images: "list[int]" = []
        sigma: "list[float]" = []
        for adc, n in streams:
            first = 0 if adc is None else adc.reserve(n)
            keys += [0 if adc is None else adc.key] * n
            images += range(first, first + n)
            sigma += [0.0 if adc is None else adc.sigma] * n
        return cls(np.array(keys, dtype=np.uint64),
                   np.array(images, dtype=np.uint64), np.array(sigma))

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, sl: slice) -> "AdcDraw":
        return AdcDraw(self.keys[sl], self.images[sl], self.sigma[sl])


def stream_normals(draw: AdcDraw, block: int, n: int) -> np.ndarray:
    """The ``(B, n)`` standard normals at counters ``0..n-1`` of each
    image's stream in ``block``: ``z = Q(h(h(h(key, image), block), c))``,
    with ``h(k, c)`` SplitMix64's finalizer of ``k + c * gamma`` and
    ``Q`` the :func:`noise_table` read at the hash's top 16 bits and
    interpolated linearly on the next 16."""
    key = _mix(draw.keys + draw.images * np.uint64(_GAMMA))
    key += np.uint64(block * _GAMMA % (1 << 64))
    u = _mix(_mix(key)[:, None] + np.arange(n, dtype=np.uint64) * np.uint64(_GAMMA))
    table = noise_table()
    i = (u >> 48).astype(np.intp)
    frac = ((u >> 32) & 0xFFFF).astype(np.float64)
    frac *= 1.0 / 65536
    lo = table[i]
    z = table[i + 1] - lo
    z *= frac
    z += lo
    return z


def adc_noise(counts: np.ndarray, draw: AdcDraw, block: int = 0) -> np.ndarray:
    """``rint(v * (1 + sigma * z))`` over ``counts`` (float64): axis 0
    is the images ``draw`` places, and count ``c`` of an image (C order)
    takes counter ``c`` of :func:`stream_normals` in ``block``
    (:func:`noise_block`).  The oracle's arithmetic, which the native
    pass (:func:`repro.utils.native.adc_noise_fold`) repeats bit for bit.
    """
    v = np.asarray(counts, dtype=np.float64).reshape(len(draw), -1)
    z = stream_normals(draw, block, v.shape[1])
    z *= draw.sigma[:, None]
    z += 1.0
    z *= v
    return np.rint(z, out=z).reshape(np.shape(counts))


@dataclass
class AdcErrorModel:
    """Calibrated multiplicative error of the PCA's ADC (Section V-C).

    ``mape`` is the target mean absolute percentage error (paper: 1.3 %).
    :meth:`apply` perturbs values as ``v * (1 + sigma * z)`` with ``z``
    standard normal, ``sigma = mape * sqrt(pi/2)``, then rounds back to
    integers (VDP results are integer counts of ones).

    ``z`` comes from a counter-based stream (:func:`adc_noise`): a pure
    function of the key (:func:`stream_key` of ``seed``) and the count's
    position.  Each use takes the stream's next images (:meth:`reserve`),
    so a model never repeats a draw and a fresh one with the same seed
    repeats the first.
    """

    mape: float = 0.013
    seed: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.mape < 1.0):
            raise ValueError(f"mape must be in [0, 1), got {self.mape}")
        self.key = stream_key(self.seed)
        #: the stream's next image index not yet handed out
        self.next_image = 0

    @property
    def sigma(self) -> float:
        return self.mape * math.sqrt(math.pi / 2.0)

    def reserve(self, n: int) -> int:
        """Hand out the stream's next ``n`` image indices; returns the
        first."""
        with _RESERVE:
            first = self.next_image
            self.next_image = first + n
        return first

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Perturb integer VDP results with the calibrated relative error.

        Axis 0 of ``values`` counts images (a scalar is one image), each
        the next of the stream.  Returns int64 counts.
        """
        v = np.atleast_1d(np.asarray(values, dtype=float))
        if self.mape != 0.0:
            v = adc_noise(v, AdcDraw.reserve([(self, len(v))]))
        return np.rint(v).astype(np.int64).reshape(np.shape(values))

    def measured_mape(self, n_samples: int = 200_000, magnitude: float = 1e4) -> float:
        """The realised MAPE of the stream's next ``n_samples`` draws on
        counts spread over ``[magnitude / 2, magnitude]`` (calibration)."""
        truth = np.rint(np.linspace(magnitude / 2, magnitude, n_samples))
        return float(np.mean(np.abs(self.apply(truth) - truth) / truth))

