"""Shared pieces of the served-path benchmark.

Everything a workload needs besides its own traffic shape lives here:
seeded inputs built only through the public ``repro`` API, the
bit-for-bit output check, timing wrappers the benchmark installs around
public functions (the program itself records nothing new), statistics,
and the environment record.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.cnn import PROXY_MODELS, QuantizedModel, build_proxy, generate_dataset
from repro.stochastic.error_models import PerRequestErrorModels, SconnaErrorModel

#: the paper's four CNNs (Table V), as their trainable proxies
PROXIES = tuple(PROXY_MODELS)
#: the proxy every served workload hosts (MobileNet_V2's stand-in)
SERVED_PROXY = "mnet_proxy"
#: images of the calibration batch that sets activation scales
CALIB_IMAGES = 32


def sub_seed(seed: int, *keys: int) -> int:
    """A 31-bit seed derived from the workload seed and a key path, so
    every input stream is a pure function of ``--seed``."""
    state = np.random.SeedSequence([int(seed), *map(int, keys)]).generate_state(1)
    return int(state[0] & 0x7FFFFFFF)


def image_pool(seed: int, n_per_class: int) -> np.ndarray:
    """Seeded float32 ``(10 * n_per_class, 3, 24, 24)`` synthetic images."""
    return generate_dataset(n_per_class, seed=sub_seed(seed, 1)).images


def quantized_proxy(name: str, seed: int, calibration: np.ndarray) -> QuantizedModel:
    """One proxy network with seeded weights, post-training quantized on
    the seeded calibration batch."""
    net = build_proxy(name, seed=sub_seed(seed, 2, PROXIES.index(name)))
    return QuantizedModel.from_trained(net, calibration)


def request_models(seeds) -> PerRequestErrorModels:
    """The served error model of a batch: one seeded ADC model per image."""
    return PerRequestErrorModels([SconnaErrorModel(seed=int(s)) for s in seeds])


def oracle_batch(qmodel: QuantizedModel, images: np.ndarray, seeds) -> np.ndarray:
    """Per-layer reference forward of a batch of seeded requests."""
    return qmodel.forward(
        images, mode="sconna", error_model=request_models(seeds), fused=False
    )


def oracle_solo(qmodel: QuantizedModel, image: np.ndarray, seed: int) -> np.ndarray:
    """Per-layer reference forward of one seeded request served alone."""
    return qmodel.forward(
        image[None], mode="sconna", error_model=SconnaErrorModel(seed=int(seed)),
        fused=False,
    )


def same_bits(got, want) -> bool:
    """Bit-for-bit equality of two logit arrays (shape, dtype and bytes)."""
    got, want = np.asarray(got), np.asarray(want)
    return (
        got.shape == want.shape
        and got.dtype == want.dtype
        and got.tobytes() == want.tobytes()
    )


# -- statistics ---------------------------------------------------------------
def pct(values, q: float) -> float:
    """Linear-interpolated percentile (0.0 for an empty sample)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return pct(values, 50.0)


# -- timing wrappers ------------------------------------------------------------
class Probe:
    """Timing wrappers installed around public functions.

    ``wrap`` replaces ``owner.attr`` with a wrapper that records each
    call's wall time under ``name``; ``take`` returns and clears a
    name's samples, so a workload reads per-window totals.  Wrapping
    changes no arguments or results.
    """

    def __init__(self) -> None:
        self.samples: "dict[str, list[float]]" = {}
        self._undo: "list[tuple[object, str, object]]" = []

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        bucket = self.samples.setdefault(name, [])
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                bucket.append(clock() - t0)

        timed.__wrapped__ = original
        setattr(owner, attr, timed)
        self._undo.append((owner, attr, original))

    def take(self, name: str) -> "list[float]":
        bucket = self.samples.setdefault(name, [])
        out = list(bucket)
        bucket.clear()
        return out

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


#: forward(profile=...) span names -> the benchmark's engine stage names
STAGE_SPANS = {
    "quantize": "quantize",
    "im2col": "im2col",
    "engine.matmul": "matmul",
    "engine.remainder": "remainder",
    "requantize": "requantize",
    "pool": "pool",
}


STAGES = tuple(STAGE_SPANS.values())


def stage_totals(profile) -> "dict[str, float]":
    """Seconds per named engine stage in one ``forward(profile=...)`` list."""
    out = dict.fromkeys(STAGES, 0.0)
    for name, start, end, _tags in profile:
        stage = STAGE_SPANS.get(name)
        if stage is not None:
            out[stage] += end - start
    return out


def profiled_forward(qm: QuantizedModel, images: np.ndarray, seeds, probe: "Probe"):
    """One served-path forward with engine profiling on; returns the
    logits and a record (wall s, seconds per stage, noise s, noise calls).
    ``probe`` must wrap ``PerRequestErrorModels.apply_to_counts`` as
    ``"noise"`` (see :func:`noise_probe`)."""
    profile: list = []
    probe.take("noise")
    t0 = time.perf_counter()
    logits = qm.forward(images, mode="sconna", error_model=request_models(seeds),
                        profile=profile)
    wall = time.perf_counter() - t0
    noise = probe.take("noise")
    return logits, (wall, stage_totals(profile), sum(noise), len(noise))


@contextmanager
def noise_probe():
    """A :class:`Probe` timing the ADC-noise draw for the ``with`` block."""
    probe = Probe()
    probe.wrap(PerRequestErrorModels, "apply_to_counts", "noise")
    try:
        yield probe
    finally:
        probe.restore()


def engine_breakdown(records) -> "dict[str, float]":
    """Per-layer engine metrics from profiled-forward records of one unit
    of work (a pass or a forward): medians of the named stages, of the
    noise draw, and of what neither covers."""
    noisy_s = median([r[0] for r in records])
    stages_s = {stage: median([r[1][stage] for r in records]) for stage in STAGES}
    noise_s = median([r[2] for r in records])
    named = sum(stages_s.values())
    out = {f"engine.{stage}_ms": sec * 1e3 for stage, sec in stages_s.items()}
    out.update({
        "engine.noisy_ms": noisy_s * 1e3,
        "engine.self_ms": (noisy_s - named - noise_s) * 1e3,
        "engine.coverage_pct": 100.0 * (named + noise_s) / noisy_s,
        "noise.ms": noise_s * 1e3,
        "noise.calls": median([r[3] for r in records]),
        "noise.share_pct": 100.0 * noise_s / noisy_s,
    })
    return out


def reference_rungs(models, images: np.ndarray, repeats: int) -> "dict[str, float]":
    """Median wall time of the same batch through the ideal-ADC and the
    exact int8 datapaths, summed over ``models``."""
    out = {}
    for name, kwargs in (
        ("ideal", {"mode": "sconna", "error_model": SconnaErrorModel(adc_mape=0.0)}),
        ("int8", {"mode": "int8"}),
    ):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for qm in models:
                qm.forward(images, **kwargs)
            times.append(time.perf_counter() - t0)
        out[f"engine.{name}_ms"] = median(times) * 1e3
    return out


def autotune_counts(models) -> "dict[str, int]":
    """Stages per remainder-kernel pick across the models' autotune maps."""
    counts = {"split": 0, "cols": 0, "auto": 0}
    for qm in models:
        for pick in qm.autotune.values():
            kind = pick.get("remainder")
            if kind in counts:
                counts[kind] += 1
    return counts


def env_metrics(models) -> "dict[str, float]":
    """Cores, native kernel, autotune switch and picks as numbers."""
    from repro.utils import native

    picks = autotune_counts(models)
    return {
        "env.cores": float(len(os.sched_getaffinity(0))),
        "env.native": 1.0 if native.native_available() else 0.0,
        "env.autotune": 0.0 if os.environ.get("REPRO_AUTOTUNE") == "0" else 1.0,
        "autotune.split_stages": float(picks["split"]),
        "autotune.cols_stages": float(picks["cols"]),
        "autotune.auto_stages": float(picks["auto"]),
    }


def env_record(models_by_name) -> dict:
    """The environment line printed with every run."""
    from repro.utils import native

    return {
        "cores": sorted(os.sched_getaffinity(0)),
        "native_kernel": native.native_available(),
        "REPRO_AUTOTUNE": os.environ.get("REPRO_AUTOTUNE"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "autotune": {name: qm.autotune for name, qm in models_by_name.items()},
    }


# -- results --------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run hands back to the launcher."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: "dict[str, float]" = field(default_factory=dict)
    notes: "list[str]" = field(default_factory=list)
    env: dict = field(default_factory=dict)
    #: raw measurements, name -> [(seconds since the run's first timed
    #: sample, value)], written out next to the result for inspection
    series: "dict[str, list]" = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Record one output comparison; a mismatch fails the run."""
        if not ok:
            self.correct = False
            self.notes.append(f"output mismatch: {what}")

    def fail(self, n: int, why: str) -> None:
        if n:
            self.failed += n
            self.notes.append(f"{n} failed: {why}")

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
            "notes": self.notes,
            "env": self.env,
            "series": self.series,
        }))


def fill_missing(metrics: "dict[str, float]", names) -> None:
    """Layers a workload never enters did no work there: they read 0."""
    for name in names:
        metrics.setdefault(name, 0.0)
