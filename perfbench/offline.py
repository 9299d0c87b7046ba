"""Workload ``offline_zoo_b32``: the engine and the ADC noise, nothing else.

One process, no serving stack.  Each pass runs one seeded batch of 32
images through each of the paper's four CNNs with the error model that
served traffic uses: one seeded ``SconnaErrorModel`` per image, held by
``PerRequestErrorModels``.  A pass is the unit of latency; throughput
counts every image of every proxy.
"""

from __future__ import annotations

import time

from harness import (
    CALIB_IMAGES,
    PROXIES,
    STAGES,
    Outcome,
    engine_breakdown,
    env_metrics,
    env_record,
    image_pool,
    median,
    noise_probe,
    oracle_batch,
    pct,
    profiled_forward,
    quantized_proxy,
    reference_rungs,
    request_models,
    same_bits,
    sub_seed,
)

BATCH = 32
#: setups per run; setup_s is their median
N_SETUPS = 3
#: passes whose logits the per-layer oracle re-derives after the timed loop
CHECKED_PASSES = (0, 3, 7)


class _Inputs:
    """The seeded image batches and per-image ADC seeds of every pass."""

    def __init__(self, seed: int) -> None:
        self.pool = image_pool(seed, n_per_class=16)          # 160 images
        self.calibration = self.pool[:CALIB_IMAGES]
        self.n_batches = self.pool.shape[0] // BATCH
        self.seed_base = sub_seed(seed, 3)

    def batch(self, k: int):
        j = k % self.n_batches
        return self.pool[j * BATCH:(j + 1) * BATCH]

    def seeds(self, k: int) -> "list[int]":
        first = self.seed_base + k * BATCH
        return list(range(first, first + BATCH))


def _setup(inputs: _Inputs, seed: int):
    """Build, quantize, plan and autotune the four proxies up to their
    first answers; returns (seconds, models, first-pass logits)."""
    t0 = time.perf_counter()
    models = {name: quantized_proxy(name, seed, inputs.calibration) for name in PROXIES}
    answers = {
        name: qm.forward(inputs.batch(0), mode="sconna",
                         error_model=request_models(inputs.seeds(0)))
        for name, qm in models.items()
    }
    return time.perf_counter() - t0, models, answers


def _check_pass(out: Outcome, models, inputs: _Inputs, k: int, answers) -> None:
    for name, qm in models.items():
        want = oracle_batch(qm, inputs.batch(k), inputs.seeds(k))
        out.check(same_bits(answers[name], want), f"{name} pass {k}")


def _passes(models, inputs: _Inputs, seconds: float, out: Outcome, first: int = 0,
            keep=CHECKED_PASSES):
    """Back-to-back noisy passes for ``seconds``; returns
    (pass wall times, images done, kept logits by pass)."""
    kept: "dict[int, dict]" = {}
    times: "list[float]" = []
    ends: "list[float]" = []
    forwards: "dict[str, list[float]]" = {}
    images = 0
    k = first
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        batch, seeds = inputs.batch(k), inputs.seeds(k)
        t0 = time.perf_counter()
        for name, qm in models.items():
            out.attempted += 1
            t1 = time.perf_counter()
            try:
                logits = qm.forward(batch, mode="sconna",
                                    error_model=request_models(seeds))
            except Exception as exc:  # counted, never fatal to the run
                out.fail(1, f"{name} pass {k}: {type(exc).__name__}: {exc}")
                continue
            forwards.setdefault(name, []).append(time.perf_counter() - t1)
            images += batch.shape[0]
            if k - first in keep:
                kept.setdefault(k, {})[name] = logits
        times.append(time.perf_counter() - t0)
        ends.append(time.perf_counter() - start)
        k += 1
        if time.perf_counter() >= deadline:
            out.series.setdefault("pass_s", []).extend(zip(ends, times))
            for name, fwd in forwards.items():
                out.series.setdefault(f"forward_s.{name}", []).extend(fwd)
            return times, images, kept


def run(seed: int, seconds: float, trace: bool, out: Outcome) -> None:
    inputs = _Inputs(seed)
    setups, reference = [], None
    for _ in range(1 if trace else N_SETUPS):
        dt, models, answers = _setup(inputs, seed)
        setups.append(dt)
        if reference is None:
            _check_pass(out, models, inputs, 0, answers)
            reference = answers
        else:
            for name in PROXIES:
                out.check(same_bits(answers[name], reference[name]),
                          f"{name} repeated setup")
    out.env = env_record(models)

    if not trace:
        t0 = time.perf_counter()
        times, images, kept = _passes(models, inputs, seconds, out, first=1)
        elapsed = time.perf_counter() - t0
        for k, answers in sorted(kept.items()):
            _check_pass(out, models, inputs, k, answers)
        out.metrics.update({
            "setup_s": median(setups),
            "img_per_s": images / elapsed,
            "latency_p50_ms": median(times) * 1e3,
        })
        out.notes.append(f"{len(times)} passes of {len(PROXIES)} x batch {BATCH}, "
                         f"p99 {pct(times, 99.0) * 1e3:.1f} ms")
        return
    _traced(models, inputs, seconds, out)


def _traced(models, inputs: _Inputs, seconds: float, out: Outcome) -> None:
    """Per-layer run: passes alternate between untraced and traced
    (engine profiling plus the noise wrapper), so the tracing overhead
    compares neighbours rather than two stretches of a drifting host;
    then the reference rungs."""
    plain, per_pass, forwards = [], [], {name: [] for name in models}
    with noise_probe() as probe:
        k = 1
        deadline = time.perf_counter() + 0.8 * seconds
        while not per_pass or time.perf_counter() < deadline:
            times, _, _ = _passes(models, inputs, 0.0, out, first=k, keep=())
            plain.append(times[0])
            batch, seeds = inputs.batch(k), inputs.seeds(k)
            records = []
            for name, qm in models.items():
                out.attempted += 1
                logits, record = profiled_forward(qm, batch, seeds, probe)
                records.append(record)
                forwards[name].append(record[0])
                if not per_pass:  # profiling must not change a bit
                    out.check(same_bits(logits, oracle_batch(qm, batch, seeds)),
                              f"{name} traced pass")
            # one pass is the unit: sum the four proxies' records
            per_pass.append((
                sum(r[0] for r in records),
                {stage: sum(r[1][stage] for r in records) for stage in STAGES},
                sum(r[2] for r in records),
                sum(r[3] for r in records),
            ))
            k += 1

    m = out.metrics
    m.update(env_metrics(models.values()))
    for name in PROXIES:
        m[f"engine.forward_ms.{name}"] = median(forwards[name]) * 1e3
    m.update(engine_breakdown(per_pass))
    m.update(reference_rungs(models.values(), inputs.batch(0), repeats=3))
    m["tail.latency_p99_ms"] = pct(plain, 99.0) * 1e3
    m["trace.overhead_pct"] = 100.0 * (m["engine.noisy_ms"] / (median(plain) * 1e3) - 1.0)
    out.notes.append(f"{len(per_pass)} traced passes, each after an untraced one")
