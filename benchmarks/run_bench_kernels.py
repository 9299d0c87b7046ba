"""Standalone kernel-benchmark runner with a JSON perf trajectory.

Times the repository's hot kernels (no pytest required) and writes
``BENCH_kernels.json`` at the repo root::

    PYTHONPATH=src python benchmarks/run_bench_kernels.py

Each record carries the op name, best wall-time, a throughput figure and
- where a reference implementation exists - the measured speedup, so
successive PRs can diff the file and catch perf regressions the same way
the tests catch functional ones.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_kernels.json"


def best_time(fn, repeats: int = 5, warmup: int = 1) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main(smoke: bool = False, json_out: "Path | None" = None) -> None:
    from repro.arch.events import EventKernel
    from repro.cnn.engine import (
        SconnaEngine,
        compile_layer_plan,
        sconna_matmul_reference,
    )
    from repro.cnn.functional import conv2d
    from repro.core.vdpe import SconnaVDPE
    from repro.stochastic.arithmetic import sc_vdp
    from repro.stochastic.lut import OsmLookupTable
    from repro.utils import native
    from repro.utils.cores import usable_cores

    rng = np.random.default_rng(0)
    results = []

    def record(op, seconds, work_items, unit, reference_s=None, note=None):
        entry = {
            "op": op,
            "wall_time_s": round(seconds, 6),
            "throughput": round(work_items / seconds, 1),
            "throughput_unit": unit,
        }
        if reference_s is not None:
            entry["reference_wall_time_s"] = round(reference_s, 6)
            entry["speedup_vs_reference"] = round(reference_s / seconds, 2)
        if note:
            entry["note"] = note
        results.append(entry)
        line = f"{op:42s} {seconds * 1e3:9.2f} ms"
        if reference_s is not None:
            line += f"   ({reference_s / seconds:5.1f}x vs reference)"
        print(line)

    # -- sconna quantized conv: the acceptance-criteria layer ------------
    # 64 output channels, 32x(3x3) kernels, 32x32 output map, batch 8.
    b, l, q, p = 8, 64, 32 * 3 * 3, 32 * 32
    cols = rng.integers(0, 257, size=(b, q, p)).astype(np.int64)
    w = rng.integers(-256, 257, size=(l, q)).astype(np.int64)
    group = 704  # vdpe_size 176 x 4 accumulation passes
    engine = SconnaEngine()
    plan = compile_layer_plan(w, 8, group)
    macs = b * l * q * p
    t_ref = best_time(lambda: sconna_matmul_reference(cols, w, 8, group), 3)
    t_vec = best_time(lambda: engine.matmul(plan, cols))
    assert np.array_equal(
        engine.matmul(plan, cols), sconna_matmul_reference(cols, w, 8, group)
    ), "vectorized engine diverged from reference"
    record("sconna_conv64x3x3_batch8_reference", t_ref, macs, "MAC/s")
    record(
        "sconna_conv64x3x3_batch8_vectorized", t_vec, macs, "MAC/s",
        reference_s=t_ref,
        note="native kernel" if native.native_available() else "numpy fallback",
    )
    eng_np = SconnaEngine(use_native=False)
    t_np = best_time(lambda: eng_np.matmul(plan, cols), 3)
    record(
        "sconna_conv64x3x3_batch8_numpy_only", t_np, macs, "MAC/s",
        reference_s=t_ref,
    )

    # -- count-domain VDP ------------------------------------------------
    i_vec = rng.integers(0, 257, size=4608)
    w_vec = rng.integers(-256, 257, size=4608)
    t = best_time(lambda: sc_vdp(i_vec, w_vec, 8))
    record("sc_vdp_4608", t, 4608, "MAC/s")

    # -- LUT fetches -----------------------------------------------------
    lut = OsmLookupTable(8)
    t = best_time(lambda: lut.fetch_product_count(200, 100))
    record("lut_fetch_scalar", t, 1, "fetch/s")
    i_arr = rng.integers(0, 256, size=10_000)
    w_arr = rng.integers(0, 256, size=10_000)
    t_arr = best_time(lambda: lut.fetch_product_counts(i_arr, w_arr))
    record(
        "lut_fetch_array_10k", t_arr, 10_000, "fetch/s",
        reference_s=t * 10_000,
    )

    # -- im2col conv -----------------------------------------------------
    x = rng.normal(size=(3, 32, 32))
    wc = rng.normal(size=(16, 3, 3, 3))
    t = best_time(lambda: conv2d(x, wc, padding=1))
    record("conv2d_16x3x3_im2col", t, 16 * 27 * 1024, "MAC/s")

    # -- event kernel ----------------------------------------------------
    def run_10k():
        k = EventKernel()
        for j in range(10_000):
            k.schedule(j * 1e-9, lambda: None)
        return k.run()

    def run_10k_batch():
        k = EventKernel()
        k.schedule_batch((j * 1e-9 for j in range(10_000)), lambda: None)
        return k.run()

    t_loop = best_time(run_10k)
    record("event_kernel_10k_schedule_loop", t_loop, 10_000, "event/s")
    t_batch = best_time(run_10k_batch)
    record(
        "event_kernel_10k_schedule_batch", t_batch, 10_000, "event/s",
        reference_s=t_loop,
    )

    # -- VDPE full vector ------------------------------------------------
    vdpe = SconnaVDPE(seed=0)
    t = best_time(lambda: vdpe.compute_vdp(i_vec, w_vec, apply_adc_error=False))
    record("vdpe_compute_vdp_4608", t, 4608, "MAC/s")

    # -- whole-network end to end: the fused plan -------------------------
    # One proxy CNN, batch 8, int8 and sconna (ideal ADC, so the run is
    # deterministic and the time is pure execution cost), then the
    # served sconna path: seeded per-request ADC noise at batch 1, 8
    # and 32.  The fused NetworkPlan must be bit-identical to the
    # per-layer oracle - asserted here before timing; the oracle itself
    # is not timed.
    from repro.cnn.datasets import IMAGE_SHAPE
    from repro.cnn.inference import QuantizedModel
    from repro.cnn.train import build_proxy
    from repro.stochastic.error_models import (
        PerRequestErrorModels,
        SconnaErrorModel,
    )

    calib = rng.random((32, *IMAGE_SHAPE))
    qm = QuantizedModel.from_trained(build_proxy("mnet_proxy"), calib)
    x = rng.random((8, *IMAGE_SHAPE))
    e2e_reps = 30 if smoke else 60
    for mode in ("int8", "sconna"):
        def em():
            return SconnaErrorModel(adc_mape=0.0) if mode == "sconna" else None

        assert np.array_equal(
            qm.forward(x, mode=mode, error_model=em(), fused=False),
            qm.forward(x, mode=mode, error_model=em(), fused=True),
        ), "fused plan diverged from the per-layer oracle"
        t_fus = best_time(
            lambda: qm.forward(x, mode=mode, error_model=em(), fused=True),
            repeats=e2e_reps, warmup=3,
        )
        record(
            f"mnet_proxy_e2e_batch8_{mode}_fused", t_fus, x.shape[0], "img/s",
            note="whole-network fused plan"
                 + (", ideal ADC" if mode == "sconna" else ""),
        )

    def served(batch):
        # one seeded ADC model per image, built per call as served
        # traffic builds them
        return PerRequestErrorModels(
            [SconnaErrorModel(seed=s) for s in range(batch)]
        )

    xs = rng.random((32, *IMAGE_SHAPE))
    for batch in (1, 8, 32):
        xb = xs[:batch]
        assert np.array_equal(
            qm.forward(xb, mode="sconna", error_model=served(batch),
                       fused=False),
            qm.forward(xb, mode="sconna", error_model=served(batch),
                       fused=True),
        ), "noisy fused plan diverged from the per-layer oracle"
        t_fus = best_time(
            lambda: qm.forward(xb, mode="sconna", error_model=served(batch),
                               fused=True),
            repeats=e2e_reps, warmup=3,
        )
        record(
            f"mnet_proxy_e2e_batch{batch}_sconna_noisy_fused", t_fus, batch,
            "img/s",
            note="whole-network fused plan, seeded per-request ADC noise",
        )

    payload = {
        "generated_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": len(usable_cores()),
        "native_kernel": native.native_available(),
        "results": results,
    }
    out_path = json_out or OUTPUT
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fewer repeats (CI regression guard)")
    parser.add_argument("--json-out", type=Path, default=None,
                        help="write results here instead of BENCH_kernels.json")
    args = parser.parse_args()
    main(smoke=args.smoke, json_out=args.json_out)
