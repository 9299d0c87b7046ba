"""Serving-throughput benchmark: batching policies x execution backends.

Stands up the full request path (registry -> service -> scheduler ->
execution backend) around a zoo proxy model and drives it open-loop
(async submissions, then wait for every future):

* ``batch1`` - batching disabled (``max_batch_size=1``), thread backend:
  the naive "one request, one forward pass" server;
* ``dynamic`` - the dynamic micro-batching policy on the thread backend;
* ``dynamic`` x :class:`~repro.serve.backends.ProcessBackend` - the same
  policy sharded over N worker processes, swept over ``--shards`` on the
  ``sconna`` datapath (whose per-image compute dominates its batch cost,
  making it the datapath that needs multi-core scaling);
* ``router`` - the replica tier: ``--replicas`` real ``python -m
  repro.serve`` processes behind :class:`~repro.serve.router.Router`,
  driven over HTTP through the routed front-end, swept over replicas x
  shards (``--router-only`` reruns just this sweep and merges its
  records into ``BENCH_serve.json`` without touching the single-server
  baselines).

Writes ``BENCH_serve.json`` at the repo root::

    PYTHONPATH=src python benchmarks/run_bench_serve.py
    PYTHONPATH=src python benchmarks/run_bench_serve.py --backend both --shards 2,4

Each record carries sustained requests/s, p50/p95/p99 latency, the
batch-size histogram, and speedups over batch-1 (and, for process
records, over the single-process dynamic baseline - the multi-core
scaling number; on a single-core container expect <= 1x, the sharding
gain needs real cores).  ``--smoke`` runs a seconds-scale version for
CI without touching ``BENCH_serve.json``; ``--json-out PATH`` writes the
run's records wherever asked (the CI bench-regression checker consumes a
smoke run's output); ``--check-equivalence`` additionally pushes one
seeded request stream through both backends and fails unless the
per-request logits are bit-identical.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_serve.json"


def build_registry(root: Path, model_name: str, seed: int = 0):
    """Quantize an (untrained) proxy and register it - serving throughput
    does not depend on trained weights."""
    from repro.cnn.datasets import generate_dataset
    from repro.cnn.inference import QuantizedModel
    from repro.cnn.train import PROXY_MODELS, build_proxy
    from repro.serve import ModelRegistry

    ds = generate_dataset(n_per_class=8, seed=seed)
    qmodel = QuantizedModel.from_trained(
        build_proxy(model_name, seed=seed), ds.images[:32]
    )
    registry = ModelRegistry(root)
    registry.save(model_name, qmodel, arch_model=PROXY_MODELS[model_name])
    return registry, ds


def make_service(registry, ds, model_name, *, mode, policy, n_workers,
                 backend="thread", n_shards=2, trace_policy=None):
    from repro.serve import SconnaService, Tracer

    service = SconnaService(
        policy=policy, n_workers=n_workers, mode=mode,
        backend=backend, n_shards=n_shards, tracer=Tracer(trace_policy),
    )
    service.add_from_registry(registry, model_name, warm_shape=ds.images[0].shape)
    return service


def run_scenario(
    registry, ds, model_name, *, mode, policy, n_workers, n_requests,
    repeats=1, backend="thread", n_shards=2, images=None, trace_policy=None,
):
    """Open-loop drive: async-submit everything, wait for every future.

    Repeated ``repeats`` times on a fresh service; the fastest run is
    reported (the same best-of-N discipline as the kernel benchmark -
    slower runs measure scheduler noise, not the serving path).

    ``images`` overrides the request payloads (default ``ds.images``) -
    the uint8 scenario passes quantized-at-the-client images here to
    measure the integer-native request path.
    """
    imgs = ds.images if images is None else images
    best = None
    for _ in range(max(1, repeats)):
        service = make_service(
            registry, ds, model_name, mode=mode, policy=policy,
            n_workers=n_workers, backend=backend, n_shards=n_shards,
            trace_policy=trace_policy,
        )
        try:
            for i in range(8):  # warm the request path itself
                service.predict(
                    model_name, imgs[i % len(imgs)], seed=i,
                    timeout=300.0,
                )
            service.reset_metrics()  # keep warm-up out of the percentiles
            t0 = time.perf_counter()
            futures = [
                service.predict_async(
                    model_name, imgs[i % len(imgs)], seed=i
                )
                for i in range(n_requests)
            ]
            for f in futures:
                f.result(timeout=300.0)
            run_wall = time.perf_counter() - t0
            run_snap = service.metrics_snapshot()
        finally:
            service.close()
        if best is None or run_wall < best[0]:
            best = (run_wall, run_snap)
    wall, snap = best
    return {
        "mode": mode,
        "input_dtype": str(imgs.dtype),
        "backend": backend,
        "shards": n_shards if backend == "process" else None,
        "requests": n_requests,
        "workers": n_workers,
        "max_batch_size": policy.max_batch_size,
        "max_wait_ms": policy.max_wait_ms,
        "wall_time_s": round(wall, 4),
        "requests_per_s": round(n_requests / wall, 1),
        "latency_p50_ms": round(snap["latency"]["p50_ms"], 3),
        "latency_p95_ms": round(snap["latency"]["p95_ms"], 3),
        "latency_p99_ms": round(snap["latency"]["p99_ms"], 3),
        "mean_batch_images": round(snap["batch_size"]["mean"], 2),
        "batch_histogram": snap["batch_size"]["histogram"],
    }


def run_trace_overhead(registry, ds, model_name, *, n_requests, repeats):
    """The telemetry-cost gate: the batch-1 int8 workload under tracing
    off / default-sampled (1/16) / always-on-with-profiling.  The
    committed target: default sampling costs < 5% sustained req/s."""
    from repro.serve import BatchingPolicy, TracePolicy

    variants = (
        ("off", TracePolicy(sample_rate=0.0)),
        ("sampled", TracePolicy()),  # the serving default: 1/16
        ("always", TracePolicy(sample_rate=1.0, profile_engine=True)),
    )
    policy = BatchingPolicy(max_batch_size=1, max_wait_ms=0.0)
    records = []
    base = None
    for variant, trace_policy in variants:
        rec = run_scenario(
            registry, ds, model_name, mode="int8", policy=policy,
            n_workers=1, n_requests=n_requests, repeats=repeats,
            trace_policy=trace_policy,
        )
        rec["scenario"] = "trace_overhead"
        rec["trace_variant"] = variant
        if variant == "off":
            base = rec["requests_per_s"]
        else:
            rec["overhead_pct"] = round(
                (base / rec["requests_per_s"] - 1.0) * 100.0, 2
            )
        records.append(rec)
        extra = "" if variant == "off" \
            else f"   overhead {rec['overhead_pct']:+.2f}%"
        print(f"  int8   trace    {variant:8s}      : "
              f"{rec['requests_per_s']:8.1f} req/s   "
              f"p50 {rec['latency_p50_ms']:7.1f} ms{extra}")
    sampled = next(r for r in records if r["trace_variant"] == "sampled")
    if sampled["overhead_pct"] >= 5.0:
        print(f"WARNING: default-sampled tracing costs "
              f"{sampled['overhead_pct']:.2f}% - above the 5% target")
    return records


def check_equivalence(registry, ds, model_name, *, policy, n_shards,
                      n_requests=40) -> None:
    """The cross-backend determinism gate: one seeded request stream
    through ThreadBackend and ProcessBackend must produce bit-identical
    per-request logits.  Exits nonzero on the first mismatch."""
    import numpy as np

    def drive(backend):
        service = make_service(
            registry, ds, model_name, mode="sconna", policy=policy,
            n_workers=2, backend=backend, n_shards=n_shards,
        )
        try:
            futures = [
                service.predict_async(
                    model_name, ds.images[i % len(ds.images)], seed=i
                )
                for i in range(n_requests)
            ]
            return [f.result(timeout=300.0).logits for f in futures]
        finally:
            service.close()

    thread_logits = drive("thread")
    process_logits = drive("process")
    mismatches = [
        i
        for i, (a, b) in enumerate(zip(thread_logits, process_logits))
        if not np.array_equal(a, b)
    ]
    if mismatches:
        print(f"EQUIVALENCE FAILED: {len(mismatches)}/{n_requests} requests "
              f"differ between backends (first: request {mismatches[0]})")
        sys.exit(1)
    print(f"equivalence: {n_requests} seeded sconna requests bit-identical "
          f"across thread and {n_shards}-shard process backends")


def _free_base_port(n: int) -> int:
    """A base port with ``n`` consecutive free ports above it."""
    import socket

    for _ in range(64):
        socks = []
        try:
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            base = probe.getsockname()[1]
            socks.append(probe)
            if base + n >= 65535:
                continue
            for i in range(1, n):
                sock = socket.socket()
                sock.bind(("127.0.0.1", base + i))
                socks.append(sock)
            return base
        except OSError:
            continue
        finally:
            for sock in socks:
                sock.close()
    raise RuntimeError("could not find a free consecutive port range")


def run_router_scenario(
    registry_root, ds, model_name, *, n_replicas, n_shards, n_requests,
    workers, max_batch_size, max_wait_ms,
):
    """One replicas x shards point: real replica processes behind the
    routed HTTP front-end, driven open-loop by concurrent keep-alive
    clients.  Latency percentiles are measured client-side (wire cost
    included), so the record is comparable to ``run_bench_http.py``
    numbers, not the in-process scenarios above."""
    import threading

    from repro.serve import Router, RouterPolicy, SconnaClient, serve_router
    from repro.serve.metrics import percentile
    from repro.serve.router import spawn_replicas

    extra = [
        "--workers", str(workers),
        "--max-batch-size", str(max_batch_size),
        "--max-wait-ms", str(max_wait_ms),
    ]
    if n_shards:
        extra += ["--backend", "process", "--shards", str(n_shards)]
    processes, urls = spawn_replicas(
        str(registry_root), n_replicas, _free_base_port(n_replicas),
        extra_args=extra, wait_s=120.0,
    )
    router = Router(
        urls, policy=RouterPolicy(health_interval_s=0.5, max_retries=3)
    )
    front, _ = serve_router(router)
    n_clients = min(4, 2 * n_replicas)
    latencies: "list[float]" = []
    errors: "list[Exception]" = []
    lock = threading.Lock()

    def drive(first: int, count: int) -> None:
        try:
            with SconnaClient(front.url, retry_429=100) as client:
                for i in range(first, first + count):
                    t0 = time.perf_counter()
                    client.predict(
                        ds.images[i % len(ds.images)],
                        model=model_name, seed=i,
                    )
                    elapsed = time.perf_counter() - t0
                    with lock:
                        latencies.append(elapsed)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            with lock:
                errors.append(exc)

    try:
        with SconnaClient(front.url) as client:
            for i in range(8):  # warm every replica's request path
                client.predict(
                    ds.images[i % len(ds.images)], model=model_name, seed=i
                )
        per_client = n_requests // n_clients
        counts = [per_client] * n_clients
        counts[-1] += n_requests - per_client * n_clients
        threads = [
            threading.Thread(
                target=drive, args=(sum(counts[:i]), counts[i])
            )
            for i in range(n_clients)
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        if errors:
            raise RuntimeError(
                f"router scenario failed: {errors[0]}"
            ) from errors[0]
        fleet = router.metrics_snapshot()
    finally:
        front.shutdown()
        router.close()
        for proc in processes:
            proc.terminate()
        for proc in processes:
            try:
                proc.wait(timeout=30.0)
            except Exception:
                proc.kill()
    return {
        "mode": "sconna",
        "input_dtype": str(ds.images.dtype),
        "backend": "router",
        "replicas": n_replicas,
        "shards": n_shards or None,
        "transport": "http",
        "scenario": "router",
        "requests": n_requests,
        "workers": workers,
        "clients": n_clients,
        "max_batch_size": max_batch_size,
        "max_wait_ms": max_wait_ms,
        "wall_time_s": round(wall, 4),
        "requests_per_s": round(n_requests / wall, 1),
        "latency_p50_ms": round(1e3 * percentile(latencies, 50.0), 3),
        "latency_p95_ms": round(1e3 * percentile(latencies, 95.0), 3),
        "latency_p99_ms": round(1e3 * percentile(latencies, 99.0), 3),
        "redispatches": fleet["router"]["redispatches"],
        "fleet_healthy": fleet["fleet"]["healthy"],
    }


def run_router_sweep(registry_root, ds, model_name, *, replicas, shards,
                     n_requests, workers, max_batch_size, max_wait_ms):
    """The replicas x shards grid; tags each record's speedup over the
    1-replica point at the same shard count."""
    records = []
    base_by_shards = {}
    for n_replicas in replicas:
        for n_shards in shards:
            rec = run_router_scenario(
                registry_root, ds, model_name,
                n_replicas=n_replicas, n_shards=n_shards,
                n_requests=n_requests, workers=workers,
                max_batch_size=max_batch_size, max_wait_ms=max_wait_ms,
            )
            base = base_by_shards.setdefault(n_shards, rec)
            if rec is not base:
                rec["speedup_vs_one_replica"] = round(
                    rec["requests_per_s"] / base["requests_per_s"], 2
                )
            records.append(rec)
            tag = f"router x{n_replicas}r/{n_shards or 't'}s"
            print(f"  sconna router   {tag:14s}: "
                  f"{rec['requests_per_s']:8.1f} req/s   "
                  f"p50 {rec['latency_p50_ms']:7.1f} ms   "
                  f"p99 {rec['latency_p99_ms']:7.1f} ms")
    return records


def parse_shards(spec: str) -> "list[int]":
    counts = [int(tok) for tok in spec.split(",") if tok.strip()]
    if not counts or any(c < 1 for c in counts):
        raise argparse.ArgumentTypeError("--shards needs positive integers")
    return counts


def main() -> None:
    from repro.serve import BatchingPolicy
    from repro.utils.cores import usable_cores

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="mnet_proxy",
                        help="zoo proxy to serve (default: mnet_proxy)")
    parser.add_argument("--requests", type=int, default=1000)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--max-batch-size", type=int, default=64)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--backend", default="both",
                        choices=("thread", "process", "both"),
                        help="which execution backends to measure")
    parser.add_argument("--shards", type=parse_shards, default=None,
                        help="comma-separated shard counts for the process "
                             "sweep (default: 2 plus the core count when >2)")
    parser.add_argument("--replicas", type=parse_shards, default=None,
                        help="comma-separated replica counts for the router "
                             "sweep (replicas x shards grid of real server "
                             "processes behind the routed front-end; "
                             "default: no sweep)")
    parser.add_argument("--router-requests", type=int, default=240,
                        help="routed requests per replicas x shards point "
                             "(default: 240)")
    parser.add_argument("--router-only", action="store_true",
                        help="run only the router sweep and merge its "
                             "records into BENCH_serve.json, leaving the "
                             "committed single-server baselines untouched")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale CI run; does not rewrite "
                             "BENCH_serve.json")
    parser.add_argument("--json-out", default=None,
                        help="write this run's records as JSON to the given "
                             "path (works with --smoke; feeds the CI "
                             "bench-regression checker)")
    parser.add_argument("--check-equivalence", action="store_true",
                        help="assert thread/process bit-identical logits "
                             "for a seeded request stream")
    parser.add_argument("--trace-overhead", action="store_true",
                        help="measure the batch-1 int8 workload with tracing "
                             "off / sampled (1/16) / always-on and record "
                             "the req/s deltas")
    args = parser.parse_args()
    cores = len(usable_cores())
    if args.shards is None:
        args.shards = sorted({2, cores} - {1}) or [2]
    modes = ("int8",) if args.smoke else ("int8", "sconna")
    repeats = 1 if args.smoke else 3
    if args.smoke:
        # enough requests that the batch-1 rate is stable - the CI
        # bench-regression guard compares it against the committed
        # baseline, so a noisy 80-request estimate would flake
        args.requests = 200

    if args.router_only:
        replicas = args.replicas or [1, 2]
        with tempfile.TemporaryDirectory() as tmp:
            _, ds = build_registry(Path(tmp), args.model)
            print(f"router sweep over {replicas} replica(s) x "
                  f"{args.shards} shard(s) ({args.router_requests} routed "
                  f"requests/point, {cores} cores)")
            router_records = run_router_sweep(
                Path(tmp), ds, args.model,
                replicas=replicas, shards=args.shards,
                n_requests=args.router_requests, workers=args.workers,
                max_batch_size=min(args.max_batch_size, 32),
                max_wait_ms=args.max_wait_ms,
            )
        if args.json_out:
            Path(args.json_out).write_text(
                json.dumps({"records": router_records}, indent=2) + "\n"
            )
            print(f"wrote {args.json_out}")
        if args.smoke:
            print("smoke run: BENCH_serve.json not rewritten")
            return
        # merge: replace prior router records, keep everything else -
        # the committed single-server baselines stay regression-guarded
        payload = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cores": cores, "model": args.model, "records": [],
        }
        payload["records"] = [
            rec for rec in payload.get("records", [])
            if rec.get("backend") != "router"
        ] + router_records
        payload["router_generated_at"] = datetime.now(
            timezone.utc
        ).isoformat(timespec="seconds")
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"merged {len(router_records)} router record(s) into {OUTPUT}")
        return

    records = []
    speedups = {}
    with tempfile.TemporaryDirectory() as tmp:
        registry, ds = build_registry(Path(tmp), args.model)
        if args.check_equivalence:
            check_equivalence(
                registry, ds, args.model,
                policy=BatchingPolicy(
                    max_batch_size=min(args.max_batch_size, 8), max_wait_ms=2.0
                ),
                n_shards=min(args.shards), n_requests=40,
            )
        print(f"serving {args.model} ({args.requests} open-loop requests/"
              f"scenario, {cores} cores)")
        for mode in modes:
            if args.backend in ("thread", "both"):
                batch1 = run_scenario(
                    registry, ds, args.model, mode=mode,
                    policy=BatchingPolicy(max_batch_size=1, max_wait_ms=0.0),
                    n_workers=1, n_requests=args.requests, repeats=repeats,
                )
                batch1["scenario"] = "batch1"
                # the sconna datapath's per-image compute peaks at smaller
                # batches (cache residency); cap its coalescing at 32
                cap = min(args.max_batch_size, 32) if mode == "sconna" \
                    else args.max_batch_size
                dynamic = run_scenario(
                    registry, ds, args.model, mode=mode,
                    policy=BatchingPolicy(
                        max_batch_size=cap, max_wait_ms=args.max_wait_ms,
                    ),
                    n_workers=args.workers, n_requests=args.requests,
                    repeats=repeats,
                )
                dynamic["scenario"] = "dynamic"
                speedup = dynamic["requests_per_s"] / batch1["requests_per_s"]
                dynamic["speedup_vs_batch1"] = round(speedup, 2)
                speedups[mode] = speedup
                records += [batch1, dynamic]
                for rec in (batch1, dynamic):
                    print(_fmt(rec))
                print(f"  {mode:6s} dynamic-batching speedup : "
                      f"{speedup:.2f}x sustained requests/s")
                if mode == "int8":
                    # the integer-native request path: uint8 images
                    # quantized at the client ride the wire, the ring,
                    # and the fused plan's LUT entry without ever
                    # materializing float64 - compare against the
                    # float64-input records above
                    import numpy as np

                    u8 = (ds.images * 200).astype(np.uint8)
                    b1_u8 = run_scenario(
                        registry, ds, args.model, mode=mode,
                        policy=BatchingPolicy(
                            max_batch_size=1, max_wait_ms=0.0,
                        ),
                        n_workers=1, n_requests=args.requests,
                        repeats=repeats, images=u8,
                    )
                    b1_u8["scenario"] = "batch1"
                    dyn_u8 = run_scenario(
                        registry, ds, args.model, mode=mode,
                        policy=BatchingPolicy(
                            max_batch_size=args.max_batch_size,
                            max_wait_ms=args.max_wait_ms,
                        ),
                        n_workers=args.workers, n_requests=args.requests,
                        repeats=repeats, images=u8,
                    )
                    dyn_u8["scenario"] = "dynamic"
                    dyn_u8["speedup_vs_batch1"] = round(
                        dyn_u8["requests_per_s"] / b1_u8["requests_per_s"], 2
                    )
                    b1_u8["speedup_vs_float_input"] = round(
                        b1_u8["requests_per_s"] / batch1["requests_per_s"], 2
                    )
                    dyn_u8["speedup_vs_float_input"] = round(
                        dyn_u8["requests_per_s"] / dynamic["requests_per_s"], 2
                    )
                    records += [b1_u8, dyn_u8]
                    for rec in (b1_u8, dyn_u8):
                        print(_fmt(rec))
                    print(f"  int8   uint8-input gain       : "
                          f"{b1_u8['speedup_vs_float_input']:.2f}x batch-1, "
                          f"{dyn_u8['speedup_vs_float_input']:.2f}x dynamic")
            # the process sweep targets the sconna datapath - its
            # per-image count-domain compute is the multi-core story
            if args.backend in ("process", "both") and mode == "sconna" \
                    and not args.smoke:
                base = next(
                    (r for r in records
                     if r["mode"] == mode and r.get("scenario") == "dynamic"),
                    None,
                )
                for n_shards in args.shards:
                    # IPC-bound scenarios are noisier than in-process
                    # ones (context-switch luck); a deeper best-of-N
                    # keeps them stable
                    rec = run_scenario(
                        registry, ds, args.model, mode=mode,
                        policy=BatchingPolicy(
                            max_batch_size=min(args.max_batch_size, 32),
                            max_wait_ms=args.max_wait_ms,
                        ),
                        n_workers=args.workers,
                        n_requests=args.requests,
                        repeats=repeats + 2, backend="process",
                        n_shards=n_shards,
                    )
                    rec["scenario"] = "dynamic"
                    if base is not None:
                        speedup = round(
                            rec["requests_per_s"] / base["requests_per_s"], 2
                        )
                        rec["speedup_vs_thread_dynamic"] = speedup
                        speedups[f"{mode}-process-{n_shards}"] = speedup
                    records.append(rec)
                    print(_fmt(rec))
        if args.trace_overhead:
            records += run_trace_overhead(
                registry, ds, args.model,
                n_requests=args.requests, repeats=repeats,
            )
        if args.replicas and not args.smoke:
            records += run_router_sweep(
                Path(tmp), ds, args.model,
                replicas=args.replicas, shards=args.shards,
                n_requests=args.router_requests, workers=args.workers,
                max_batch_size=min(args.max_batch_size, 32),
                max_wait_ms=args.max_wait_ms,
            )

    payload = {
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cores": cores,
        "model": args.model,
        "records": records,
    }
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json_out}")
    if args.smoke:
        print("smoke run: BENCH_serve.json not rewritten")
        return

    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    if args.backend != "both":
        print(f"note: only {args.backend!r} scenarios were measured; "
              "BENCH_serve.json no longer holds the other backend's records")
    if "int8" in speedups and speedups["int8"] < 3.0:
        print("WARNING: int8 dynamic-batching speedup below the 3x target")
    process_gains = [v for k, v in speedups.items() if "-process-" in k]
    if process_gains and cores > 1 and max(process_gains) < 1.6:
        print("WARNING: process sharding below the 1.6x multi-core target")


def _fmt(rec: dict) -> str:
    tag = rec["backend"] if rec["shards"] is None \
        else f"{rec['backend']}x{rec['shards']}"
    if rec.get("input_dtype", "float64") != "float64":
        tag = f"{tag}/{rec['input_dtype']}"
    return (f"  {rec['mode']:6s} {rec['scenario']:8s} {tag:14s}: "
            f"{rec['requests_per_s']:8.1f} req/s   "
            f"p50 {rec['latency_p50_ms']:7.1f} ms   "
            f"p99 {rec['latency_p99_ms']:7.1f} ms   "
            f"mean batch {rec['mean_batch_images']:5.1f}")


if __name__ == "__main__":
    main()
