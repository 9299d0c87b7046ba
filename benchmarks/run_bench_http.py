"""HTTP ingest benchmark: JSON vs NPY vs frame bodies over keep-alive.

The serving benchmark (``run_bench_serve.py``) measures the scheduler
and the backends from *inside* the process; this one measures the wire.
It stands up the full HTTP front-end (service -> ``ServeHTTPServer``)
around a small int8 model with a ``(3, 32, 32)`` input lane, then
drives ``(8, 3, 32, 32)`` float batches through ``POST /v1/predict``
three times - once per request encoding
(:class:`~repro.serve.client.SconnaClient` ``wire_format``):

* ``json``  - the image as nested JSON lists (the historical body:
  every float re-tokenized from ASCII decimal on both ends);
* ``npy``   - the image as an ``application/x-npy`` buffer;
* ``frame`` - an ``application/x-sconna-frame`` body (metadata +
  tensor in one length-prefixed envelope).

All three ride the same keep-alive connections, so the measured gap is
encode/parse cost, not TCP handshakes.  Results land in
``BENCH_serve.json`` under a new ``http`` section (the serving records
are left untouched)::

    PYTHONPATH=src python benchmarks/run_bench_http.py
    PYTHONPATH=src python benchmarks/run_bench_http.py --smoke \
        --check-equivalence --json-out http_smoke.json

``--smoke`` runs a seconds-scale version without touching
``BENCH_serve.json`` (``--json-out`` still writes the run's records for
the CI bench-regression checker); ``--check-equivalence`` asserts that
one seeded sconna request returns **bit-identical logits** through all
three encodings, and that a streamed multi-image response reassembles
bit-identically to the JSON document - the wire must never change a
number.  The committed target: binary frames sustain >= 3x the JSON
ingest rate on the ``(8, 3, 32, 32)`` batch.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_serve.json"

BATCH_SHAPE = (8, 3, 32, 32)
WIRES = ("json", "npy", "frame")


def build_service(admission_policy=None, trace_policy=None):
    """A served int8 model (throughput) + a sconna twin (equivalence)
    with a (3, 32, 32) input lane, behind the HTTP front-end."""
    import numpy as np

    from repro.cnn.datasets import N_CLASSES
    from repro.cnn.inference import QuantizedModel
    from repro.cnn.micro import (
        Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential,
    )
    from repro.serve import BatchingPolicy, SconnaService, Tracer, serve_http
    from repro.utils.rng import make_rng

    rng = make_rng(0)
    model = Sequential(
        Conv2d(3, 8, 3, padding=1, rng=rng), ReLU(), MaxPool2d(4),
        Flatten(), Linear(8 * 8 * 8, N_CLASSES, rng=rng),
    )
    calib = make_rng(1).random((32, *BATCH_SHAPE[1:]))
    qmodel = QuantizedModel.from_trained(model, calib)
    service = SconnaService(
        policy=BatchingPolicy(max_batch_size=32, max_wait_ms=1.0),
        admission=admission_policy,
        tracer=Tracer(trace_policy),
    )
    service.add_model("wirebench", qmodel, mode="int8",
                      warm_shape=BATCH_SHAPE[1:])
    service.add_model("wirebench_sc", qmodel, mode="sconna",
                      warm_shape=BATCH_SHAPE[1:])
    server, _ = serve_http(service)
    return service, server


def request_bytes(images, wire_name: str) -> int:
    """On-the-wire request body size for one batch under an encoding."""
    from repro.serve.client import SconnaClient

    fields = {"model": "wirebench", "top_k": 1}
    _, body, _ = SconnaClient._encode_request(images, fields, wire_name)
    return len(body)


def run_scenario(url, images, wire_name, n_requests, n_clients, label=None):
    """Drive ``n_requests`` keep-alive requests; returns the record.

    ``label`` overrides the record's ``wire`` tag (the uint8-input
    scenario rides the frame encoding but is guarded as its own
    record).
    """
    from repro.serve.client import SconnaClient

    latencies: "list[float]" = []
    latencies_lock = threading.Lock()
    counter = iter(range(n_requests))
    counter_lock = threading.Lock()

    def worker() -> None:
        local: "list[float]" = []
        with SconnaClient(url, wire_format=wire_name) as client:
            while True:
                with counter_lock:
                    if next(counter, None) is None:
                        break
                t0 = time.perf_counter()
                client.predict(images, model="wirebench")
                local.append(time.perf_counter() - t0)
        with latencies_lock:
            latencies.extend(local)

    threads = [
        threading.Thread(target=worker, name=f"bench-http-{i}")
        for i in range(n_clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0

    from repro.serve.metrics import percentile

    nbytes = request_bytes(images, wire_name)
    n_images = len(latencies) * images.shape[0]
    return {
        "wire": label or wire_name,
        "requests": len(latencies),
        "clients": n_clients,
        "batch_shape": list(images.shape),
        "input_dtype": str(images.dtype),
        "request_bytes": nbytes,
        "wall_time_s": round(wall, 4),
        "requests_per_s": round(len(latencies) / wall, 1),
        "images_per_s": round(n_images / wall, 1),
        "ingest_mb_s": round(len(latencies) * nbytes / wall / 1e6, 1),
        "latency_p50_ms": round(1e3 * percentile(latencies, 50.0), 3),
        "latency_p95_ms": round(1e3 * percentile(latencies, 95.0), 3),
    }


def run_trace_overhead(images, n_requests, n_clients, repeats):
    """The same frame-wire workload against three servers: tracing off,
    default-sampled (1/16), always-on - the HTTP-layer view of the
    telemetry cost (trace start/finish, header, span recording)."""
    from repro.serve import TracePolicy

    variants = (
        ("off", TracePolicy(sample_rate=0.0)),
        ("sampled", TracePolicy()),
        ("always", TracePolicy(sample_rate=1.0, profile_engine=True)),
    )
    records = []
    base = None
    for variant, trace_policy in variants:
        service, server = build_service(trace_policy=trace_policy)
        try:
            run_scenario(server.url, images, "frame", 8, n_clients)
            best = None
            for _ in range(max(1, repeats)):
                rec = run_scenario(
                    server.url, images, "frame", n_requests, n_clients,
                )
                if best is None \
                        or rec["requests_per_s"] > best["requests_per_s"]:
                    best = rec
        finally:
            server.shutdown()
            service.close()
        best["trace_variant"] = variant
        del best["wire"]
        if variant == "off":
            base = best["requests_per_s"]
        else:
            best["overhead_pct"] = round(
                (base / best["requests_per_s"] - 1.0) * 100.0, 2
            )
        records.append(best)
        extra = "" if variant == "off" \
            else f"  overhead {best['overhead_pct']:+.2f}%"
        print(f"  trace {variant:8s}: {best['requests_per_s']:8.1f} req/s  "
              f"p50 {best['latency_p50_ms']:7.2f} ms{extra}")
    sampled = next(r for r in records if r["trace_variant"] == "sampled")
    if sampled["overhead_pct"] >= 5.0:
        print(f"WARNING: default-sampled tracing costs "
              f"{sampled['overhead_pct']:.2f}% over the frame wire - "
              "above the 5% target")
    return records


def check_equivalence(url, images) -> None:
    """The wire-transparency gate: one seeded sconna request must return
    bit-identical logits through every encoding, and a streamed stack
    must reassemble bit-identically to the JSON document.  Exits
    nonzero on the first mismatch."""
    import numpy as np

    from repro.serve.client import SconnaClient

    with SconnaClient(url) as client:
        kwargs = dict(model="wirebench_sc", seed=1234, top_k=3)
        baseline = client.predict(images, wire_format="json", **kwargs)
        for wire_name in ("npy", "frame"):
            got = client.predict(images, wire_format=wire_name, **kwargs)
            if not np.array_equal(got.logits, baseline.logits):
                print(f"EQUIVALENCE FAILED: {wire_name} logits differ "
                      "from the JSON path for a seeded request")
                sys.exit(1)
        # streamed (seeded stack: one indivisible request, framed per image)
        parts = list(client.predict_stream(images, **kwargs))
        reassembled = np.concatenate([p.logits for p in parts], axis=0)
        if not np.array_equal(reassembled, baseline.logits):
            print("EQUIVALENCE FAILED: streamed frames reassemble "
                  "differently from the JSON logits")
            sys.exit(1)
        # streamed split path (ideal: per-image pipelining) is gated too
        ideal_json = client.predict(images, model="wirebench_sc", ideal=True,
                                    wire_format="json")
        ideal_parts = list(client.predict_stream(
            images, model="wirebench_sc", ideal=True
        ))
        ideal_re = np.concatenate([p.logits for p in ideal_parts], axis=0)
        if not np.array_equal(ideal_re, ideal_json.logits):
            print("EQUIVALENCE FAILED: split-streamed ideal frames differ "
                  "from the JSON logits")
            sys.exit(1)
        # integer-native gate: the same uint8 pixels must produce
        # bit-identical logits whether they arrive as a binary frame
        # (narrow dtype end to end, fused LUT entry) or as JSON integer
        # lists (decoded wide, quantized through the float64 workspace)
        u8 = (images * 200).astype(np.uint8)
        frame_u8 = client.predict(u8, model="wirebench", wire_format="frame")
        json_u8 = client.predict(u8, model="wirebench", wire_format="json")
        if not np.array_equal(frame_u8.logits, json_u8.logits):
            print("EQUIVALENCE FAILED: uint8 frame logits differ from "
                  "the JSON-list path for the same pixels")
            sys.exit(1)
    print(f"equivalence: seeded logits bit-identical across "
          f"{', '.join(WIRES)}, both streaming paths, and the uint8 "
          f"frame entry ({images.shape[0]}-image stack)")


def main() -> None:
    import numpy as np

    from repro.utils.cores import usable_cores

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=400,
                        help="requests per wire encoding (default: 400)")
    parser.add_argument("--clients", type=int, default=1,
                        help="concurrent keep-alive clients (default: 1)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N runs per wire (default: 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale CI run; does not rewrite "
                             "BENCH_serve.json")
    parser.add_argument("--json-out", default=None,
                        help="write this run's records as JSON to the given "
                             "path (works with --smoke; feeds the CI "
                             "bench-regression checker)")
    parser.add_argument("--check-equivalence", action="store_true",
                        help="assert bit-identical logits across JSON / NPY "
                             "/ frame / streamed responses")
    parser.add_argument("--trace-overhead", action="store_true",
                        help="measure the frame-wire workload with tracing "
                             "off / sampled (1/16) / always-on and record "
                             "the req/s deltas")
    args = parser.parse_args()
    if args.smoke:
        args.requests = min(args.requests, 80)
        args.repeats = 1
    cores = len(usable_cores())

    images = np.ascontiguousarray(
        np.asarray(make_batch(), dtype=np.float64)
    )
    service, server = build_service()
    try:
        if args.check_equivalence:
            check_equivalence(server.url, images)
        print(f"HTTP ingest: {args.requests} x {BATCH_SHAPE} float64 "
              f"batches per wire, {args.clients} client(s), {cores} core(s)")
        records = []
        # the uint8 scenario: pixels quantized at the client ride the
        # frame wire at one byte each and enter the fused plan through
        # its LUT - the full integer-native socket-to-logits path
        scenarios = [(w, images, None) for w in WIRES]
        scenarios.append(
            ("frame", (images * 200).astype(np.uint8), "frame-u8")
        )
        for wire_name, imgs, label in scenarios:
            # one warm-up pass per wire keeps first-connection and
            # first-parse costs out of the measured window
            run_scenario(server.url, imgs, wire_name, 8, args.clients)
            best = None
            for _ in range(max(1, args.repeats)):
                rec = run_scenario(
                    server.url, imgs, wire_name,
                    args.requests, args.clients, label=label,
                )
                if best is None or rec["requests_per_s"] > best["requests_per_s"]:
                    best = rec
            records.append(best)
        base = records[0]["requests_per_s"]
        for rec in records:
            rec["speedup_vs_json"] = round(rec["requests_per_s"] / base, 2)
            print(f"  {rec['wire']:6s}: {rec['requests_per_s']:8.1f} req/s  "
                  f"{rec['ingest_mb_s']:7.1f} MB/s ingest  "
                  f"p50 {rec['latency_p50_ms']:7.2f} ms  "
                  f"p95 {rec['latency_p95_ms']:7.2f} ms  "
                  f"({rec['speedup_vs_json']:.2f}x vs json)")
    finally:
        server.shutdown()
        service.close()

    trace_records = None
    if args.trace_overhead:
        print("trace overhead (frame wire):")
        trace_records = run_trace_overhead(
            images, args.requests, args.clients, args.repeats
        )

    frame_gain = next(
        r for r in records if r["wire"] == "frame"
    )["speedup_vs_json"]
    http_section = {
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cores": cores,
        "records": records,
    }
    if trace_records is not None:
        http_section["trace_overhead"] = trace_records
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps({"cores": cores, "platform": platform.platform(),
                        "http": http_section}, indent=2) + "\n"
        )
        print(f"wrote {args.json_out}")
    if args.smoke:
        print("smoke run: BENCH_serve.json not rewritten")
    else:
        # graft the http section into the serving benchmark file - the
        # scheduler/backend records are a different (slower) bench and
        # are kept verbatim
        payload = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
        payload["http"] = http_section
        OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {OUTPUT} (http section)")
    if frame_gain < 3.0:
        print(f"WARNING: frame ingest {frame_gain:.2f}x JSON - below the "
              "3x target")


def make_batch():
    from repro.utils.rng import make_rng

    return make_rng(7).random(BATCH_SHAPE)


if __name__ == "__main__":
    main()
