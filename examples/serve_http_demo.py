"""End-to-end serving demo: train -> register -> serve -> HTTP clients.

Trains a compact CNN briefly, quantizes it, stores it in a model
registry, serves it through :class:`repro.serve.SconnaService` with
dynamic micro-batching on the selected execution backend, and exercises
the HTTP endpoint the way an external client would - through
:class:`repro.serve.SconnaClient` on the binary frame wire (one
keep-alive connection; `--wire json` falls back to the classic JSON
body), including a per-request accelerator cost annotation and a
streamed multi-image request.  SIGINT/SIGTERM handlers drain in-flight
requests and reap shard processes, and the service's metrics snapshot
(every batch, counted once in the parent process) is printed at exit.

Run:  PYTHONPATH=src python examples/serve_http_demo.py
      PYTHONPATH=src python examples/serve_http_demo.py --backend process --shards 2
      PYTHONPATH=src python examples/serve_http_demo.py --backend process \
          --placement snet=0 --affinity auto
      PYTHONPATH=src python examples/serve_http_demo.py --wire json
      PYTHONPATH=src python examples/serve_http_demo.py --trace --log-requests
"""

import argparse
import json
import tempfile

import numpy as np

from repro.cnn import QuantizedModel, build_proxy, generate_dataset, train_test_split
from repro.cnn.train import train
from repro.serve import (
    BatchingPolicy,
    ModelRegistry,
    SconnaClient,
    SconnaService,
    StructuredLogger,
    install_shutdown_handlers,
    serve_http,
)
from repro.serve.telemetry import POLICY_ALWAYS, Tracer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="thread",
                        choices=("thread", "process"),
                        help="execution backend (default: thread)")
    parser.add_argument("--shards", type=int, default=2,
                        help="worker processes for --backend process")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker threads for --backend thread")
    parser.add_argument("--affinity", default="none",
                        choices=("auto", "none"),
                        help="process-backend CPU pinning (default: none)")
    parser.add_argument("--placement", default=None,
                        help="shard placement for the demo model, e.g. "
                             "'snet=0' (default: every shard)")
    parser.add_argument("--wire", default="frame",
                        choices=("frame", "npy", "json"),
                        help="HTTP request encoding (default: frame - the "
                             "binary wire protocol)")
    parser.add_argument("--trace", action="store_true",
                        help="trace every request (with per-layer engine "
                             "profiling) and print the HTTP request's "
                             "per-stage latency breakdown table")
    parser.add_argument("--log-requests", action="store_true",
                        help="emit one structured JSON line per request "
                             "on stderr (the access log the server uses "
                             "instead of ad-hoc prints)")
    args = parser.parse_args()
    placement = None
    if args.placement is not None:
        from repro.serve import ShardPlacement

        try:
            placement = ShardPlacement.parse(args.placement)
        except ValueError as exc:
            parser.error(str(exc))

    print("training snet_proxy (short run - this is a serving demo) ...")
    dataset = generate_dataset(n_per_class=60, seed=0)
    train_set, test_set = train_test_split(dataset, test_fraction=0.3, seed=1)
    model = build_proxy("snet_proxy", seed=0)
    train(model, train_set, epochs=2, seed=0)
    qmodel = QuantizedModel.from_trained(model, train_set.images[:64])

    with tempfile.TemporaryDirectory() as tmp:
        print(f"registering model under {tmp} ...")
        registry = ModelRegistry(tmp)
        registry.save("snet", qmodel, arch_model="ShuffleNet_V2")

        service = SconnaService(
            policy=BatchingPolicy(max_batch_size=32, max_wait_ms=2.0),
            n_workers=args.workers,
            backend=args.backend,
            n_shards=args.shards,
            placement=placement,
            affinity=None if args.affinity == "none" else args.affinity,
            tracer=Tracer(POLICY_ALWAYS if args.trace else None),
            request_log=StructuredLogger() if args.log_requests else None,
        )
        service.add_from_registry(registry, "snet", warm_shape=(3, 24, 24))
        server, _ = serve_http(service)
        # a signal now drains every lane and reaps shard processes
        # instead of leaving orphans behind
        install_shutdown_handlers(service, servers=(server,))
        backend_info = service.backend.info()
        topology = (
            f"{backend_info.get('shards')} shard processes, "
            f"affinity {backend_info.get('affinity')}"
            if args.backend == "process"
            else f"{args.workers} worker threads"
        )
        print(f"serving at {server.url}  (POST /v1/predict, backend: "
              f"{backend_info['kind']}, {topology})")

        try:
            # a burst of clients: the scheduler coalesces them
            futures = [
                service.predict_async("snet", test_set.images[i], seed=i)
                for i in range(24)
            ]
            hits = sum(
                f.result(120.0).top_class == int(test_set.labels[i])
                for i, f in enumerate(futures)
            )
            print(f"in-process burst: 24 requests, {hits} top-1 hits")

            with SconnaClient(server.url, wire_format=args.wire) as client:
                # one HTTP request with cost annotation (binary frame
                # body by default: the image crosses as raw float64
                # bytes, not ASCII decimal)
                resp = client.predict(
                    test_set.images[0], model="snet", top_k=3, seed=0,
                    cost=True,
                )
                cost = resp.cost
                print(f"HTTP predict ({args.wire} wire): "
                      f"label {int(test_set.labels[0])}, "
                      f"top-3 {[c for c, _ in resp.top_k[0]]}")
                print(f"  simulated cost on {cost['accelerator']} "
                      f"({cost['model']}): {cost['latency_s'] * 1e6:.1f} us, "
                      f"{cost['energy_j'] * 1e3:.2f} mJ, "
                      f"bottleneck: {cost['bottleneck']}")

                if args.trace and resp.trace_id is not None:
                    # the server's span tree for the request we just
                    # made, reduced to a per-stage latency table
                    doc = client.trace(resp.trace_id)
                    total = doc["duration_ms"]
                    by_stage: "dict[str, float]" = {}
                    for span in doc["spans"]:
                        if span["parent_id"] is None:
                            continue  # the root *is* the total
                        by_stage[span["name"]] = (
                            by_stage.get(span["name"], 0.0)
                            + span["duration_ms"]
                        )
                    print(f"  trace {resp.trace_id}: "
                          f"{total:.2f} ms end to end")
                    print(f"    {'stage':<18s} {'ms':>9s} {'share':>7s}")
                    for name, ms in sorted(
                        by_stage.items(), key=lambda kv: -kv[1]
                    ):
                        print(f"    {name:<18s} {ms:9.3f} "
                              f"{ms / total:7.1%}")

                # a streamed multi-image stack: per-image logits arrive
                # as chunked frames over the same connection
                stack = np.stack([test_set.images[i] for i in range(6)])
                streamed = [
                    int(part.top_k[0][0][0])
                    for part in client.predict_stream(stack, model="snet")
                ]
                truth = [int(test_set.labels[i]) for i in range(6)]
                print(f"HTTP stream: 6-image stack -> per-image frames, "
                      f"predicted {streamed} vs labels {truth}")
                print(f"  connections opened by the client: {client.opened} "
                      "(keep-alive)")
        finally:
            server.shutdown()
            service.close()
            # snapshot after close: every batch is accounted for - the
            # service counted each one in this process as it completed
            snap = service.metrics_snapshot()
            print("metrics at exit:")
            print(f"  {snap['requests']} requests in "
                  f"{snap['batches']} batches, "
                  f"p50 {snap['latency']['p50_ms']:.1f} ms, "
                  f"p99 {snap['latency']['p99_ms']:.1f} ms, "
                  f"batch histogram {snap['batch_size']['histogram']}")
            print(f"  backend: {json.dumps(snap['backend'])}")
            print(f"  admission: {json.dumps(snap['admission'])}")
            print(f"  simulation cache: {json.dumps(snap['costs'])}")
    print("done - see docs/serving.md for the architecture")


if __name__ == "__main__":
    main()
