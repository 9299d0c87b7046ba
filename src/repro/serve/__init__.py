"""Batched inference serving on top of the SCONNA functional engine.

The subsystem turns the repo's kernel-level reproduction into a small
serving system with the throughput story the paper's comparisons are
framed in (sustained requests/s, tail latency, per-request accelerator
cost):

* :mod:`repro.serve.registry`  - named on-disk model store (NPZ + JSON
  manifests) with optional links to the :mod:`repro.cnn.zoo`
  descriptors for cost accounting,
* :mod:`repro.serve.batching`  - dynamic micro-batching scheduler
  coalescing single-image requests under ``max_batch_size`` /
  ``max_wait_ms`` policies,
* :mod:`repro.serve.backends`  - the :class:`ExecutionBackend` seam and
  its implementations: :class:`ThreadBackend` (one process, a warm
  thread pool) and :class:`ProcessBackend` (N shard worker processes
  that each load every model through the NPZ serialization, with
  crash respawn and in-flight redispatch),
* :mod:`repro.serve.shm`       - the shared-memory ring transport the
  process backend moves batch tensors through (descriptors on the pipe,
  payload bytes in ``/dev/shm``; logits return on the pipe),
* :mod:`repro.serve.service`  - the :class:`SconnaService` facade
  (in-process ``predict``) plus :func:`install_shutdown_handlers` for
  signal-driven draining,
* :mod:`repro.serve.admission` - :class:`AdmissionPolicy` load shedding
  (bounded in-flight requests / payload bytes; 429 over the wire),
* :mod:`repro.serve.wire`      - the binary tensor wire protocol
  (NPY bodies and length-prefixed multi-tensor frames) the HTTP layer
  negotiates alongside JSON,
* :mod:`repro.serve.http11`    - the one HTTP/1.1 codec (server and
  client ends) under the endpoint, the router, the client and the
  watchtower: strict head parsing, one write per message,
* :mod:`repro.serve.client`    - :class:`SconnaClient`, the keep-alive
  HTTP client (binary by default, JSON fallback, streamed multi-image
  responses),
* :mod:`repro.serve.httpd`     - HTTP/1.1 endpoint speaking JSON and
  the binary wire, with chunked per-image streaming (also a CLI:
  ``python -m repro.serve``),
* :mod:`repro.serve.metrics`   - throughput / latency-percentile /
  batch-shape accounting, recorded once per batch in the serving
  parent and mergeable across replicas,
* :mod:`repro.serve.costs`     - per-request simulated accelerator cost
  annotations backed by :class:`repro.arch.simulator.SimulationCache`
  (always computed in the serving parent, never in shards),
* :mod:`repro.serve.telemetry` - the observability plane: sampled
  end-to-end request traces (``/v1/trace``, Chrome trace_event export),
  optional per-layer engine profiling, Prometheus text exposition for
  ``/v1/metrics``, and one-JSON-line-per-request structured logging,
* :mod:`repro.serve.router`    - the replica tier: an HTTP front-end
  load-balancing across N server replicas with per-model consistent
  routing (rendezvous hashing), health-probe ejection/re-admission,
  transparent redispatch of requests caught on a dying replica,
  graceful drain, and fleet-merged ``/v1/metrics`` (also a CLI:
  ``python -m repro.serve.router``).
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionError,
    AdmissionPolicy,
)
from repro.serve.backends import (
    BatchResult,
    ExecutionBackend,
    ProcessBackend,
    ThreadBackend,
    make_backend,
)
from repro.serve.batching import BatchingPolicy, InferenceRequest, MicroBatcher
from repro.serve.client import (
    AdmissionRejected,
    ClientError,
    ClientPrediction,
    SconnaClient,
    ServiceUnavailable,
)
from repro.serve.costs import CostAccountant, RequestCost, descriptor_from_quantized
from repro.serve.httpd import ServeHTTPServer, serve_http
from repro.serve.wire import (
    CONTENT_TYPE_FRAME,
    CONTENT_TYPE_JSON,
    CONTENT_TYPE_NPY,
    WireError,
    decode_frame,
    decode_npy,
    encode_frame,
    encode_npy,
    read_frame,
)
from repro.serve.metrics import ServeMetrics, percentile
from repro.serve.registry import ModelRegistry, RegistryEntry
from repro.serve.router import (
    Replica,
    ReplicaError,
    Router,
    RouterHTTPServer,
    RouterPolicy,
    serve_router,
    spawn_replicas,
)
from repro.serve.shm import RingAllocator, ShmArena, ShmDescriptor
from repro.serve.service import (
    Prediction,
    SconnaService,
    ShutdownHandlers,
    install_shutdown_handlers,
)
from repro.serve.telemetry import (
    Span,
    StructuredLogger,
    Trace,
    TracePolicy,
    Tracer,
    TraceStore,
    parse_exposition,
    render_exposition,
)

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AdmissionPolicy",
    "AdmissionRejected",
    "ClientError",
    "ClientPrediction",
    "SconnaClient",
    "ServiceUnavailable",
    "CONTENT_TYPE_FRAME",
    "CONTENT_TYPE_JSON",
    "CONTENT_TYPE_NPY",
    "WireError",
    "decode_frame",
    "decode_npy",
    "encode_frame",
    "encode_npy",
    "read_frame",
    "BatchResult",
    "ExecutionBackend",
    "ProcessBackend",
    "ThreadBackend",
    "make_backend",
    "RingAllocator",
    "ShmArena",
    "ShmDescriptor",
    "BatchingPolicy",
    "InferenceRequest",
    "MicroBatcher",
    "CostAccountant",
    "RequestCost",
    "descriptor_from_quantized",
    "ServeHTTPServer",
    "serve_http",
    "ServeMetrics",
    "percentile",
    "ModelRegistry",
    "RegistryEntry",
    "Replica",
    "ReplicaError",
    "Router",
    "RouterHTTPServer",
    "RouterPolicy",
    "serve_router",
    "spawn_replicas",
    "Prediction",
    "SconnaService",
    "ShutdownHandlers",
    "install_shutdown_handlers",
    "Span",
    "StructuredLogger",
    "Trace",
    "TracePolicy",
    "Tracer",
    "TraceStore",
    "parse_exposition",
    "render_exposition",
]
