"""The serving facade: named models, batched predict, cost annotations.

One :class:`SconnaService` hosts any number of named models.  Each model
gets its own :class:`~repro.serve.batching.MicroBatcher` lane (batches
never mix models); all lanes dispatch into one shared
:class:`~repro.serve.backends.ExecutionBackend` - a thread pool in this
process (``backend="thread"``) or a set of shard worker processes
(``backend="process"``).  The request path is::

    predict()  ->  lane queue  ->  scheduler coalesces  ->  backend runs
    qmodel.forward(batch)  ->  logits return  ->  service splits per
    request, annotates costs, resolves futures

The service owns everything request-shaped - futures, top-k, cost
annotations (computed once in this parent process via the shared
:class:`~repro.arch.simulator.SimulationCache`), and every metric -
while the backend owns execution: model hosting and warm buffers.  Each
batch ends in exactly one backend ``on_done`` call, where the service
counts it (a batch on success, its requests as errors on failure), so
:meth:`metrics_snapshot` reads one in-memory
:class:`~repro.serve.metrics.ServeMetrics` and never waits on a shard.

Reproducibility: a ``seed``-carrying request in the ``sconna`` datapath
gets its own :class:`~repro.stochastic.error_models.SconnaErrorModel`,
applied to its slice of the batch through
:class:`~repro.stochastic.error_models.PerRequestErrorModels` - so its
logits are bit-identical no matter which other requests shared the
batch, *and* no matter which backend (or shard process) executed it:
its ADC noise is a pure function of the model's 64-bit stream key and
each count's position, and the key pickles with the model, so a shard
draws the noise the in-process path would.  ``ideal=True`` requests
the noiseless datapath; ``seed=None`` (the default) draws a fresh
random key per request.
"""

from __future__ import annotations

import itertools
import signal as signal_module
import threading
import time
from concurrent import futures
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.cnn.inference import QuantizedModel
from repro.serve.admission import AdmissionController, AdmissionError, AdmissionPolicy
from repro.serve.backends import (
    BatchResult,
    ExecutionBackend,
    make_backend,
)
from repro.serve.batching import BatchingPolicy, InferenceRequest, MicroBatcher
from repro.serve.costs import CostAccountant, RequestCost, descriptor_from_quantized
from repro.serve.metrics import ServeMetrics
from repro.serve.telemetry import Tracer
from repro.stochastic.error_models import SconnaErrorModel


@dataclass(frozen=True)
class Prediction:
    """Result of one request."""

    request_id: int
    model: str
    logits: np.ndarray              #: (n, classes) float64
    top_k: "list[list[tuple[int, float]]]"  #: per image: [(class, logit), ...]
    batch_images: int               #: images in the coalesced batch it rode in
    latency_s: float                #: enqueue -> completion
    cost: RequestCost | None = None

    @property
    def top_class(self) -> int:
        """Top-1 class of the first (usually only) image."""
        return self.top_k[0][0][0]


@dataclass
class _ModelEntry:
    name: str
    qmodel: QuantizedModel
    mode: str
    batcher: MicroBatcher
    descriptor: object | None = None      #: ModelDescriptor for costs
    input_shape: "tuple[int, int, int] | None" = None   #: lane (C, H, W)
    lock: threading.Lock = field(default_factory=threading.Lock)
    unit_cost: "tuple[float, float] | None" = None  #: per-image (energy_j, latency_s)
    cost_disabled: bool = False           #: unit-cost derivation failed; stop trying


class SconnaService:
    """In-process serving API over quantized SCONNA models."""

    def __init__(
        self,
        policy: BatchingPolicy | None = None,
        mode: str = "sconna",
        backend: "ExecutionBackend | str" = "thread",
        n_shards: int = 2,
        admission: "AdmissionPolicy | None" = None,
        tracer: "Tracer | None" = None,
        request_log: "object | None" = None,
    ) -> None:
        if mode not in ("float", "int8", "sconna"):
            raise ValueError(f"unknown default mode {mode!r}")
        self.default_policy = policy or BatchingPolicy()
        self.default_mode = mode
        self.metrics = ServeMetrics()
        self.costs = CostAccountant()
        self.admission = AdmissionController(admission, metrics=self.metrics)
        #: the telemetry front door (default: a sampling Tracer with the
        #: default policy).  ``request_log`` is an optional
        #: StructuredLogger the HTTP layer (and in-process callers) emit
        #: per-request lines through.
        self.tracer = tracer if tracer is not None else Tracer()
        self.request_log = request_log
        self._backend = make_backend(backend, n_shards=n_shards)
        self._models: "dict[str, _ModelEntry]" = {}
        self._ids = itertools.count(1)
        self._closed = False
        self._started_at = time.monotonic()
        self._inflight_lock = threading.Lock()
        self._inflight_by_model: "dict[str, int]" = {}

    @property
    def backend(self) -> ExecutionBackend:
        return self._backend

    # -- model management ------------------------------------------------
    def add_model(
        self,
        name: str,
        qmodel: QuantizedModel,
        mode: str | None = None,
        policy: BatchingPolicy | None = None,
        arch_model: str | None = None,
        warm_shape: "tuple[int, int, int] | None" = None,
        archive: "object | None" = None,
    ) -> None:
        """Register a model under ``name`` and open its batching lane.

        ``arch_model`` links cost annotations to a published zoo
        descriptor (its simulation is prewarmed here, off the request
        path); otherwise the descriptor is derived from the model
        structure on first cost-annotated request.  ``warm_shape`` (a
        ``(C, H, W)`` image shape) pre-warms every backend worker's
        engine buffers with one dummy batch so the first real request
        does not pay allocation costs.  ``archive`` is the model's NPZ
        path when one exists (e.g. from a registry): the process backend
        has its shards load from it instead of re-serializing.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        if name in self._models:
            raise ValueError(f"model {name!r} is already registered")
        mode = mode or self.default_mode
        if mode not in ("float", "int8", "sconna"):
            raise ValueError(f"unknown mode {mode!r}")
        descriptor = None
        if arch_model is not None:
            from repro.cnn.zoo import build_model

            descriptor = build_model(arch_model)
        entry = _ModelEntry(name=name, qmodel=qmodel, mode=mode, batcher=None,  # type: ignore[arg-type]
                            descriptor=descriptor)
        lane_policy = policy or self.default_policy
        warm = None
        if warm_shape is not None:
            entry.input_shape = tuple(int(d) for d in warm_shape)
            c, h, w = entry.input_shape
            warm = (min(lane_policy.max_batch_size, 4), c, h, w)
        # the backend must be able to execute the model before the lane
        # opens; under the process backend this blocks until every
        # shard acknowledges the load
        self._backend.add_model(name, qmodel, mode, archive=archive, warm=warm)
        if descriptor is not None:
            self.costs.prewarm(descriptor)
        entry.batcher = MicroBatcher(
            dispatch=lambda batch: self._backend.submit(
                entry.name, batch,
                lambda result: self._complete_batch(entry, batch, result),
            ),
            policy=lane_policy,
            name=f"batcher-{name}",
        )
        self._models[name] = entry

    def add_from_registry(
        self,
        registry,
        name: str,
        mode: str | None = None,
        policy: BatchingPolicy | None = None,
        warm_shape: "tuple[int, int, int] | None" = None,
    ) -> None:
        """Load a registry entry and serve it under its registered name.

        The registry archive doubles as the hand-off point to shard
        worker processes, so a registry-backed model is never
        re-serialized for the process backend.
        """
        reg_entry = registry.entry(name)
        self.add_model(
            name,
            registry.load(name),
            mode=mode,
            policy=policy,
            arch_model=reg_entry.arch_model,
            warm_shape=warm_shape,
            archive=registry.archive_path(name),
        )

    def models(self) -> "list[str]":
        """Names of the models added to this service, sorted."""
        return sorted(self._models)

    # -- request path ----------------------------------------------------
    def predict_async(
        self,
        model: str,
        image: np.ndarray,
        seed: int | None = None,
        ideal: bool = False,
        top_k: int = 1,
        with_cost: bool = False,
        trace: "object | None" = None,
    ) -> Future:
        """Enqueue one request; returns a future of :class:`Prediction`.

        ``image`` is one ``(C, H, W)`` image or an ``(n, C, H, W)``
        stack (served as one indivisible request).

        ``trace`` attaches an externally-owned telemetry Trace (the
        HTTP layer passes the one it started so decode/encode spans and
        service-side spans land in one tree).  When ``None``, the
        service consults its own :attr:`tracer` and - if the request is
        sampled - owns the trace end to end, committing it when the
        future resolves.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        entry = self._models.get(model)
        if entry is None:
            raise KeyError(f"unknown model {model!r}; registered: {self.models()}")
        # no dtype coercion here: integer batches ride the fused plan's
        # LUT entry natively (uint8/int8 never touches float64 between
        # socket and logits), and float batches are quantized once per
        # coalesced batch by the model itself
        images = np.asarray(image)
        if images.ndim == 3:
            images = images[None]
        if images.ndim != 4:
            raise ValueError("image must be (C, H, W) or (n, C, H, W)")
        # lane-shape gate: a geometry mismatch must fail *this* caller,
        # not poison the strangers it would be coalesced with.  The lane
        # learns its shape from its first batch that completes, so one
        # malformed first request cannot lock it to the wrong shape
        shape = tuple(int(d) for d in images.shape[1:])
        if entry.input_shape is not None and shape != entry.input_shape:
            raise ValueError(
                f"image shape {shape} does not match this model's "
                f"serving shape {entry.input_shape}"
            )
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        owns_trace = False
        if trace is None:
            trace = self.tracer.start("request", model=model)
            owns_trace = trace is not None
        elif trace.root.tags.get("model") is None:
            trace.set_tags(model=model)
        # the admission gate sits after validation (malformed requests
        # are client errors, not load) and before any queue is touched:
        # a shed request never allocates a lane slot or payload copy
        nbytes = int(images.nbytes)
        try:
            self.admission.admit(nbytes, trace=trace)
        except BaseException as exc:
            if owns_trace:
                self.tracer.finish(trace, status=type(exc).__name__)
            raise
        try:
            # an ideal request's None runs the noiseless datapath
            error_model = (
                SconnaErrorModel(seed=seed)
                if entry.mode == "sconna" and not ideal
                else None
            )
            request = InferenceRequest(
                request_id=next(self._ids),
                images=images,
                error_model=error_model,
                top_k=top_k,
                with_cost=with_cost,
                trace=trace,
            )
            future = entry.batcher.submit(request)
        except BaseException as exc:
            self.admission.release(nbytes)
            if owns_trace:
                self.tracer.finish(trace, status=type(exc).__name__)
            raise
        with self._inflight_lock:
            self._inflight_by_model[model] = (
                self._inflight_by_model.get(model, 0) + 1
            )

        def _resolved(f, model=model, nbytes=nbytes,
                      trace=trace, owns_trace=owns_trace) -> None:
            self.admission.release(nbytes)
            with self._inflight_lock:
                self._inflight_by_model[model] -= 1
            if owns_trace:
                exc = f.exception() if not f.cancelled() else None
                self.tracer.finish(
                    trace,
                    status="ok" if exc is None and not f.cancelled()
                    else type(exc).__name__ if exc is not None
                    else "cancelled",
                )

        future.add_done_callback(_resolved)
        return future

    def predict(
        self,
        model: str,
        image: np.ndarray,
        seed: int | None = None,
        ideal: bool = False,
        top_k: int = 1,
        with_cost: bool = False,
        timeout: float | None = 30.0,
        trace: "object | None" = None,
    ) -> Prediction:
        """Blocking :meth:`predict_async`."""
        return self.predict_async(
            model, image, seed=seed, ideal=ideal, top_k=top_k,
            with_cost=with_cost, trace=trace,
        ).result(timeout)

    # -- batch completion (backend callback threads) ----------------------
    def _complete_batch(
        self,
        entry: _ModelEntry,
        batch: "list[InferenceRequest]",
        result: "BatchResult | BaseException",
    ) -> None:
        """Split a finished batch back into per-request predictions.

        Runs on whatever thread the backend completes on (a worker
        thread, or a shard collector); execution failures arrive as the
        raised exception and are routed to every waiting future.  This
        is the one place execution is counted: the batch (or its
        requests as errors) lands in :attr:`metrics` before any future
        resolves, so a caller that saw its result also sees it counted.
        """
        if isinstance(result, BaseException):
            self.metrics.record_error(len(batch))
            self._fail_batch(batch, result)
            return
        if entry.input_shape is None:
            with entry.lock:
                if entry.input_shape is None:
                    entry.input_shape = tuple(
                        int(d) for d in batch[0].images.shape[1:]
                    )
        try:
            logits = result.logits
            # one descending argsort for the whole coalesced batch; each
            # request slices its own rows below
            order = np.argsort(logits, axis=1)[:, ::-1]
            done = time.monotonic()
            samples: list[tuple[float, float, int]] = []
            outcomes: "list[tuple[InferenceRequest, object]]" = []
            start = 0
            for req in batch:
                sl = logits[start : start + req.n_images]
                req_order = order[start : start + req.n_images]
                start += req.n_images
                # per-request isolation: a failure here (cost annotation
                # is the usual suspect) fails only this caller, never the
                # strangers that shared the batch
                try:
                    cost = None
                    if req.with_cost:
                        cost = self.costs.annotate(
                            self._descriptor_for(entry, req), req.n_images
                        )
                    latency = done - req.enqueued_at
                    prediction = Prediction(
                        request_id=req.request_id,
                        model=entry.name,
                        logits=sl,
                        top_k=_top_k_lists(sl, req_order, req.top_k),
                        batch_images=result.n_images,
                        latency_s=latency,
                        cost=cost,
                    )
                except BaseException as exc:
                    outcomes.append((req, exc))
                    continue
                samples.append(
                    (latency, result.exec_start - req.enqueued_at, req.n_images)
                )
                outcomes.append((req, prediction))
            self.metrics.record_batch(len(batch), result.n_images)
            self.metrics.record_requests(samples)
            if len(samples) < len(batch):
                self.metrics.record_error(len(batch) - len(samples))
            for req, outcome in outcomes:
                if isinstance(outcome, BaseException):
                    self._fail_batch([req], outcome)
                elif not req.future.done():  # client may have cancelled
                    try:
                        req.future.set_result(outcome)
                    except futures.InvalidStateError:
                        pass  # lost the race with a cancel
            unit = self._unit_cost(entry, batch[0])
            if unit is not None:
                energy_j, latency_s = unit
                n = int(result.n_images)
                self.metrics.record_cost(
                    entry.name, energy_j * n, latency_s * n, n
                )
        except BaseException as exc:  # completion-side failure (e.g. costs)
            self.metrics.record_error(len(batch))
            self._fail_batch(batch, exc)

    @staticmethod
    def _fail_batch(batch: "list[InferenceRequest]", exc: BaseException) -> None:
        for req in batch:
            if not req.future.done():
                try:
                    req.future.set_exception(exc)
                except futures.InvalidStateError:
                    pass  # lost the race with a cancel

    def _unit_cost(
        self, entry: _ModelEntry, req: InferenceRequest
    ) -> "tuple[float, float] | None":
        """Cached per-image simulated (energy_j, latency_s) for a lane.

        Every completed batch accumulates this into
        :meth:`ServeMetrics.record_cost`, so the metrics endpoint exports
        monotonic per-model energy/latency counters.  Zoo-linked models
        are prewarmed at registration; otherwise the first batch pays one
        cached simulation.  A derivation failure disables cost accounting
        for the lane instead of failing requests.
        """
        if entry.unit_cost is None and not entry.cost_disabled:
            try:
                res = self.costs.perf(self._descriptor_for(entry, req))
                entry.unit_cost = (float(res.energy_j), float(res.latency_s))
            except BaseException:
                entry.cost_disabled = True
        return entry.unit_cost

    def _descriptor_for(self, entry: _ModelEntry, req: InferenceRequest):
        if entry.descriptor is None:
            with entry.lock:
                if entry.descriptor is None:
                    c, h, w = req.images.shape[1:]
                    entry.descriptor = descriptor_from_quantized(
                        entry.qmodel, entry.name, (int(c), int(h), int(w))
                    )
        return entry.descriptor

    # -- metrics / lifecycle ---------------------------------------------
    def reset_metrics(self) -> None:
        """Discard every metric recorded so far (benchmarks use this to
        keep warm-up traffic out of results)."""
        self.metrics.reset()

    def metrics_state(self) -> dict:
        """The raw mergeable counter export behind
        ``/v1/metrics?format=state``: :attr:`metrics` as one
        :meth:`~repro.serve.metrics.ServeMetrics.state` dict, plus the
        identity a fleet router needs (models, backend topology).  Feed
        the ``metrics`` field back through :meth:`ServeMetrics.merge` to
        aggregate across replicas."""
        return {
            "metrics": self.metrics.state(),
            "models": self.models(),
            "backend": self._backend.info(),
        }

    def metrics_snapshot(self) -> dict:
        """One view of :attr:`metrics` plus the backend topology,
        admission, simulation-cache, queue and telemetry state."""
        snap = self.metrics.snapshot()
        snap["models"] = self.models()
        snap["backend"] = self._backend.info()
        snap["costs"] = self.costs.stats()
        snap["admission"] = self.admission.stats()
        snap["uptime_s"] = round(time.monotonic() - self._started_at, 3)
        snap["queue_depth_current"] = sum(
            entry.batcher.queue_depth()
            for entry in self._models.values()
            if entry.batcher is not None
        )
        with self._inflight_lock:
            snap["inflight_by_model"] = {
                name: count
                for name, count in sorted(self._inflight_by_model.items())
                if count
            }
        snap["telemetry"] = self.tracer.stats()
        return snap

    def close(self, timeout: float | None = 10.0) -> None:
        """Graceful shutdown: drain every lane, then stop the backend.

        Requests already submitted complete; new submissions raise.
        Under the process backend this also reaps every shard process.
        A lane that fails to drain in time does not block the rest of
        the teardown - every lane and the backend are always attempted
        (otherwise one stuck scheduler would leak shard processes
        forever), and the first failure is re-raised at the end.
        """
        if self._closed:
            return
        self._closed = True
        errors: "list[BaseException]" = []
        for entry in self._models.values():
            try:
                entry.batcher.close(timeout)
            except BaseException as exc:
                errors.append(exc)
        try:
            self._backend.close(timeout)
        except BaseException as exc:
            errors.append(exc)
        if errors:
            raise errors[0]

    def __enter__(self) -> "SconnaService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _top_k_lists(
    logits: np.ndarray, order: np.ndarray, k: int
) -> "list[list[tuple[int, float]]]":
    """Per-image (class, logit) pairs, best first (``order`` precomputed)."""
    k = min(k, logits.shape[1])
    return [
        [(int(c), float(logits[i, c])) for c in order[i, :k]]
        for i in range(logits.shape[0])
    ]


class ShutdownHandlers:
    """Installed SIGINT/SIGTERM handlers that drain a service on signal.

    Relying on garbage collection to stop a service leaks shard worker
    processes when the interpreter is killed mid-serve; these handlers
    make a signal perform the orderly teardown instead: HTTP servers
    stop accepting, every lane drains, the backend reaps its workers -
    no orphaned children.  After cleanup the previous handler is
    restored and (when ``chain=True``) the signal re-raised, so default
    process-exit semantics still apply.

    Use :func:`install_shutdown_handlers`; call from the main thread
    (CPython only delivers signals there).  HTTP servers passed in must
    be running ``serve_forever`` on *another* thread (as
    :func:`~repro.serve.httpd.serve_http` does) - ``shutdown()`` blocks
    until that loop exits.
    """

    def __init__(
        self,
        service,
        servers: "tuple | list" = (),
        signals: "tuple[int, ...]" = (signal_module.SIGINT, signal_module.SIGTERM),
        chain: bool = True,
        timeout: float | None = 10.0,
    ) -> None:
        self.service = service
        self.servers = tuple(servers)
        self.chain = chain
        self.timeout = timeout
        self.triggered: "int | None" = None
        self._done = threading.Event()
        self._previous: "dict[int, object]" = {}
        for signum in signals:
            self._previous[signum] = signal_module.signal(signum, self._handle)

    def _handle(self, signum, frame) -> None:
        self.trigger(signum)
        if self.chain:
            signal_module.raise_signal(signum)

    def trigger(self, signum: int) -> None:
        """Run the teardown (idempotent); restores the previous handlers."""
        first = self.triggered is None
        self.triggered = signum
        if not first:
            return
        for server in self.servers:
            try:
                server.shutdown()
            except Exception:
                pass
        try:
            self.service.close(self.timeout)
        finally:
            self.restore()
            self._done.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until a signal has completed the teardown."""
        return self._done.wait(timeout)

    def restore(self) -> None:
        """Put the previous signal handlers back."""
        for signum, previous in self._previous.items():
            try:
                signal_module.signal(signum, previous)
            except (ValueError, TypeError):
                pass  # not the main thread / handler not restorable
        self._previous = {}


def install_shutdown_handlers(
    service,
    servers: "tuple | list" = (),
    signals: "tuple[int, ...]" = (signal_module.SIGINT, signal_module.SIGTERM),
    chain: bool = True,
    timeout: float | None = 10.0,
) -> ShutdownHandlers:
    """Install SIGINT/SIGTERM handlers that drain ``service`` (and shut
    down the given HTTP ``servers`` first); returns the handle."""
    return ShutdownHandlers(
        service, servers=servers, signals=signals, chain=chain, timeout=timeout
    )
