"""Dynamic micro-batching: coalesce requests into engine-sized batches.

The vectorized engine's throughput comes from amortizing Python and
kernel-launch overhead across the batch axis, but serving traffic
arrives one image at a time.  The :class:`MicroBatcher` closes that gap:
requests enter a queue; a scheduler thread pops the first request and
scoops everything already queued into one batch (up to
``max_batch_size`` images), dispatching the moment the queue is
momentarily drained - *continuous batching*, where coalescing emerges
from backpressure: while a worker computes one batch, new arrivals pile
up and become the next batch.  Under load batches grow toward the cap;
a lone request at a quiet moment is dispatched immediately, paying no
batching latency at all.

For open-loop trickle traffic a policy can instead trade latency for
batch size: with ``min_fill > 1`` an open batch below ``min_fill``
images blocks for more work until ``max_wait_ms`` has elapsed since the
batch opened, then flushes whatever it has.

Coalescing rules:

* requests are never split - a request carrying more images than
  ``max_batch_size`` is dispatched as its own oversized batch (one
  request, one future: see
  :class:`repro.stochastic.error_models.PerRequestErrorModels`);
* a gathered request that would overflow the open batch, or whose
  image shape differs from the batch's first request, is carried over
  as the first member of the next batch, preserving arrival order (so a
  malformed request fails alone instead of failing its neighbours'
  concatenation).

Shutdown is graceful by default: :meth:`close` rejects new submissions,
drains everything already queued through the dispatcher, then joins the
scheduler thread - in-flight requests complete rather than error.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from concurrent import futures
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

#: queue marker that wakes the scheduler for shutdown
_SENTINEL = object()


@dataclass(frozen=True)
class BatchingPolicy:
    """Coalescing limits of one scheduler."""

    max_batch_size: int = 32     #: images per dispatched batch
    max_wait_ms: float = 2.0     #: max hold time while below ``min_fill``
    min_fill: int = 1            #: images below which an open batch waits

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_ms < 0.0:
            raise ValueError("max_wait_ms must be >= 0")
        if not (1 <= self.min_fill <= self.max_batch_size):
            raise ValueError("min_fill must be in [1, max_batch_size]")


@dataclass
class InferenceRequest:
    """One client request travelling through the scheduler."""

    request_id: int
    images: np.ndarray               #: (n, C, H, W) batch slice; dtype is
                                     #: preserved end to end (uint8/int8
                                     #: frames stay integer-native)
    error_model: object | None       #: per-request SconnaErrorModel (or None)
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.monotonic)
    top_k: int = 1
    with_cost: bool = False
    trace: object | None = None      #: sampled telemetry Trace (or None);
                                     #: duck-typed so this module stays
                                     #: import-independent of telemetry

    @property
    def n_images(self) -> int:
        return int(self.images.shape[0])


class MicroBatcher:
    """Queue + scheduler thread implementing one model's batching lane.

    ``dispatch`` receives ``list[InferenceRequest]`` for every coalesced
    batch; it must not raise (the service wraps execution and routes
    failures to the request futures).
    """

    def __init__(
        self,
        dispatch,
        policy: BatchingPolicy | None = None,
        name: str = "microbatcher",
    ) -> None:
        self.policy = policy or BatchingPolicy()
        self._dispatch = dispatch
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._batch_ids = itertools.count(1)
        self._carry: InferenceRequest | None = None
        self._closed = False
        self._submit_lock = threading.Lock()
        self._thread = threading.Thread(target=self._loop, name=name, daemon=True)
        self._thread.start()

    # -- client side -----------------------------------------------------
    def submit(self, request: InferenceRequest) -> Future:
        """Enqueue a request; returns its future."""
        # the lock orders the closed-check + put against close()'s
        # sentinel: a request either precedes the sentinel in the queue
        # (and is drained) or the submitter sees closed and raises -
        # never silently enqueued behind a finished scheduler
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("batcher is closed")
            self._queue.put(request)
        return request.future

    def queue_depth(self) -> int:
        """Requests waiting for a batch (approximate, for metrics)."""
        return self._queue.qsize() + (1 if self._carry is not None else 0)

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop accepting work, drain the queue, join the scheduler."""
        with self._submit_lock:
            if not self._closed:
                self._closed = True
                self._queue.put(_SENTINEL)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("scheduler thread did not drain in time")

    @property
    def closed(self) -> bool:
        return self._closed

    # -- scheduler side --------------------------------------------------
    def _safe_dispatch(self, batch: "list[InferenceRequest]") -> None:
        """Dispatch one batch; a raising dispatcher fails the batch's
        futures instead of killing the scheduler thread.

        The execution backend behind ``dispatch`` normally routes
        failures through the futures itself, but the *submission* can
        raise (e.g. the backend lost its last shard, or was closed by a
        racing shutdown) - those requests must still get an answer.
        """
        batch_id = next(self._batch_ids)
        traced = [req for req in batch if req.trace is not None]
        if traced:
            now = time.monotonic()
            opened_at = min(req.enqueued_at for req in batch)
            n_images = sum(req.n_images for req in batch)
            for req in traced:
                req.trace.add_span("queue.wait", req.enqueued_at, now)
                req.trace.add_span(
                    "batch.form", opened_at, now,
                    tags={"batch_requests": len(batch),
                          "batch_images": n_images},
                )
                req.trace.set_tags(batch_id=batch_id,
                                   batch_requests=len(batch),
                                   batch_images=n_images)
        try:
            self._dispatch(batch)
        except BaseException as exc:
            for req in batch:
                if not req.future.done():
                    try:
                        req.future.set_exception(exc)
                    except futures.InvalidStateError:
                        pass  # lost the race with a cancel

    def _next(self, timeout: float | None) -> object | None:
        """Carry-over first, then the queue; None on timeout."""
        if self._carry is not None:
            req, self._carry = self._carry, None
            return req
        try:
            return self._queue.get(timeout=timeout) if timeout is not None else self._queue.get()
        except queue.Empty:
            return None

    def _loop(self) -> None:
        cap = self.policy.max_batch_size
        min_fill = self.policy.min_fill
        max_wait_s = self.policy.max_wait_ms / 1e3
        stopping = False
        while not stopping:
            first = self._next(timeout=None)
            if first is _SENTINEL:
                break
            batch: list[InferenceRequest] = [first]
            n = first.n_images
            deadline = time.monotonic() + max_wait_s
            while n < cap:
                # scoop whatever is already queued without waiting
                item = self._next(timeout=0.0)
                if item is None:
                    if stopping or n >= min_fill:
                        break
                    # below min_fill: hold the batch open until the
                    # deadline, hoping for companions
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    item = self._next(timeout=remaining)
                    if item is None:
                        break
                if item is _SENTINEL:
                    stopping = True
                    continue
                if (n + item.n_images > cap
                        or item.images.shape[1:] != first.images.shape[1:]):
                    self._carry = item
                    break
                batch.append(item)
                n += item.n_images
            self._safe_dispatch(batch)
            if stopping and self._carry is None and self._queue.empty():
                break
        # a carried-over request can outlive the sentinel; flush it
        while self._carry is not None or not self._queue.empty():
            item = self._next(timeout=0.0)
            if item is None:
                break
            if item is not _SENTINEL:
                self._safe_dispatch([item])
