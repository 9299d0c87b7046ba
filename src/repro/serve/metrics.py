"""Serving metrics: throughput, latency percentiles, batch shapes.

One :class:`ServeMetrics` instance per service aggregates everything
the benchmark and the HTTP ``/v1/metrics`` endpoint report.  The service
records every batch exactly once, in the parent process, when the
backend hands the batch back (shards record nothing), so a snapshot is
an in-memory read that no busy or crashed shard can stall or shrink.
All recording methods are thread-safe (the scheduler, the backend's
completion threads, and every client thread write concurrently);
reading is a consistent :meth:`snapshot`.

Across replicas, :meth:`state` exports an instance's raw counters and
samples as a JSON-able dict (``/v1/metrics?format=state``), and
:meth:`merge` folds such states into one aggregate whose
:meth:`snapshot` reads exactly like a single service's - this is how a
fleet router merges its replicas.

Latency and wait samples are kept in bounded deques - a long-lived
service keeps the most recent :data:`MAX_SAMPLES` observations, so the
percentiles track current behaviour rather than boot-time history.
"""

from __future__ import annotations

import threading
import time
from collections import deque

#: latency and wait samples each instance keeps (newest win)
MAX_SAMPLES = 100_000


def percentile(values: "list[float]", q: float) -> float:
    """Linear-interpolated percentile of an unsorted sample (q in [0, 100])."""
    if not values:
        raise ValueError("cannot take a percentile of an empty sample")
    if not (0.0 <= q <= 100.0):
        raise ValueError("q must be in [0, 100]")
    data = sorted(values)
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * (q / 100.0)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return float(data[lo] * (1.0 - frac) + data[hi] * frac)


class ServeMetrics:
    """Thread-safe serving counters and samples."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latencies_s: "deque[float]" = deque(maxlen=MAX_SAMPLES)
        self._waits_s: "deque[float]" = deque(maxlen=MAX_SAMPLES)
        self._batch_hist: "dict[int, int]" = {}
        self._n_requests = 0
        self._n_images = 0
        self._n_batches = 0
        self._n_batched_requests = 0
        self._n_errors = 0
        self._n_shed = 0
        self._first_done: float | None = None
        self._last_done: float | None = None
        #: per-model simulated accelerator spend: model -> {energy_j,
        #: latency_s, images}.  Monotonic counters, so the Prometheus
        #: exposition can export them as ``_total`` families and a
        #: scraper can derive energy-per-inference rates.
        self._accel_costs: "dict[str, dict]" = {}

    # -- recording -------------------------------------------------------
    def record_batch(self, n_requests: int, n_images: int) -> None:
        """One coalesced batch: its request count and its image count
        (they differ when requests carry multi-image stacks)."""
        with self._lock:
            self._n_batches += 1
            self._n_batched_requests += n_requests
            self._batch_hist[n_images] = self._batch_hist.get(n_images, 0) + 1

    def record_request(self, latency_s: float, wait_s: float, n_images: int = 1) -> None:
        """Record one completed request (latency, queue wait, image count)."""
        self.record_requests([(latency_s, wait_s, n_images)])

    def record_requests(
        self, samples: "list[tuple[float, float, int]]"
    ) -> None:
        """Batch variant of :meth:`record_request`: one lock acquisition
        per coalesced batch instead of one per request."""
        if not samples:
            return
        now = time.monotonic()
        with self._lock:
            for latency_s, wait_s, n_images in samples:
                self._n_requests += 1
                self._n_images += n_images
                self._latencies_s.append(float(latency_s))
                self._waits_s.append(float(wait_s))
            if self._first_done is None:
                self._first_done = now
            self._last_done = now

    def record_error(self, n_requests: int = 1) -> None:
        """Count requests that resolved with an execution error."""
        with self._lock:
            self._n_errors += n_requests

    def record_shed(self, n_requests: int = 1) -> None:
        """Requests rejected by admission control (never enqueued; they
        are not errors - the client was told to back off and retry)."""
        with self._lock:
            self._n_shed += n_requests

    def record_cost(
        self, model: str, energy_j: float, latency_s: float, n_images: int
    ) -> None:
        """Accumulate one batch's simulated accelerator spend for
        ``model`` (energy in joules, device latency in seconds, and the
        image count the spend covers)."""
        with self._lock:
            acc = self._accel_costs.setdefault(
                model, {"energy_j": 0.0, "latency_s": 0.0, "images": 0}
            )
            acc["energy_j"] += float(energy_j)
            acc["latency_s"] += float(latency_s)
            acc["images"] += int(n_images)

    def reset(self) -> None:
        """Discard everything recorded so far (e.g. warm-up traffic)."""
        with self._lock:
            self._latencies_s.clear()
            self._waits_s.clear()
            self._batch_hist.clear()
            self._n_requests = self._n_images = 0
            self._n_batches = self._n_batched_requests = 0
            self._n_errors = self._n_shed = 0
            self._first_done = self._last_done = None
            self._accel_costs.clear()

    # -- aggregation across replicas -------------------------------------
    def state(self) -> dict:
        """Raw counters and samples as a JSON-able dict.

        This is the wire format ``/v1/metrics?format=state`` serves;
        feed it back through :meth:`merge` to aggregate.
        """
        with self._lock:
            return {
                "latencies_s": list(self._latencies_s),
                "waits_s": list(self._waits_s),
                "batch_hist": dict(self._batch_hist),
                "n_requests": self._n_requests,
                "n_images": self._n_images,
                "n_batches": self._n_batches,
                "n_batched_requests": self._n_batched_requests,
                "n_errors": self._n_errors,
                "n_shed": self._n_shed,
                "first_done": self._first_done,
                "last_done": self._last_done,
                "accel_costs": {m: dict(v) for m, v in self._accel_costs.items()},
            }

    def merge(self, other: "ServeMetrics | dict") -> "ServeMetrics":
        """Fold another instance's (or exported state's) data into this one.

        Counters add, histograms add per bucket (string keys from a
        JSON round trip are restored to ints), bounded sample deques
        extend (keeping the most recent :data:`MAX_SAMPLES`), and the
        completion span widens to cover both sources.  Completion
        timestamps are ``time.monotonic`` values; on Linux that clock is
        system-wide, so spans merged across processes on one machine
        stay coherent.  Returns ``self`` for chaining.
        """
        state = other.state() if isinstance(other, ServeMetrics) else other
        with self._lock:
            self._latencies_s.extend(state["latencies_s"])
            self._waits_s.extend(state["waits_s"])
            for size, count in state["batch_hist"].items():
                size = int(size)
                self._batch_hist[size] = self._batch_hist.get(size, 0) + count
            self._n_requests += state["n_requests"]
            self._n_images += state["n_images"]
            self._n_batches += state["n_batches"]
            self._n_batched_requests += state["n_batched_requests"]
            self._n_errors += state["n_errors"]
            # .get: states predating admission control lack the key
            self._n_shed += state.get("n_shed", 0)
            # .get: states predating cost accounting lack the key
            for model, theirs in state.get("accel_costs", {}).items():
                acc = self._accel_costs.setdefault(
                    model, {"energy_j": 0.0, "latency_s": 0.0, "images": 0}
                )
                acc["energy_j"] += float(theirs.get("energy_j", 0.0))
                acc["latency_s"] += float(theirs.get("latency_s", 0.0))
                acc["images"] += int(theirs.get("images", 0))
            for theirs, pick in (
                (state["first_done"], min), (state["last_done"], max)
            ):
                if theirs is not None:
                    attr = "_first_done" if pick is min else "_last_done"
                    ours = getattr(self, attr)
                    setattr(self, attr, theirs if ours is None else pick(ours, theirs))
        return self

    # -- reading ---------------------------------------------------------
    def snapshot(self) -> dict:
        """A consistent, JSON-ready view of every aggregate."""
        with self._lock:
            latencies = list(self._latencies_s)
            waits = list(self._waits_s)
            hist = dict(self._batch_hist)
            n_requests, n_images = self._n_requests, self._n_images
            n_batches, n_errors = self._n_batches, self._n_errors
            n_batched_requests, n_shed = self._n_batched_requests, self._n_shed
            first, last = self._first_done, self._last_done
            accel = {m: dict(v) for m, v in self._accel_costs.items()}

        def ms_stats(samples: "list[float]") -> dict:
            if not samples:
                return {"count": 0}
            return {
                "count": len(samples),
                "mean_ms": 1e3 * sum(samples) / len(samples),
                "p50_ms": 1e3 * percentile(samples, 50.0),
                "p95_ms": 1e3 * percentile(samples, 95.0),
                "p99_ms": 1e3 * percentile(samples, 99.0),
                "max_ms": 1e3 * max(samples),
            }

        span_s = (last - first) if (first is not None and last is not None) else 0.0
        total_batched = sum(size * count for size, count in hist.items())
        return {
            "requests": n_requests,
            "images": n_images,
            "batches": n_batches,
            "errors": n_errors,
            "shed": n_shed,
            # completions per second over the observed completion span;
            # needs >= 2 completions for a meaningful span
            "requests_per_s": (n_requests - 1) / span_s if span_s > 0 else None,
            "latency": ms_stats(latencies),
            "queue_wait": ms_stats(waits),
            "batch_size": {
                "histogram": {str(k): v for k, v in sorted(hist.items())},
                "mean": total_batched / n_batches if n_batches else None,
                "mean_requests": (
                    n_batched_requests / n_batches if n_batches else None
                ),
                "max": max(hist) if hist else None,
            },
            "accel_costs": {
                model: {
                    "energy_j": acc["energy_j"],
                    "latency_s": acc["latency_s"],
                    "images": acc["images"],
                    "energy_j_per_image": (
                        acc["energy_j"] / acc["images"] if acc["images"] else None
                    ),
                    "latency_s_per_image": (
                        acc["latency_s"] / acc["images"] if acc["images"] else None
                    ),
                }
                for model, acc in sorted(accel.items())
            },
        }
