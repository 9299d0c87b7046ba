"""Request tracing: monotonic-clock span trees with sampling.

One :class:`Trace` follows one request across every serving seam - HTTP
parse, admission, batch queue, backend dispatch, shard execution, engine
stages, response encode - as a tree of :class:`Span` records.  The
design constraints, in order:

* **Low overhead when off.**  :meth:`Tracer.start` returns ``None`` for
  unsampled requests (one RNG draw under a lock), and every
  instrumentation site guards on ``trace is not None`` - an untraced
  request pays no clock reads and allocates nothing.
* **Cross-process span rejoining.**  Shard worker processes record
  spans with ``time.monotonic()``, which is system-wide on Linux (the
  same property :meth:`~repro.serve.metrics.ServeMetrics.merge` relies
  on), so a shard's ``(start_s, end_s)`` pairs are directly comparable
  to the parent's.  The shard ships plain ``(name, start_s, end_s,
  tags)`` tuples back over the pipe alongside the logits and the parent
  grafts them into the request's trace with :meth:`Trace.add_spans`.
* **Deterministic sampling.**  :class:`TracePolicy` carries an optional
  ``seed``; a seeded tracer's admit/skip sequence is a pure function of
  the request order, which the sampling tests lock.

Completed traces land in a bounded :class:`TraceStore` ring (oldest
evicted first) that the ``/v1/trace`` endpoint reads; each trace
exports as plain JSON (:meth:`Trace.as_dict`) or as Chrome
``trace_event`` JSON (:meth:`Trace.chrome_events`) loadable in
``about://tracing`` / Perfetto for flamegraph inspection.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed operation inside a trace (times are ``time.monotonic``)."""

    span_id: str
    name: str
    start_s: float
    end_s: "float | None" = None
    parent_id: "str | None" = None       #: None marks the root span
    tags: dict = field(default_factory=dict)

    @property
    def duration_ms(self) -> "float | None":
        if self.end_s is None:
            return None
        return (self.end_s - self.start_s) * 1e3

    def as_dict(self) -> dict:
        """JSON-serializable span (one entry of a trace document)."""
        return {
            "span_id": self.span_id,
            "name": self.name,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_ms": self.duration_ms,
            "tags": dict(self.tags),
        }


@dataclass(frozen=True)
class TracePolicy:
    """Sampling policy of one :class:`Tracer`.

    ``sample_rate`` is the fraction of requests traced up front;
    ``always_sample_slow_ms``, when set, records spans for *every*
    request but only commits unsampled ones whose total duration
    reaches the threshold - the slow tail is always visible, the
    common case pays the sampled rate.  ``profile_engine`` asks the
    execution layer for per-stage engine timings (quantize / im2col /
    matmul / remainder / requantize) on sampled requests; it changes
    wall time only, never logits.  ``seed`` makes the admit/skip
    sequence deterministic.
    """

    sample_rate: float = 1.0 / 16.0
    always_sample_slow_ms: "float | None" = None
    profile_engine: bool = False
    seed: "int | None" = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.sample_rate <= 1.0):
            raise ValueError("sample_rate must be in [0, 1]")
        if (self.always_sample_slow_ms is not None
                and self.always_sample_slow_ms < 0):
            raise ValueError("always_sample_slow_ms must be >= 0 (or None)")

    def as_dict(self) -> dict:
        """JSON-serializable policy knobs (reported by tracer stats)."""
        return {
            "sample_rate": self.sample_rate,
            "always_sample_slow_ms": self.always_sample_slow_ms,
            "profile_engine": self.profile_engine,
            "seed": self.seed,
        }


#: disabled-tracing policy: start() always returns None
POLICY_OFF = TracePolicy(sample_rate=0.0)
#: trace everything, with engine profiling (tests / demo / debugging)
POLICY_ALWAYS = TracePolicy(sample_rate=1.0, profile_engine=True)


class Trace:
    """One request's span tree (thread-safe; spans arrive from the HTTP
    handler thread, the batching scheduler, and backend collector
    threads as the request moves between them)."""

    __slots__ = (
        "trace_id", "sampled", "wants_profile", "root", "_spans",
        "_ids", "_lock",
    )

    def __init__(
        self,
        name: str = "request",
        trace_id: "str | None" = None,
        sampled: bool = True,
        wants_profile: bool = False,
        tags: "dict | None" = None,
    ) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.sampled = sampled
        self.wants_profile = wants_profile
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.root = Span(
            span_id="0", name=name, start_s=time.monotonic(),
            tags=dict(tags or {}),
        )
        self._spans: "list[Span]" = [self.root]

    # -- recording -------------------------------------------------------
    def set_tags(self, **tags) -> None:
        """Attach metadata to the root span (model, batch id, status...)."""
        with self._lock:
            self.root.tags.update(tags)

    def add_span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        tags: "dict | None" = None,
        parent_id: "str | None" = None,
    ) -> str:
        """Record one already-timed span; returns its id.

        ``parent_id=None`` parents under the root - instrumentation
        sites along the request path never need to thread span ids.
        """
        with self._lock:
            span = Span(
                span_id=str(next(self._ids)),
                name=name,
                start_s=float(start_s),
                end_s=float(end_s),
                parent_id=self.root.span_id if parent_id is None else parent_id,
                tags=dict(tags or {}),
            )
            self._spans.append(span)
            return span.span_id

    def add_spans(
        self,
        entries: "list[tuple]",
        parent_id: "str | None" = None,
    ) -> None:
        """Graft externally-recorded ``(name, start_s, end_s, tags)``
        tuples (engine profiles, shard-side spans) under ``parent_id``."""
        for name, start_s, end_s, tags in entries:
            self.add_span(name, start_s, end_s, tags=tags, parent_id=parent_id)

    class _Timed:
        __slots__ = ("trace", "name", "tags", "parent_id", "span_id", "_t0")

        def __init__(self, trace, name, tags, parent_id):
            self.trace = trace
            self.name = name
            self.tags = tags
            self.parent_id = parent_id
            self.span_id: "str | None" = None

        def __enter__(self):
            self._t0 = time.monotonic()
            return self

        def __exit__(self, exc_type, exc, tb):
            tags = dict(self.tags or {})
            if exc is not None:
                tags["error"] = f"{exc_type.__name__}: {exc}"
            self.span_id = self.trace.add_span(
                self.name, self._t0, time.monotonic(),
                tags=tags, parent_id=self.parent_id,
            )
            return False

    def span(
        self, name: str, tags: "dict | None" = None,
        parent_id: "str | None" = None,
    ) -> "_Timed":
        """Context manager timing a block into one span."""
        return self._Timed(self, name, tags, parent_id)

    def finish(self) -> None:
        """Close the root span (idempotent: first close wins)."""
        with self._lock:
            if self.root.end_s is None:
                self.root.end_s = time.monotonic()

    # -- reading / export ------------------------------------------------
    @property
    def duration_ms(self) -> "float | None":
        return self.root.duration_ms

    def spans(self) -> "list[Span]":
        """The recorded spans, in append order (a copy; safe to iterate)."""
        with self._lock:
            return list(self._spans)

    def breakdown(self) -> "dict[str, float]":
        """Total milliseconds per span name (the per-request latency
        breakdown the structured log line carries)."""
        out: "dict[str, float]" = {}
        for span in self.spans():
            if span.end_s is None:
                continue
            out[span.name] = out.get(span.name, 0.0) + span.duration_ms
        return out

    def summary(self) -> dict:
        """The /v1/trace list entry."""
        spans = self.spans()
        return {
            "trace_id": self.trace_id,
            "name": self.root.name,
            "sampled": self.sampled,
            "duration_ms": self.duration_ms,
            "n_spans": len(spans),
            "tags": dict(self.root.tags),
        }

    def as_dict(self) -> dict:
        """The full ``/v1/trace/<id>`` document: tags plus every span."""
        return {
            "trace_id": self.trace_id,
            "sampled": self.sampled,
            "duration_ms": self.duration_ms,
            "spans": [span.as_dict() for span in self.spans()],
        }

    def chrome_events(self) -> "list[dict]":
        """Chrome ``trace_event`` complete events (``ph="X"``, ts/dur in
        microseconds relative to the trace start) for about://tracing."""
        t0 = self.root.start_s
        events = []
        for span in self.spans():
            end_s = span.end_s if span.end_s is not None else time.monotonic()
            shard = span.tags.get("shard")
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": (span.start_s - t0) * 1e6,
                "dur": (end_s - span.start_s) * 1e6,
                "pid": 1,
                "tid": "serve" if shard is None else f"shard-{shard}",
                "args": dict(span.tags, span_id=span.span_id,
                             parent_id=span.parent_id),
            })
        return events


class TraceStore:
    """Bounded in-memory ring of completed traces (oldest evicted)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, Trace]" = OrderedDict()
        self.evicted = 0

    def add(self, trace: Trace) -> None:
        """Store a finished trace, evicting the oldest past capacity."""
        with self._lock:
            self._traces[trace.trace_id] = trace
            self._traces.move_to_end(trace.trace_id)
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)
                self.evicted += 1

    def get(self, trace_id: str) -> "Trace | None":
        """The stored trace with this id, or ``None``."""
        with self._lock:
            return self._traces.get(trace_id)

    def latest(self) -> "Trace | None":
        """The most recently stored trace, or ``None``."""
        with self._lock:
            if not self._traces:
                return None
            return next(reversed(self._traces.values()))

    def summaries(self, limit: int = 50) -> "list[dict]":
        """Newest-first trace summaries for the list endpoint."""
        with self._lock:
            traces = list(self._traces.values())
        return [t.summary() for t in reversed(traces[-limit:] if limit else traces)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def stats(self) -> dict:
        """Capacity/stored/evicted counters for the ring."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "stored": len(self._traces),
                "evicted": self.evicted,
            }


class Tracer:
    """Sampling front door: decides per request, owns the trace ring.

    ``start`` returns ``None`` for requests that will never be
    committed (the zero-overhead common case), a recording
    :class:`Trace` otherwise; ``finish`` closes the root span and
    commits the trace to the store when it was sampled up front or
    crossed the slow threshold.
    """

    def __init__(
        self,
        policy: "TracePolicy | None" = None,
        capacity: int = 256,
    ) -> None:
        self.policy = policy or TracePolicy()
        self.store = TraceStore(capacity)
        self._rng = random.Random(self.policy.seed)
        self._lock = threading.Lock()
        self.started = 0
        self.committed = 0

    def start(
        self, name: str = "request", trace_id: "str | None" = None, **tags
    ) -> "Trace | None":
        """Begin a trace for one request, or ``None`` when unsampled.

        ``trace_id`` propagates an upstream id (a fleet router sends
        its own in ``X-Sconna-Parent-Trace``): the local trace adopts
        it, so the router's hop spans and this process's span tree are
        queryable under one id on both sides - distributed tracing
        with nothing but an HTTP header.
        """
        policy = self.policy
        if policy.sample_rate >= 1.0:
            sampled = True
        elif policy.sample_rate <= 0.0:
            sampled = False
        else:
            with self._lock:
                sampled = self._rng.random() < policy.sample_rate
        if not sampled and policy.always_sample_slow_ms is None:
            return None
        with self._lock:
            self.started += 1
        return Trace(
            name=name, trace_id=trace_id, sampled=sampled,
            wants_profile=policy.profile_engine, tags=tags,
        )

    def finish(self, trace: "Trace | None", **tags) -> bool:
        """Close and maybe commit; returns whether the trace was kept."""
        if trace is None:
            return False
        if tags:
            trace.set_tags(**tags)
        trace.finish()
        keep = trace.sampled
        slow_ms = self.policy.always_sample_slow_ms
        if not keep and slow_ms is not None:
            duration = trace.duration_ms
            keep = duration is not None and duration >= slow_ms
        if keep:
            self.store.add(trace)
            with self._lock:
                self.committed += 1
        return keep

    def stats(self) -> dict:
        """Sampling counters plus store stats (``/v1/metrics`` telemetry)."""
        with self._lock:
            started, committed = self.started, self.committed
        return {
            "policy": self.policy.as_dict(),
            "started": started,
            "committed": committed,
            "store": self.store.stats(),
        }
