"""Replica-tier router: one front-end, N ``repro.serve`` replicas.

Everything below ``repro.serve.router`` scales *within* one process
tree (threads, shard processes, shm rings); this module is the first
step from "a server" to "a fleet": an HTTP front-end that
load-balances keep-alive connections across multiple independent
server replicas (``python -m repro.serve`` processes, typically one
per host or one per NUMA domain), each fronting the same model
registry.

Design, in the order an operator cares:

* **Per-model consistent routing.**  Each model name is rendezvous-
  hashed over the replica set (highest-random-weight: score =
  ``sha256(model | replica_url)``), and its requests go to the
  top-ranked available replica; the rest of the order takes them
  only while that one is out.  Every replica serves every model, so
  this is for warmth, not capacity: a model's batching lane, warm
  engine buffers, and compiled plans stay hot on one replica instead
  of being diluted across the whole fleet, and adding/removing a
  replica only remaps the models that hashed onto it.
* **Health checks with ejection and re-admission.**  A background
  prober GETs every replica's ``/healthz`` on an interval, each probe
  on a connection of its own bounded by
  :data:`~repro.serve.http11.CONNECT_TIMEOUT_S`, so a hung replica
  costs one such timeout per sweep; after ``eject_after`` consecutive
  failures the replica stops receiving traffic, and after
  ``readmit_after`` consecutive successes it rejoins.
  Connection-level forwarding failures count as health failures too,
  so a crashed replica is ejected by live traffic before the prober's
  next tick.
* **Redispatch.**  A request caught on a dying replica (connection
  refused, reset, or the replica vanished before a status line was
  written) is transparently re-sent to the next replica in its
  routing order, up to ``max_retries`` attempts.  This honours the
  seeded-request reproducibility contract: replicas serve the same
  registry, and a seeded request's logits are a pure function of
  (weights, seed), so a redispatched seeded request returns the
  bit-identical answer the dead replica would have.  Once response
  bytes have been relayed the request is never re-sent (the replica
  executed it; a retry would double noise draws for unseeded
  requests) - a mid-response death surfaces as a 502.
* **Relay.**  Front-end and upstream speak the shared codec
  (:mod:`repro.serve.http11`): a relayed response leaves as one write
  of head and body with the router's own ``Date`` (the replica's
  ``Date`` and ``Server`` are dropped), and a streamed response is
  relayed chunk by chunk as each upstream chunk arrives.
* **Graceful drain.**  :meth:`Router.drain` (or ``POST
  /v1/router/drain?replica=...``) marks a replica draining: no new
  requests are routed to it, in-flight ones complete, and the call
  returns when the replica is idle (with ``timeout=0``, right after
  the mark) - restart it, and the health prober re-admits it.
  ``undrain`` reverses the mark.
* **Fleet-wide metrics.**  ``GET /v1/metrics`` fetches every live
  replica's raw counter state (``/v1/metrics?format=state``, the same
  export shards ship to their parent) and folds them through
  :meth:`~repro.serve.metrics.ServeMetrics.merge` into one snapshot
  that reads exactly like a single server's, plus a ``fleet`` section
  (per-replica health/traffic topology) and a ``router`` section
  (forward/retry/shed counters).  ``?format=prometheus`` renders the
  same text exposition single servers serve.
* **Telemetry.**  The router runs its own
  :class:`~repro.serve.telemetry.Tracer`: a sampled request's trace
  carries ``router.route`` and per-attempt ``router.forward`` spans,
  and the router's trace id is propagated to the replica in the
  ``X-Sconna-Parent-Trace`` header - the replica traces the request
  under the *same* id, so ``/v1/trace/<id>`` on the router shows the
  hop and the same path on the replica shows queue/backend/shard
  spans: router -> replica -> shard, one id end to end.

Routes (the predict/metrics/trace surface mirrors a single server, so
``SconnaClient`` points at a router unchanged)::

    GET  /healthz               -> router liveness + replica counts
    GET  /v1/models             -> union of live replicas' models
    GET  /v1/metrics            -> fleet-merged snapshot (+ fleet/router
                                   sections); ?format=prometheus
    GET  /v1/trace[...]         -> the router's own trace store
    GET  /v1/router             -> routing topology (policy and
                                   per-replica state, read in memory)
    POST /v1/router/drain       -> ?replica=<url|id> graceful drain
    POST /v1/router/undrain     -> ?replica=<url|id> accept traffic again
    POST /v1/predict            -> routed + relayed (streaming included)

CLI - front an existing fleet, or spawn one::

    python -m repro.serve.router --replica http://127.0.0.1:8001 \
        --replica http://127.0.0.1:8002 --port 8000
    python -m repro.serve.router --replica-of MODELS_DIR --n-replicas 2 \
        --port 8000 -- --backend process --shards 1
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
import urllib.parse
from dataclasses import dataclass

from repro.serve import http11
from repro.serve.http11 import RECV_BYTES, Connection, Response, fetch
from repro.serve.httpd import _ServeHandler, ServeHTTPServer
from repro.serve.metrics import ServeMetrics
from repro.serve.telemetry import Tracer, TracePolicy
from repro.serve.wire import (
    CONTENT_TYPE_FRAME,
    CONTENT_TYPE_NPY,
    PARENT_TRACE_HEADER,
    REPLICA_HEADER,
)

#: hop-by-hop headers that must not be relayed verbatim (the router
#: re-frames the body, owns its own connection lifecycle, and has
#: already answered any ``Expect: 100-continue`` itself)
_HOP_HEADERS = frozenset((
    "connection", "keep-alive", "transfer-encoding", "content-length",
    "te", "trailer", "upgrade", "proxy-connection", "expect",
))
#: upstream response headers the router replaces with its own
_RELAY_DROP = _HOP_HEADERS | {"date", "server"}
#: longest wait for one read or write on a forwarding connection
UPSTREAM_TIMEOUT_S = 120.0
#: longest spawn_replicas waits for its replicas to answer /healthz
SPAWN_WAIT_S = 120.0


class ReplicaError(RuntimeError):
    """A replica could not take (or finish receiving) a request."""


@dataclass(frozen=True)
class RouterPolicy:
    """Tunables of one :class:`Router`.

    ``eject_after`` / ``readmit_after`` are consecutive health-probe
    failures/successes before a replica leaves/rejoins the rotation.
    ``max_retries`` bounds forward attempts per request (1 = never
    redispatch).
    """

    health_interval_s: float = 1.0
    eject_after: int = 2
    readmit_after: int = 2
    max_retries: int = 3
    retry_after_s: float = 0.25     #: Retry-After hint on a 503

    def __post_init__(self) -> None:
        if self.eject_after < 1 or self.readmit_after < 1:
            raise ValueError("eject_after/readmit_after must be >= 1")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")

    def as_dict(self) -> dict:
        """JSON-serializable policy knobs (reported under ``/v1/router``)."""
        return {
            "health_interval_s": self.health_interval_s,
            "eject_after": self.eject_after,
            "readmit_after": self.readmit_after,
            "max_retries": self.max_retries,
        }


class Replica:
    """One upstream server: its address, health state, and a small
    keep-alive connection pool (connections are reused across routed
    requests, so the router adds no per-request TCP handshake)."""

    def __init__(self, url: str, policy: RouterPolicy) -> None:
        conn = Connection.to(url)
        self.host, self.port = conn.host, conn.port
        self.url = f"http://{self.host}:{self.port}"
        self.policy = policy
        self.replica_id: "str | None" = None   #: learned from /healthz
        self._lock = threading.Lock()
        self._pool: "list[Connection]" = []
        # health state (guarded by _lock)
        self.healthy = True
        self.draining = False
        self._consecutive_fails = 0
        self._consecutive_oks = 0
        # traffic counters (guarded by _lock)
        self.inflight = 0
        self.routed = 0
        self.failures = 0
        self.ejections = 0
        self.last_error: "str | None" = None

    # -- connection pool -------------------------------------------------
    def _acquire(self) -> Connection:
        """An idle pooled connection, or a new one."""
        with self._lock:
            if self._pool:
                return self._pool.pop()
        return Connection(self.host, self.port, UPSTREAM_TIMEOUT_S)

    def release(self, conn: Connection, ok: bool = True) -> None:
        """Hand a connection back after its response body was consumed.

        ``ok=False`` closes it instead of pooling - a half-read
        response would desync the next request on that connection.  A
        connection the replica closed is dropped, not pooled.
        """
        if ok and conn.sock is not None:
            with self._lock:
                self._pool.append(conn)
        else:
            conn.close()

    def _close_pool(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()

    def request(
        self, method: str, path: str, body: "bytes | None" = None,
        headers: "dict[str, str] | None" = None,
    ) -> "tuple[Connection, Response]":
        """One upstream :meth:`~repro.serve.http11.Connection.exchange`
        on a pooled connection, read to the status line.

        Returns the live ``(connection, response)`` pair - the caller
        reads the body, then hands the connection back with
        :meth:`release` (``ok=False`` if the body was not read
        through).  Any failure raises :class:`ReplicaError`: the
        request produced no status line, so the router may safely
        redispatch it.
        """
        conn = self._acquire()
        try:
            return conn, conn.exchange(method, path, body, headers)
        except OSError as exc:   # timeouts and protocol errors included
            raise ReplicaError(
                f"{self.url}: {type(exc).__name__}: {exc}"
            ) from exc

    # -- health accounting -----------------------------------------------
    def record_success(self) -> "bool":
        """One good probe/forward; returns True on an ejected->healthy
        transition (re-admission)."""
        with self._lock:
            self._consecutive_fails = 0
            self._consecutive_oks += 1
            if (not self.healthy
                    and self._consecutive_oks >= self.policy.readmit_after):
                self.healthy = True
                self.last_error = None
                return True
        return False

    def record_failure(self, error: str) -> "bool":
        """One failed probe/forward; returns True on a healthy->ejected
        transition."""
        self._close_pool()
        with self._lock:
            self._consecutive_oks = 0
            self._consecutive_fails += 1
            self.failures += 1
            self.last_error = error
            if (self.healthy
                    and self._consecutive_fails >= self.policy.eject_after):
                self.healthy = False
                self.ejections += 1
                return True
        return False

    @property
    def available(self) -> bool:
        """Eligible for new traffic (healthy and not draining)."""
        with self._lock:
            return self.healthy and not self.draining

    def state(self) -> dict:
        """Health/traffic snapshot (one ``replicas[]`` row of ``/v1/router``)."""
        with self._lock:
            return {
                "url": self.url,
                "replica_id": self.replica_id,
                "healthy": self.healthy,
                "draining": self.draining,
                "inflight": self.inflight,
                "routed": self.routed,
                "failures": self.failures,
                "ejections": self.ejections,
                "last_error": self.last_error,
            }

    def matches(self, key: str) -> bool:
        """Does ``key`` address this replica (id, URL, or URL suffix)?"""
        return key in (self.url, self.replica_id) or self.url.endswith(key)


class Router:
    """Routing brain: replica set, health prober, fleet aggregation.

    Pair it with :class:`RouterHTTPServer` for the HTTP front-end, or
    drive :meth:`forward` directly from tests.  The object deliberately
    quacks like a :class:`~repro.serve.service.SconnaService` where the
    shared GET routes are concerned (``models()``,
    ``metrics_snapshot()``, ``tracer``), so the single-server HTTP
    handler code serves a fleet unchanged.
    """

    def __init__(
        self,
        replica_urls: "list[str]",
        policy: "RouterPolicy | None" = None,
        tracer: "Tracer | None" = None,
        request_log: "object | None" = None,
        probe_in_background: bool = True,
    ) -> None:
        if not replica_urls:
            raise ValueError("a router needs at least one replica URL")
        self.policy = policy or RouterPolicy()
        self.replicas = [Replica(url, self.policy) for url in replica_urls]
        if len({r.url for r in self.replicas}) != len(self.replicas):
            raise ValueError(f"duplicate replica URLs in {replica_urls!r}")
        self.tracer = tracer if tracer is not None else Tracer()
        self.request_log = request_log
        self._rr = itertools.count()
        self._lock = threading.Lock()
        self._started_at = time.monotonic()
        # router-level counters (not merged into fleet metrics - the
        # replicas already count every request they executed)
        self.routed_total = 0
        self.redispatches = 0
        self.unroutable = 0         #: 503s: no available replica
        self.proxy_errors = 0       #: 502s: replicas died mid-request
        self._closed = False
        self._probe_wake = threading.Event()
        self._prober: "threading.Thread | None" = None
        # probe_in_background=False leaves probing entirely to explicit
        # probe_now() calls - deterministic health transitions in tests
        if probe_in_background:
            self._prober = threading.Thread(
                target=self._probe_loop, name="router-health", daemon=True
            )
            self._prober.start()

    # -- consistent routing ----------------------------------------------
    @staticmethod
    def _score(model: str, url: str) -> int:
        digest = hashlib.sha256(f"{model}|{url}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def ranked(self, model: "str | None") -> "list[Replica]":
        """Every replica in this request's routing order.

        A named model gets its rendezvous-hash order (stable across
        requests, so its first replica keeps its lane warm; the rest
        follow as spill-over).  A model-less request round-robins so
        un-routable work still spreads.
        """
        if model:
            return sorted(
                self.replicas,
                key=lambda r: self._score(model, r.url),
                reverse=True,
            )
        n = len(self.replicas)
        start = next(self._rr) % n
        return [self.replicas[(start + i) % n] for i in range(n)]

    def candidates(self, model: "str | None") -> "list[Replica]":
        """Available replicas in :meth:`ranked` order."""
        return [r for r in self.ranked(model) if r.available]

    # -- forwarding ------------------------------------------------------
    def forward(
        self,
        model: "str | None",
        method: str,
        path: str,
        body: "bytes | None",
        headers: "dict[str, str]",
        trace=None,
        info: "dict | None" = None,
    ) -> "tuple[Replica, Connection, Response]":
        """Route one request; redispatch across replicas on failure.

        Returns the winning ``(replica, connection, response)`` with
        the response read up to the status line - the caller relays
        the body and settles the connection via
        :meth:`settle_forward`.  Raises :class:`ReplicaError` when no
        available replica accepted the request (mapped to 503/502 by
        the HTTP front-end).  ``info``, when given, is filled in place
        with routing facts for the access log: the ``replica`` chosen,
        how many ``redispatches`` it took to land, and the upstream
        ``status`` - filled even on the failure paths, so the log
        tells the truth about requests that never found a home.
        """
        if info is not None:
            info.setdefault("redispatches", 0)
        candidates = self.candidates(model)[: self.policy.max_retries]
        if not candidates:
            with self._lock:
                self.unroutable += 1
            raise ReplicaError(
                f"no available replica for model {model!r} "
                f"({len(self.replicas)} configured)"
            )
        last_error: "ReplicaError | None" = None
        for attempt, replica in enumerate(candidates):
            with replica._lock:
                replica.inflight += 1
            t0 = time.monotonic() if trace is not None else 0.0
            try:
                conn, resp = replica.request(method, path, body, headers)
            except ReplicaError as exc:
                with replica._lock:
                    replica.inflight -= 1
                replica.record_failure(str(exc))
                with self._lock:
                    if attempt + 1 < len(candidates):
                        self.redispatches += 1
                last_error = exc
                if trace is not None:
                    trace.add_span(
                        "router.forward", t0, time.monotonic(),
                        tags={"replica": replica.url, "error": str(exc)},
                    )
                continue
            replica.record_success()
            with replica._lock:
                replica.routed += 1
            with self._lock:
                self.routed_total += 1
            if info is not None:
                info["replica"] = replica.replica_id or replica.url
                info["redispatches"] = attempt
                info["status"] = resp.status
            if trace is not None:
                trace.add_span(
                    "router.forward", t0, time.monotonic(),
                    tags={
                        "replica": replica.url,
                        "attempt": attempt,
                        "status": resp.status,
                    },
                )
            return replica, conn, resp
        with self._lock:
            self.proxy_errors += 1
        if info is not None:
            info["redispatches"] = len(candidates)
        raise ReplicaError(
            f"every candidate replica failed for model {model!r}: "
            f"{last_error}"
        )

    def settle_forward(
        self, replica: Replica, conn: Connection, ok: bool,
    ) -> None:
        """Return a forwarded request's connection after the relay.

        ``ok=False`` (the relay died mid-body) closes the connection
        instead of pooling it and counts a proxy error.
        """
        with replica._lock:
            replica.inflight -= 1
        if not ok:
            with self._lock:
                self.proxy_errors += 1
        replica.release(conn, ok=ok)

    # -- drain / admin ---------------------------------------------------
    def _find(self, key: str) -> Replica:
        for replica in self.replicas:
            if replica.matches(key):
                return replica
        raise KeyError(
            f"no replica matches {key!r}; configured: "
            f"{[r.url for r in self.replicas]}"
        )

    def drain(self, key: str, timeout: "float | None" = 30.0) -> dict:
        """Stop routing to a replica and wait until it is idle.

        Returns its final state; the replica can then be restarted
        safely - no request is in flight on it.  ``timeout=0`` returns
        the state right after the mark, without waiting.  The health
        prober keeps probing a draining replica, so after a restart an
        ``undrain`` (or router restart) re-admits it with warm state.
        """
        replica = self._find(key)
        with replica._lock:
            replica.draining = True
        if timeout == 0:
            return replica.state()
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with replica._lock:
                idle = replica.inflight == 0
            if idle:
                return replica.state()
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"replica {replica.url} still has "
                    f"{replica.inflight} in-flight request(s)"
                )
            time.sleep(0.01)

    def undrain(self, key: str) -> dict:
        """Mark a drained replica eligible for traffic again."""
        replica = self._find(key)
        with replica._lock:
            replica.draining = False
        return replica.state()

    # -- health probing --------------------------------------------------
    def _probe_once(self, replica: Replica) -> None:
        # a connection of its own, so a hung replica costs one connect
        # timeout, not a forwarding connection's read timeout
        try:
            status, payload = fetch(
                replica.url, "GET", "/healthz", http11.CONNECT_TIMEOUT_S
            )
        except OSError as exc:
            replica.record_failure(
                f"{replica.url}: {type(exc).__name__}: {exc}"
            )
            return
        if status != 200:
            replica.record_failure(f"healthz returned {status}")
            return
        try:
            doc = json.loads(payload)
            if doc.get("replica"):
                replica.replica_id = str(doc["replica"])
        except (ValueError, AttributeError):
            pass
        replica.record_success()

    def _probe_loop(self) -> None:
        while not self._closed:
            for replica in self.replicas:
                if self._closed:
                    return
                self._probe_once(replica)
            self._probe_wake.wait(self.policy.health_interval_s)
            self._probe_wake.clear()

    def probe_now(self) -> None:
        """One synchronous probe sweep (tests use this to force
        ejection/re-admission without waiting out the interval)."""
        for replica in self.replicas:
            self._probe_once(replica)

    # -- the SconnaService-shaped surface --------------------------------
    def models(self) -> "list[str]":
        """Union of every live replica's served models.  Each replica is
        asked on a connection of its own, bounded by
        ``http11.CONNECT_TIMEOUT_S``, so a hung one costs one timeout."""
        names: "set[str]" = set()
        for replica in self.replicas:
            if not replica.available:
                continue
            try:
                status, payload = fetch(replica.url, "GET", "/v1/models",
                                        http11.CONNECT_TIMEOUT_S)
                if status == 200:
                    names.update(json.loads(payload).get("models", ()))
            except (ValueError, OSError):
                continue
        return sorted(names)

    def metrics_snapshot(self) -> dict:
        """The fleet-merged snapshot ``GET /v1/metrics`` serves.

        Every reachable replica's raw counter state folds through
        :meth:`ServeMetrics.merge`; the result reads exactly like a
        single server's snapshot, with ``fleet`` (per-replica
        topology) and ``router`` (forward/retry/shed counters)
        sections on top.  One upstream request per healthy replica, on
        a connection of its own bounded by ``http11.CONNECT_TIMEOUT_S``
        (a hung replica's entry carries ``metrics_error``): its state
        document also lists its models, whose union over the available
        replicas is what :meth:`models` would return.
        """
        agg = ServeMetrics()
        per_replica: "list[dict]" = []
        models: "set[str]" = set()
        for replica in self.replicas:
            entry = replica.state()
            if replica.healthy:
                try:
                    status, payload = fetch(
                        replica.url, "GET", "/v1/metrics?format=state",
                        http11.CONNECT_TIMEOUT_S,
                    )
                    if status == 200:
                        doc = json.loads(payload)
                        if replica.available:
                            models.update(doc.get("models") or ())
                        agg.merge(doc["metrics"])
                        entry["models"] = doc.get("models")
                        entry["backend"] = (doc.get("backend") or {}).get("kind")
                        entry["shards"] = (doc.get("backend") or {}).get("shards")
                        entry["requests"] = doc["metrics"].get("n_requests")
                except (ValueError, KeyError, OSError) as exc:
                    entry["metrics_error"] = str(exc)
            per_replica.append(entry)
        snap = agg.snapshot()
        with self._lock:
            router_stats = {
                "policy": self.policy.as_dict(),
                "routed_total": self.routed_total,
                "redispatches": self.redispatches,
                "unroutable": self.unroutable,
                "proxy_errors": self.proxy_errors,
            }
        snap["models"] = sorted(models)
        snap["fleet"] = {
            "replicas": per_replica,
            "healthy": sum(1 for r in self.replicas if r.healthy),
            "available": sum(1 for r in self.replicas if r.available),
            "size": len(self.replicas),
        }
        snap["router"] = router_stats
        snap["uptime_s"] = round(time.monotonic() - self._started_at, 3)
        snap["telemetry"] = self.tracer.stats()
        return snap

    def topology(self) -> dict:
        """The ``GET /v1/router`` document: the policy and every
        replica's state, read in memory (no upstream request)."""
        return {
            "policy": self.policy.as_dict(),
            "replicas": [r.state() for r in self.replicas],
        }

    def close(self) -> None:
        """Stop the prober and drop every pooled connection."""
        self._closed = True
        self._probe_wake.set()
        for replica in self.replicas:
            replica._close_pool()


class _RouterHandler(_ServeHandler):
    """The router's HTTP surface: shared GET routes are inherited from
    the single-server handler (the :class:`Router` quacks like a
    service for them); predict becomes a routed relay."""

    server: "RouterHTTPServer"

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        path = self.path.partition("?")[0]
        if path == "/v1/router":
            self._trace = None
            self._send_json(self.server.router.topology())
            return
        if path == "/healthz":
            router = self.server.router
            self._trace = None
            self._send_json({
                "status": "ok",
                "role": "router",
                "replicas": len(router.replicas),
                "available": sum(
                    1 for r in router.replicas if r.available
                ),
            })
            return
        super().do_GET()

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        router = self.server.router
        path, _, query = self.path.partition("?")
        self._trace = None
        if path in ("/v1/router/drain", "/v1/router/undrain"):
            self._admin_route(router, path, query)
            return
        if path != "/v1/predict":
            self._send_error(404, f"unknown path {self.path!r}")
            return
        trace = router.tracer.start("router.request")
        self._trace = trace
        self._last_status = 0
        started = time.monotonic()
        model = None
        route: dict = {}
        try:
            model = self._proxy_predict(router, query, trace, route)
        finally:
            status = self._last_status
            router.tracer.finish(trace, status=status)
            if router.request_log is not None:
                upstream_ms = route.get("upstream_ms")
                router.request_log.log_request(
                    trace=trace, model=model, wire="proxy", status=status,
                    latency_ms=(time.monotonic() - started) * 1e3,
                    replica=route.get("replica"),
                    redispatches=route.get("redispatches", 0),
                    upstream_ms=(
                        round(upstream_ms, 3) if upstream_ms is not None
                        else None
                    ),
                )
            self._trace = None

    def _admin_route(self, router: Router, path: str, query: str) -> None:
        params = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(query).items()
        }
        key = params.get("replica")
        if not key:
            self._send_error(400, "the 'replica' parameter is required")
            return
        try:
            if path.endswith("/drain"):
                timeout = float(params.get("timeout", 30.0))
                state = router.drain(key, timeout=timeout)
            else:
                state = router.undrain(key)
        except KeyError as exc:
            self._send_error(404, str(exc))
        except TimeoutError as exc:
            self._send_error(504, str(exc))
        except ValueError as exc:
            self._send_error(400, str(exc))
        else:
            self._send_json({"replica": state})

    # -- the proxy path --------------------------------------------------
    def _proxy_predict(
        self, router: Router, query: str, trace, route: "dict | None" = None
    ) -> "str | None":
        body = self._read_predict_body()
        if body is None:
            return None
        ctype = (self.headers.get("Content-Type") or "").partition(";")[0]
        model = self._peek_model(ctype.strip().lower(), body, query)
        if trace is not None:
            trace.set_tags(model=model, nbytes=len(body))
        headers = {
            name: value
            for name, value in self.headers.items()
            if name.lower() not in _HOP_HEADERS
        }
        if trace is not None:
            # the replica adopts this id: one trace id from the client
            # through the router hop to the replica's shard spans
            headers[PARENT_TRACE_HEADER] = trace.trace_id
        t0 = time.monotonic() if trace is not None else 0.0
        upstream_t0 = time.monotonic()
        try:
            replica, conn, resp = router.forward(
                model, "POST", self.path, body, headers, trace=trace,
                info=route,
            )
        except ReplicaError as exc:
            available = any(r.available for r in router.replicas)
            if available:
                self._send_error(502, f"fleet forward failed: {exc}")
            else:
                self._send_error(
                    503, f"no available replica: {exc}",
                    retry_after_s=router.policy.retry_after_s,
                )
            return model
        if trace is not None:
            trace.add_span("router.relay", t0, time.monotonic(),
                           tags={"replica": replica.url})
        ok = False
        try:
            ok = self._relay(replica, resp)
        finally:
            # upstream latency: forward (status line) through relayed body
            if route is not None:
                route["upstream_ms"] = (time.monotonic() - upstream_t0) * 1e3
            router.settle_forward(replica, conn, ok)
        return model

    def _peek_model(self, ctype: str, body, query: str) -> "str | None":
        """The model name a request routes on, from whichever encoding
        it rides (bad bodies route round-robin and let the replica
        produce the authoritative 400)."""
        try:
            if ctype == CONTENT_TYPE_NPY or query:
                params = {
                    key: values[-1]
                    for key, values in urllib.parse.parse_qs(query).items()
                }
                if params.get("model"):
                    return str(params["model"])
            if ctype == CONTENT_TYPE_FRAME:
                from repro.serve import wire

                meta, _ = wire.decode_frame(body)
                model = meta.get("model")
                return None if model is None else str(model)
            if ctype.endswith("json") or not ctype:
                model = json.loads(bytes(body)).get("model")
                return None if model is None else str(model)
        except Exception:
            return None
        return None

    def _relay(self, replica: Replica, resp: Response) -> bool:
        """Copy one upstream response to the client, preserving the
        status, the replica's headers (trace id, Retry-After, replica
        id included), and chunked framing for streamed responses - each
        chunk is relayed as soon as it arrives.  Returns False when
        either side died mid-relay."""
        self._last_status = resp.status
        headers = [
            (name, value) for name, value in resp.headers.items()
            if name.lower() not in _RELAY_DROP
        ]
        if resp.headers.get(REPLICA_HEADER) is None:
            headers.append((REPLICA_HEADER, replica.replica_id or replica.url))
        try:
            if resp.chunked:
                self.start_chunked(resp.status, headers)
                for chunk in iter(lambda: resp.read(RECV_BYTES), b""):
                    self.send_chunk(chunk)
                self.end_chunked()
            else:
                self.send_message(resp.status, headers, resp.read())
            return True
        except OSError:
            self.close_connection = True
            return False


class RouterHTTPServer(ServeHTTPServer):
    """HTTP front-end bound to one :class:`Router` (``port=0`` picks a
    free port).  Inherits the single-server handler plumbing; the
    router object stands in for the service on the shared GET routes."""

    def __init__(
        self,
        router: Router,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.router = router
        # ServeHTTPServer wiring: the inherited handler's GET routes
        # read .service; the router provides that surface
        super().__init__(
            router, host=host, port=port, handler_class=_RouterHandler,
        )


def serve_router(
    router: Router,
    host: str = "127.0.0.1",
    port: int = 0,
) -> "tuple[RouterHTTPServer, threading.Thread]":
    """Start a background router front-end; returns (server, thread)."""
    server = RouterHTTPServer(router, host=host, port=port)
    thread = threading.Thread(
        target=server.serve_forever, name="sconna-router", daemon=True
    )
    thread.start()
    return server, thread


def spawn_replicas(
    registry: str,
    n_replicas: int,
    base_port: int,
    host: str = "127.0.0.1",
    extra_args: "list[str] | None" = None,
):
    """Spawn ``n_replicas`` local ``python -m repro.serve`` processes.

    Each replica serves the given registry on ``base_port + i`` with
    ``--replica-id replica-<i>``; the call blocks until every replica
    answers ``/healthz``, and raises when one exits first or
    :data:`SPAWN_WAIT_S` passes.  Returns ``(processes, urls)``;
    terminate the processes (SIGTERM drains them) when done.
    """
    import subprocess
    import sys

    processes = []
    urls = []
    for i in range(n_replicas):
        port = base_port + i
        cmd = [
            sys.executable, "-m", "repro.serve",
            "--registry", str(registry),
            "--host", host, "--port", str(port),
            "--replica-id", f"replica-{i}",
        ] + list(extra_args or ())
        processes.append(subprocess.Popen(cmd))
        urls.append(f"http://{host}:{port}")
    deadline = time.monotonic() + SPAWN_WAIT_S
    for proc, url in zip(processes, urls):
        while True:
            try:
                status, _ = fetch(
                    url, "GET", "/healthz", http11.CONNECT_TIMEOUT_S
                )
                if status == 200:
                    break
            except OSError:
                pass
            exited = proc.poll() is not None
            if exited or time.monotonic() >= deadline:
                for other in processes:
                    other.terminate()
                if exited:
                    raise RuntimeError(
                        f"replica {url} exited with status {proc.returncode}"
                    )
                raise TimeoutError(f"replica {url} never became healthy")
            time.sleep(0.1)
    return processes, urls


def main(argv: "list[str] | None" = None) -> None:
    """CLI: front an existing replica fleet, or spawn one and front it."""
    import argparse
    import signal as signal_module

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.router",
        description="Load-balance requests across repro.serve replicas "
                    "(consistent per-model routing, health checks, "
                    "drain, fleet-wide /v1/metrics).",
    )
    parser.add_argument("--replica", action="append", default=None,
                        metavar="URL",
                        help="replica base URL (repeatable), e.g. "
                             "http://127.0.0.1:8001")
    parser.add_argument("--replica-of", default=None, metavar="REGISTRY",
                        help="spawn helper: start --n-replicas local "
                             "'python -m repro.serve' replicas of this "
                             "model registry and front them")
    parser.add_argument("--n-replicas", type=int, default=2,
                        help="replicas to spawn with --replica-of "
                             "(default: 2)")
    parser.add_argument("--base-port", type=int, default=8001,
                        help="first spawned replica port (default: 8001)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000)
    parser.add_argument("--health-interval", type=float, default=1.0,
                        help="seconds between health-probe sweeps")
    parser.add_argument("--eject-after", type=int, default=2,
                        help="consecutive probe failures before ejection")
    parser.add_argument("--readmit-after", type=int, default=2,
                        help="consecutive probe successes before rejoin")
    parser.add_argument("--max-retries", type=int, default=3,
                        help="forward attempts per request across "
                             "replicas (1 disables redispatch)")
    parser.add_argument("--trace-sample-rate", type=float, default=1.0 / 16)
    parser.add_argument("--log-requests", action="store_true",
                        help="one JSON access-log line per routed request")
    parser.add_argument("server_args", nargs="*",
                        help="after '--': extra args for spawned replicas "
                             "(e.g. -- --backend process --shards 1)")
    args = parser.parse_args(argv)

    if bool(args.replica) == bool(args.replica_of):
        parser.error("give either --replica URLs or --replica-of REGISTRY")

    processes = []
    if args.replica_of:
        processes, urls = spawn_replicas(
            args.replica_of, args.n_replicas, args.base_port,
            host=args.host, extra_args=args.server_args,
        )
    else:
        urls = args.replica

    from repro.serve.telemetry import StructuredLogger

    policy = RouterPolicy(
        health_interval_s=args.health_interval,
        eject_after=args.eject_after,
        readmit_after=args.readmit_after,
        max_retries=args.max_retries,
    )
    request_log = StructuredLogger() if args.log_requests else None
    router = Router(
        urls, policy=policy,
        tracer=Tracer(TracePolicy(sample_rate=args.trace_sample_rate)),
        request_log=request_log,
    )
    server, _ = serve_router(router, host=args.host, port=args.port)
    stop = threading.Event()
    triggered: "list[int]" = []

    def _stop(signum, frame):
        triggered.append(signum)
        stop.set()

    for signum in (signal_module.SIGINT, signal_module.SIGTERM):
        signal_module.signal(signum, _stop)
    print(f"routing {len(urls)} replica(s) at {server.url}  "
          f"(eject_after={policy.eject_after})")
    for url in urls:
        print(f"  replica: {url}")
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    server.shutdown()
    router.close()
    # spawned replicas drain on SIGTERM (their shutdown handlers)
    for proc in processes:
        proc.terminate()
    for proc in processes:
        try:
            proc.wait(timeout=30.0)
        except Exception:
            proc.kill()
    snap = router.topology()
    print("fleet at exit: " + json.dumps(
        {r["url"]: {"routed": r["routed"], "ejections": r["ejections"]}
         for r in snap["replicas"]}, sort_keys=True))


if __name__ == "__main__":
    main()
