"""HTTP endpoint for :class:`~repro.serve.service.SconnaService`.

No web framework: a thread per connection is enough here because the
handler thread only *enqueues* into the micro-batching scheduler and
waits on a future; coalescing and compute happen in the service's own
workers (threads, or shard processes under the process backend - the
HTTP layer is identical either way).  Framing is the shared codec's
(:mod:`repro.serve.http11`): **HTTP/1.1 with keep-alive**, every
response one write of head and body with ``Content-Length`` (or chunked
transfer-encoding on the streaming path), request bodies read straight
into a fresh buffer the wire decoders view in place.  Error responses
sent *before* the request body was fully read add ``Connection:
close`` (the unread body would otherwise be parsed as the next
request).

``POST /v1/predict`` negotiates the request body over ``Content-Type``
and the response over ``Accept`` (see :mod:`repro.serve.wire`):

======================================  =====================================
Content-Type (request)                  body
======================================  =====================================
``application/json`` (default)          ``{"model", "image": nested lists,
                                        "seed", "top_k", "ideal", "cost",
                                        "stream"}``
``application/x-npy``                   the image tensor as an NPY buffer;
                                        parameters ride the query string
                                        (``?model=&seed=&top_k=&ideal=&cost=
                                        &stream=``)
``application/x-sconna-frame``          one frame: the parameters as frame
                                        metadata plus an ``image`` tensor
======================================  =====================================

======================================  =====================================
Accept (response)                       body
======================================  =====================================
``application/json``                    the classic JSON document (float64
                                        logits round-trip exactly)
``application/x-sconna-frame``          one frame: result metadata plus a
                                        ``logits`` tensor - bit-identical
                                        to the JSON logits
``application/x-npy``                   the logits tensor alone (metadata in
                                        ``X-Sconna-*`` headers)
``*/*`` / absent                        mirrors the request content type
======================================  =====================================

**Streaming.**  A multi-image ``(n, C, H, W)`` request with
``stream`` set and a frame ``Accept`` returns ``Transfer-Encoding:
chunked`` with one self-delimiting frame per image, so early images'
logits leave the server while later ones still compute.  Unseeded and
``ideal`` stacks are split into per-image requests and pipelined
through the scheduler (frame ``i`` flushes as image ``i`` completes);
a *seeded* stack stays one indivisible request - its noise stream
spans the whole stack, that is the reproducibility contract - so its
frames all flush after it completes, still one frame per image.

**Admission control.**  When the service carries an
:class:`~repro.serve.admission.AdmissionPolicy`, a shed request is
answered with ``429 Too Many Requests`` plus a ``Retry-After`` header
(decimal seconds); shed counts appear in ``/v1/metrics`` under
``shed`` / ``admission``.

**Telemetry.**  Every predict request may carry a sampled trace (the
service's :class:`~repro.serve.telemetry.Tracer` decides): the handler
opens the trace, records ``http.parse`` / ``http.encode`` spans around
the wire codecs, threads it through the service so queue / backend /
shard / engine spans land in the same tree, and answers with an
``X-Sconna-Trace-Id`` header (on every status, 429s included) so
clients can join their failures to server traces.  Completed traces
are queryable at ``/v1/trace``; ``/v1/metrics?format=prometheus``
renders the text exposition; a ``request_log``
(:class:`~repro.serve.telemetry.StructuredLogger`) on the service
emits one JSON line per request.

Routes::

    GET  /healthz        -> {"status": "ok"}
    GET  /v1/models      -> {"models": [...]}
    GET  /v1/metrics     -> the service's ServeMetrics snapshot (plus
                            backend topology, admission stats and
                            simulation-cache stats); ?format=prometheus
                            for the text exposition
    GET  /v1/trace       -> newest-first stored trace summaries (?limit=N)
    GET  /v1/trace/<id>  -> one span tree as JSON ('latest' resolves the
                            most recent; ?format=chrome exports Chrome
                            trace_event JSON for about://tracing)
    POST /v1/predict     -> run one request

Also a standalone server CLI with execution-backend selection::

    python -m repro.serve --registry MODELS_DIR \
        --backend process --shards 4 --max-inflight 256 --port 8000

serves every model in the registry (or ``--model`` picks some) on one
worker thread per usable core, or on ``--shards`` worker processes,
each of which loads every model.  It installs SIGINT/SIGTERM handlers
that drain in-flight requests and reap shard processes, blocks until a
signal arrives, and prints the aggregated backend topology (shards,
ring and pipe batch counts) on exit.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse

import numpy as np

from repro.serve import http11, wire
from repro.serve.admission import AdmissionError
from repro.serve.telemetry import PROMETHEUS_CONTENT_TYPE, render_exposition
from repro.serve.wire import (
    CONTENT_TYPE_FRAME,
    CONTENT_TYPE_JSON,
    CONTENT_TYPE_NPY,
    PARENT_TRACE_HEADER,
    REPLICA_HEADER,
    TRACE_ID_HEADER,
    WireError,
)

#: request body cap (a (n,3,224,224) float image batch fits comfortably)
MAX_BODY_BYTES = 256 * 1024 * 1024
#: longest a predict request waits for its result (each frame of a
#: split stream waits this long for its own)
REQUEST_TIMEOUT_S = 60.0

_TRUE_WORDS = frozenset(("1", "true", "yes", "on"))
_FALSE_WORDS = frozenset(("0", "false", "no", "off", ""))


def _parse_flag(value, name: str) -> bool:
    """A tolerant boolean: JSON booleans, ints, and query-string words."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in _TRUE_WORDS:
            return True
        if lowered in _FALSE_WORDS:
            return False
    raise ValueError(f"bad boolean for {name!r}: {value!r}")


def parse_predict_fields(fields: dict) -> dict:
    """Normalize request parameters from any body/query representation.

    Returns ``{model, seed, top_k, ideal, cost, stream}`` with the same
    defaults the JSON body historically had; raises :class:`ValueError`
    on malformed values (mapped to 400 by the handler).
    """
    model = fields.get("model")
    if model is not None:
        model = str(model)
    seed = fields.get("seed")
    if seed is not None:
        seed = int(seed)
    return {
        "model": model,
        "seed": seed,
        "top_k": int(fields.get("top_k", 1)),
        "ideal": _parse_flag(fields.get("ideal", False), "ideal"),
        "cost": _parse_flag(fields.get("cost", False), "cost"),
        "stream": _parse_flag(fields.get("stream", False), "stream"),
    }


def negotiate_response_type(accept: "str | None", request_ctype: str) -> str:
    """The response media type for an ``Accept`` header.

    Explicit binary types win over JSON; an absent header or ``*/*``
    mirrors the request body's type (binary in, binary out), and
    anything unrecognized falls back to JSON.
    """
    accept = (accept or "").lower()
    if CONTENT_TYPE_FRAME in accept:
        return CONTENT_TYPE_FRAME
    if CONTENT_TYPE_NPY in accept:
        return CONTENT_TYPE_NPY
    if CONTENT_TYPE_JSON in accept:
        return CONTENT_TYPE_JSON
    if not accept or "*/*" in accept:
        if request_ctype == CONTENT_TYPE_NPY:
            return CONTENT_TYPE_NPY
        if request_ctype == CONTENT_TYPE_FRAME:
            return CONTENT_TYPE_FRAME
    return CONTENT_TYPE_JSON


def _prediction_meta(prediction) -> dict:
    """The JSON-able result fields shared by every response encoding."""
    return {
        "request_id": prediction.request_id,
        "model": prediction.model,
        "top_k": [
            [{"class": c, "logit": v} for c, v in per_image]
            for per_image in prediction.top_k
        ],
        "batch_images": prediction.batch_images,
        "latency_ms": prediction.latency_s * 1e3,
        "cost": None if prediction.cost is None else prediction.cost.as_dict(),
    }


class _ServeHandler(http11.RequestHandler):
    server: "ServeHTTPServer"

    #: the in-flight request's telemetry trace (set per predict request,
    #: cleared after; _send_body reads it so *every* response to a
    #: traced request - 429s and errors included - carries the id)
    _trace = None
    #: status of the last response written (for the access log)
    _last_status = 0

    # -- plumbing --------------------------------------------------------
    def _common_headers(self, content_type: str) -> "list[tuple[str, str]]":
        headers = [("Content-Type", content_type)]
        if self._trace is not None:
            headers.append((TRACE_ID_HEADER, self._trace.trace_id))
        if self.server.replica_id:
            headers.append((REPLICA_HEADER, self.server.replica_id))
        return headers

    def _send_body(
        self,
        body: bytes,
        content_type: str,
        status: int = 200,
        close: bool = False,
        extra_headers: "list[tuple[str, str]] | None" = None,
    ) -> None:
        self._last_status = status
        headers = self._common_headers(content_type)
        headers.extend(extra_headers or ())
        self.send_message(status, headers, body, close=close)

    def _send_json(
        self, payload: dict, status: int = 200, close: bool = False,
        extra_headers: "list[tuple[str, str]] | None" = None,
    ) -> None:
        self._send_body(
            json.dumps(payload).encode(), CONTENT_TYPE_JSON, status=status,
            close=close, extra_headers=extra_headers,
        )

    def _send_error(
        self, status: int, message: str, close: bool = False,
        retry_after_s: "float | None" = None,
    ) -> None:
        extra = None
        if retry_after_s is not None:
            # decimal seconds: our own client parses float(header), and
            # integer-only parsers still get a usable hint
            extra = [("Retry-After", f"{retry_after_s:.3f}")]
        self._send_json(
            {"error": message}, status=status, close=close,
            extra_headers=extra,
        )

    def _send_exception(self, exc: BaseException) -> None:
        """The one exception -> HTTP status mapping for predict paths."""
        if isinstance(exc, AdmissionError):
            self._send_error(429, str(exc), retry_after_s=exc.retry_after_s)
        elif isinstance(exc, KeyError):
            self._send_error(404, str(exc))
        elif isinstance(exc, (ValueError, TypeError)):
            self._send_error(400, str(exc))
        else:  # inference failure -> 500 with context
            self._send_error(500, f"{type(exc).__name__}: {exc}")

    # -- routes ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        self._trace = None
        service = self.server.service
        path, _, query = self.path.partition("?")
        params = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(query).items()
        }
        if path == "/healthz":
            health = {"status": "ok"}
            if self.server.replica_id:
                health["replica"] = self.server.replica_id
            self._send_json(health)
        elif path == "/v1/models":
            self._send_json({"models": service.models()})
        elif path == "/v1/metrics":
            if params.get("format") == "prometheus":
                self._send_body(
                    render_exposition(service.metrics_snapshot()).encode(),
                    PROMETHEUS_CONTENT_TYPE,
                )
            elif params.get("format") == "state":
                # the raw mergeable counter export a router fleet-
                # aggregates (same shape shards ship to their parent)
                state = getattr(service, "metrics_state", None)
                if state is None:
                    self._send_error(
                        400, "this endpoint has no raw metrics state"
                    )
                else:
                    self._send_json(state())
            else:
                self._send_json(service.metrics_snapshot())
        elif path == "/v1/trace" or path.startswith("/v1/trace/"):
            self._get_trace(service, path, params)
        else:
            self._send_error(404, f"unknown path {self.path!r}")

    def _get_trace(self, service, path: str, params: dict) -> None:
        """``/v1/trace`` list + ``/v1/trace/<id>`` detail + chrome export."""
        tracer = service.tracer
        trace_id = (
            path[len("/v1/trace/"):] if path.startswith("/v1/trace/") else ""
        )
        if not trace_id:
            try:
                limit = int(params.get("limit", 50))
            except ValueError:
                limit = -1
            if limit < 0:  # 0 lists every stored trace
                self._send_error(400, f"bad limit {params['limit']!r}")
                return
            self._send_json({
                "traces": tracer.store.summaries(limit=limit),
                "stats": tracer.stats(),
            })
            return
        trace = (
            tracer.store.latest() if trace_id == "latest"
            else tracer.store.get(trace_id)
        )
        if trace is None:
            self._send_error(404, f"no stored trace {trace_id!r}")
            return
        if params.get("format") == "chrome":
            # the Chrome trace_event JSON object form: load directly in
            # about://tracing or ui.perfetto.dev
            self._send_json({
                "traceEvents": trace.chrome_events(),
                "displayTimeUnit": "ms",
            })
        else:
            self._send_json(trace.as_dict())

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        path, _, query = self.path.partition("?")
        if path != "/v1/predict":
            self._trace = None
            self._send_error(404, f"unknown path {self.path!r}")
            return
        service = self.server.service
        # adopt an upstream router's trace id when one rides along, so
        # router hop and replica span tree share one id
        trace = service.tracer.start(
            "http.request", trace_id=self.headers.get(PARENT_TRACE_HEADER),
        )
        self._trace = trace
        self._last_status = 0
        started = time.monotonic()
        model = resp_type = None
        try:
            model, resp_type = self._predict_route(service, query, trace)
        finally:
            status = self._last_status
            service.tracer.finish(trace, status=status, wire=resp_type)
            log = service.request_log
            if log is not None:
                log.log_request(
                    trace=trace,
                    model=model,
                    lane=model,
                    wire=resp_type,
                    status=status,
                    latency_ms=(time.monotonic() - started) * 1e3,
                )
            self._trace = None

    def _predict_route(
        self, service, query: str, trace
    ) -> "tuple[str | None, str | None]":
        """The POST /v1/predict body; returns ``(model, response type)``
        for the access log (``None`` where the request died first)."""
        t0 = time.monotonic() if trace is not None else 0.0
        body = self._read_predict_body()
        if body is None:
            return None, None
        ctype = (self.headers.get("Content-Type") or CONTENT_TYPE_JSON)
        ctype = ctype.partition(";")[0].strip().lower()
        try:
            fields, images = self._parse_request(ctype, body, query)
        except NotImplementedError:
            self._send_error(
                415,
                f"unsupported Content-Type {ctype!r} (supported: "
                f"{CONTENT_TYPE_JSON}, {CONTENT_TYPE_NPY}, "
                f"{CONTENT_TYPE_FRAME})",
            )
            return None, ctype
        except (WireError, ValueError, TypeError, KeyError,
                json.JSONDecodeError) as exc:
            self._send_error(400, f"bad request body: {exc}")
            return None, ctype
        if trace is not None:
            trace.add_span("http.parse", t0, time.monotonic(),
                           tags={"wire": ctype, "nbytes": len(body)})
        model = fields["model"]
        if model is None:
            names = service.models()
            if len(names) != 1:
                self._send_error(
                    400, f"'model' is required (registered: {names})"
                )
                return None, ctype
            model = names[0]
        resp_type = negotiate_response_type(self.headers.get("Accept"), ctype)
        if trace is not None:
            trace.set_tags(model=model, wire=ctype, accept=resp_type)
        if fields["stream"]:
            if resp_type != CONTENT_TYPE_FRAME:
                self._send_error(
                    400, "streaming requires Accept: " + CONTENT_TYPE_FRAME
                )
                return model, resp_type
            self._stream_predict(service, model, images, fields, trace)
            return model, resp_type
        try:
            prediction = service.predict(
                model,
                images,
                seed=fields["seed"],
                ideal=fields["ideal"],
                top_k=fields["top_k"],
                with_cost=fields["cost"],
                timeout=REQUEST_TIMEOUT_S,
                trace=trace,
            )
        except Exception as exc:
            self._send_exception(exc)
            return model, resp_type
        t0 = time.monotonic() if trace is not None else 0.0
        meta = _prediction_meta(prediction)
        if resp_type == CONTENT_TYPE_FRAME:
            self._send_body(
                wire.encode_frame(meta, {"logits": prediction.logits}),
                CONTENT_TYPE_FRAME,
            )
        elif resp_type == CONTENT_TYPE_NPY:
            self._send_body(
                wire.encode_npy(prediction.logits),
                CONTENT_TYPE_NPY,
                extra_headers=[
                    ("X-Sconna-Request-Id", str(meta["request_id"])),
                    ("X-Sconna-Model", meta["model"]),
                    ("X-Sconna-Batch-Images", str(meta["batch_images"])),
                    ("X-Sconna-Latency-Ms", f"{meta['latency_ms']:.3f}"),
                ],
            )
        else:
            meta["logits"] = prediction.logits.tolist()
            self._send_json(meta)
        if trace is not None:
            trace.add_span("http.encode", t0, time.monotonic(),
                           tags={"wire": resp_type})
        return model, resp_type

    # -- request parsing -------------------------------------------------
    def _read_predict_body(self) -> "memoryview | None":
        """The request's Content-Length body (a read-only view), or None
        once the failure is answered - or the client hung up mid-body."""
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._send_error(411, "Content-Length is required", close=True)
            return None
        if not length:
            self._send_error(400, "missing request body")
            return None
        if length > MAX_BODY_BYTES:
            self._send_error(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap",
            )
            return None
        return self.read_body(length)

    def _parse_request(
        self, ctype: str, body, query: str
    ) -> "tuple[dict, object]":
        """Decode one request body (a read-only view) into (normalized
        fields, images); binary tensors stay views of the body."""
        if ctype == CONTENT_TYPE_JSON:
            payload = json.loads(bytes(body))
            if not isinstance(payload, dict):
                raise ValueError("JSON body must be an object")
            if "image" not in payload:
                raise ValueError("'image' is required")
            return parse_predict_fields(payload), payload["image"]
        if ctype == CONTENT_TYPE_NPY:
            images = wire.decode_npy(body, max_bytes=MAX_BODY_BYTES)
            params = {
                key: values[-1]
                for key, values in urllib.parse.parse_qs(query).items()
            }
            return parse_predict_fields(params), images
        if ctype == CONTENT_TYPE_FRAME:
            meta, tensors = wire.decode_frame(body, max_bytes=MAX_BODY_BYTES)
            if "image" not in tensors:
                raise ValueError(
                    f"frame carries no 'image' tensor (got: "
                    f"{sorted(tensors)})"
                )
            return parse_predict_fields(meta), tensors["image"]
        raise NotImplementedError(ctype)

    # -- streaming -------------------------------------------------------
    def _stream_predict(
        self, service, model: str, images, fields: dict, trace=None
    ) -> None:
        """Chunked per-image frame stream for an ``(n, C, H, W)`` stack.

        Unseeded / ideal stacks are split into per-image requests and
        pipelined (early frames flush while later images compute);
        a seeded stack stays one request - its frames flush together
        after it completes (the noise stream spans the stack).  Errors
        after the 200 has been committed travel as frames carrying an
        ``error`` field at their index.
        """
        images = np.asarray(images)
        if images.ndim == 3:
            images = images[None]
        if images.ndim != 4:
            self._send_error(400, "image must be (C, H, W) or (n, C, H, W)")
            return
        n = int(images.shape[0])
        seeded = fields["seed"] is not None and not fields["ideal"]
        timeout = REQUEST_TIMEOUT_S
        kwargs = dict(
            ideal=fields["ideal"], top_k=fields["top_k"],
            with_cost=fields["cost"],
        )
        if seeded:
            # one indivisible request: submit + await *before* the 200,
            # so validation/admission failures map to clean statuses
            try:
                prediction = service.predict(
                    model, images, seed=fields["seed"],
                    timeout=timeout, trace=trace, **kwargs,
                )
            except Exception as exc:
                self._send_exception(exc)
                return
            frames = self._frames_of(prediction, n)
            self._write_stream(frames)
            return
        # split path: pipeline n single-image requests through the
        # scheduler; the first submission gates the 200 (so an unknown
        # model or a full service still answers with a status), later
        # submission failures become error frames at their index
        futures: "list" = []
        submit_errors: "dict[int, BaseException]" = {}
        for i in range(n):
            try:
                futures.append(
                    service.predict_async(model, images[i], seed=None, **kwargs)
                )
            except BaseException as exc:
                if i == 0:
                    self._send_exception(exc)
                    return
                futures.append(None)
                submit_errors[i] = exc

        def frame_iter():
            for i, future in enumerate(futures):
                if future is None:
                    yield self._error_frame(i, n, submit_errors[i])
                    continue
                try:
                    prediction = future.result(timeout)
                except BaseException as exc:
                    yield self._error_frame(i, n, exc)
                    continue
                meta = _prediction_meta(prediction)
                meta["index"], meta["total"] = i, n
                yield wire.encode_frame(meta, {"logits": prediction.logits})

        self._write_stream(frame_iter())

    @staticmethod
    def _frames_of(prediction, n: int):
        """Per-image frames of one completed multi-image prediction."""
        meta = _prediction_meta(prediction)
        cost, top_k = meta.pop("cost"), meta.pop("top_k")
        for i in range(n):
            frame_meta = dict(
                meta, index=i, total=n, top_k=[top_k[i]],
            )
            if i == n - 1 and cost is not None:
                frame_meta["cost"] = cost  # per-request cost rides the tail
            yield wire.encode_frame(
                frame_meta, {"logits": prediction.logits[i : i + 1]}
            )

    @staticmethod
    def _error_frame(index: int, total: int, exc: BaseException) -> bytes:
        meta = {
            "index": index,
            "total": total,
            "error": f"{type(exc).__name__}: {exc}",
        }
        if isinstance(exc, AdmissionError):
            meta["retry_after_s"] = exc.retry_after_s
        return wire.encode_frame(meta)

    def _write_stream(self, frames) -> None:
        """Send a committed 200 as chunked frames (one chunk per frame,
        each leaving as soon as it is encoded)."""
        self._last_status = 200
        try:
            self.start_chunked(200, self._common_headers(CONTENT_TYPE_FRAME))
            for frame in frames:
                self.send_chunk(frame)
            self.end_chunked()
        except OSError:
            self.close_connection = True  # client went away mid-stream


class ServeHTTPServer(http11.HTTPServer):
    """HTTP front-end bound to one service (``port=0`` picks a free port)."""

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        replica_id: "str | None" = None,
        handler_class: "type | None" = None,
    ) -> None:
        self.service = service
        #: fleet identity: when set, every response carries it in
        #: X-Sconna-Replica and /healthz reports it (a router learns
        #: replica names this way)
        self.replica_id = replica_id
        super().__init__((host, port), handler_class or _ServeHandler)


def serve_http(
    service,
    host: str = "127.0.0.1",
    port: int = 0,
    replica_id: "str | None" = None,
) -> "tuple[ServeHTTPServer, threading.Thread]":
    """Start a background HTTP server; returns (server, thread).

    Call ``server.shutdown()`` then ``service.close()`` to stop.
    """
    server = ServeHTTPServer(service, host=host, port=port,
                             replica_id=replica_id)
    thread = threading.Thread(
        target=server.serve_forever, name="sconna-httpd", daemon=True
    )
    thread.start()
    return server, thread


def main(argv: "list[str] | None" = None) -> None:
    """CLI entry point: serve registry models over HTTP until a signal."""
    import argparse

    from repro.serve.admission import AdmissionPolicy
    from repro.serve.batching import BatchingPolicy
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import SconnaService, install_shutdown_handlers

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve registered SCONNA models over HTTP "
                    "(JSON and binary wire bodies).",
    )
    parser.add_argument("--registry", required=True,
                        help="model registry directory (NPZ + JSON manifests)")
    parser.add_argument("--model", action="append", default=None,
                        help="registry model to serve (repeatable; "
                             "default: every registered model)")
    parser.add_argument("--mode", default="sconna",
                        choices=("float", "int8", "sconna"))
    parser.add_argument("--backend", default="thread",
                        choices=("thread", "process"),
                        help="execution backend (default: thread)")
    parser.add_argument("--shards", type=int, default=2,
                        help="worker processes for --backend process")
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument("--max-inflight", type=int, default=None,
                        help="admission control: requests in flight before "
                             "shedding with 429 (default: unbounded)")
    parser.add_argument("--max-queued-mb", type=float, default=None,
                        help="admission control: payload MiB in flight "
                             "before shedding with 429 (default: unbounded)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000)
    parser.add_argument("--replica-id", default=None,
                        help="fleet identity: sent on every response as "
                             "X-Sconna-Replica and reported by /healthz "
                             "(a fronting repro.serve.router learns it)")
    parser.add_argument("--trace-sample-rate", type=float, default=1.0 / 16,
                        help="fraction of requests that keep a full trace "
                             "(default: 1/16; 0 disables tracing)")
    parser.add_argument("--trace-slow-ms", type=float, default=None,
                        help="always keep traces slower than this many ms, "
                             "regardless of the sample rate")
    parser.add_argument("--trace-profile", action="store_true",
                        help="record per-layer engine timings on sampled "
                             "traces (quantize/im2col/matmul/remainder/...)")
    parser.add_argument("--trace-capacity", type=int, default=256,
                        help="completed traces kept for /v1/trace "
                             "(default: 256)")
    parser.add_argument("--log-requests", action="store_true",
                        help="emit one JSON line per request on stderr "
                             "(trace id, model, wire, status, latency)")
    args = parser.parse_args(argv)

    registry = ModelRegistry(args.registry)
    names = args.model or registry.names()
    if not names:
        parser.error(f"registry {args.registry!r} has no models")
    admission = None
    if args.max_inflight is not None or args.max_queued_mb is not None:
        admission = AdmissionPolicy(
            max_inflight=args.max_inflight,
            max_queued_bytes=(
                None if args.max_queued_mb is None
                else int(args.max_queued_mb * (1 << 20))
            ),
        )
    from repro.serve.telemetry import StructuredLogger, TracePolicy, Tracer

    tracer = Tracer(
        TracePolicy(
            sample_rate=args.trace_sample_rate,
            always_sample_slow_ms=args.trace_slow_ms,
            profile_engine=args.trace_profile,
        ),
        capacity=args.trace_capacity,
    )
    request_log = StructuredLogger() if args.log_requests else None
    service = SconnaService(
        policy=BatchingPolicy(max_batch_size=args.max_batch_size),
        mode=args.mode,
        backend=args.backend,
        n_shards=args.shards,
        admission=admission,
        tracer=tracer,
        request_log=request_log,
    )
    for name in names:
        service.add_from_registry(registry, name)
    server, _ = serve_http(
        service, host=args.host, port=args.port, replica_id=args.replica_id,
    )
    # chain=False: the signal must hand control *back* after the drain
    # so the topology report below still runs; the signal is re-raised
    # manually at the end to keep the usual exit status
    handlers = install_shutdown_handlers(service, servers=(server,), chain=False)
    backend_info = service.backend.info()
    if args.backend == "process":
        topology = f"shards={backend_info['shards']}"
    else:
        topology = f"workers={backend_info['workers']}"
    if request_log is not None:
        request_log.log("serve.start", url=server.url, models=names,
                        backend=backend_info["kind"], topology=topology,
                        trace_sample_rate=args.trace_sample_rate)
    else:
        print(f"serving {names} at {server.url}  "
              f"(backend={backend_info['kind']}, {topology})")
        print("POST /v1/predict (JSON | x-npy | x-sconna-frame) | "
              "GET /v1/models /v1/metrics /v1/trace /healthz  "
              "(SIGINT/SIGTERM drains and exits)")
    try:
        handlers.wait()
    except KeyboardInterrupt:
        pass  # SIGINT lands as KeyboardInterrupt too; teardown already ran
    # the service is drained: report the final aggregated topology so an
    # operator sees where every model ran and how batches travelled
    snap = service.metrics_snapshot()
    if request_log is not None:
        request_log.log("serve.stop", backend=snap["backend"],
                        uptime_s=snap.get("uptime_s"))
    else:
        print("topology at exit: "
              + json.dumps(snap["backend"], sort_keys=True), flush=True)
    if handlers.triggered is not None:
        # die by the signal that stopped us (handlers restored the
        # default action during teardown) - callers see the usual code;
        # a re-raised SIGINT surfaces as KeyboardInterrupt and keeps
        # the historical quiet exit
        import signal as signal_module

        try:
            signal_module.raise_signal(handlers.triggered)
        except KeyboardInterrupt:
            pass


if __name__ == "__main__":
    main()
