"""``SconnaClient`` - a dependency-free keep-alive client for the HTTP API.

One client wraps one persistent :class:`~repro.serve.http11.Connection`
(HTTP/1.1 keep-alive: many requests, one TCP handshake; each request
leaves as one write of head and body) and speaks the binary wire
protocol by default:

* ``wire="frame"`` (default) - requests and responses as
  ``application/x-sconna-frame`` bodies (:mod:`repro.serve.wire`):
  parameters in frame metadata, the image tensor as raw bytes;
* ``wire="npy"``   - the image as an ``application/x-npy`` body with
  parameters in the query string (responses still arrive as frames);
* ``wire="json"``  - the classic JSON document.

Logits are bit-identical across all three wires (locked by tests and
the CI equivalence step).

When the server traced a request, its trace id arrives in the
``X-Sconna-Trace-Id`` response header and is surfaced as
``ClientPrediction.trace_id`` (and ``client.last_trace_id``); fetch the
full span tree with :meth:`SconnaClient.trace`.

Admission-control rejections (``429``) raise :class:`AdmissionRejected`
carrying the server's ``Retry-After`` hint; pass ``retry_429 > 0`` to
have the client sleep that hint and retry transparently.  Every call
is one :meth:`~repro.serve.http11.Connection.exchange`: a keep-alive
socket the server closed while it sat idle (reap, restart) is replaced
once, and a timeout is never retried.  ``opened`` counts how many TCP
connections the client ever made, which is 1 for a healthy session of
any length.

Usage::

    with SconnaClient(server.url) as client:
        result = client.predict(image, model="snet", seed=0, top_k=3)
        print(result.top_class, result.latency_ms)
        for part in client.predict_stream(stack, model="snet"):
            print(part.index, part.logits)
"""

from __future__ import annotations

import json
import logging
import time
import urllib.parse
from dataclasses import dataclass

import numpy as np

from repro.serve import wire
from repro.serve.http11 import Connection
from repro.serve.wire import (
    CONTENT_TYPE_FRAME,
    CONTENT_TYPE_JSON,
    CONTENT_TYPE_NPY,
    REPLICA_HEADER,
    TRACE_ID_HEADER,
)

logger = logging.getLogger("repro.serve.client")


class ClientError(RuntimeError):
    """An HTTP-level failure; carries the response status and body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class AdmissionRejected(ClientError):
    """The server shed this request (429); retry after ``retry_after_s``.

    ``trace_id`` carries the server's trace id for the shed request
    (when the server traced it) so a 429 can be correlated with the
    server's ``/v1/trace`` view of the same decision.
    """

    def __init__(
        self, message: str, retry_after_s: float,
        trace_id: "str | None" = None,
    ) -> None:
        super().__init__(429, message)
        self.retry_after_s = retry_after_s
        self.trace_id = trace_id


class ServiceUnavailable(ClientError):
    """No backend could take this request right now (503).

    A router returns this when every replica is ejected or draining;
    ``retry_after_s`` carries its hint for when capacity may return.
    Like a 429, the request was never executed, so retrying is safe -
    ``retry_429 > 0`` covers both.
    """

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(503, message)
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class ClientPrediction:
    """One prediction as seen by the client (mirrors ``Prediction``)."""

    request_id: int
    model: str
    logits: np.ndarray
    top_k: "list[list[tuple[int, float]]]"
    batch_images: int
    latency_ms: float
    cost: "dict | None" = None
    index: "int | None" = None     #: position within a streamed response
    total: "int | None" = None     #: streamed-response frame count
    trace_id: "str | None" = None  #: server-side trace id (if traced)
    replica: "str | None" = None   #: replica id that answered (if known)

    @property
    def top_class(self) -> int:
        return self.top_k[0][0][0]


def _result_from(
    meta: dict, logits: np.ndarray, trace_id: "str | None" = None,
    replica: "str | None" = None,
) -> ClientPrediction:
    return ClientPrediction(
        request_id=int(meta.get("request_id", 0)),
        model=str(meta.get("model", "")),
        logits=logits,
        top_k=[
            [(int(e["class"]), float(e["logit"])) for e in per_image]
            for per_image in meta.get("top_k", [])
        ],
        batch_images=int(meta.get("batch_images", logits.shape[0])),
        latency_ms=float(meta.get("latency_ms", 0.0)),
        cost=meta.get("cost"),
        index=meta.get("index"),
        total=meta.get("total"),
        trace_id=trace_id,
        replica=replica,
    )


class SconnaClient:
    """Keep-alive HTTP client for one serving endpoint."""

    def __init__(
        self,
        url: str,
        wire_format: str = "frame",
        timeout: float = 60.0,
        retry_429: int = 0,
    ) -> None:
        if wire_format not in ("frame", "npy", "json"):
            raise ValueError(f"unknown wire format {wire_format!r}")
        self.wire_format = wire_format
        self.retry_429 = retry_429
        self.last_trace_id: "str | None" = None  #: from the latest response
        self.last_replica: "str | None" = None   #: from the latest response
        self._conn = Connection.to(url, timeout)

    # -- connection plumbing ---------------------------------------------
    @property
    def opened(self) -> int:
        """TCP connections made (1 == keep-alive held)."""
        return self._conn.opened

    def _connection(self) -> Connection:
        return self._conn

    def close(self) -> None:
        """Drop the keep-alive socket (idempotent); the next call opens
        a new one."""
        self._conn.close()

    def __enter__(self) -> "SconnaClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _raise_for_status(self, resp, body: bytes) -> None:
        try:
            message = json.loads(body)["error"]
        except Exception:
            message = body[:200].decode(errors="replace")
        if resp.status == 429:
            raise AdmissionRejected(
                message,
                retry_after_s=float(resp.headers.get("Retry-After", 0.05)),
                trace_id=resp.headers.get(TRACE_ID_HEADER),
            )
        retry_after = resp.headers.get("Retry-After")
        if resp.status == 503 and retry_after:
            raise ServiceUnavailable(message, retry_after_s=float(retry_after))
        raise ClientError(resp.status, message)

    # -- GET endpoints ---------------------------------------------------
    def _get_json(self, path: str) -> dict:
        resp = self._conn.exchange("GET", path)
        body = resp.read()
        if resp.status != 200:
            self._raise_for_status(resp, body)
        return json.loads(body)

    def health(self) -> dict:
        """The server's ``/healthz`` document."""
        return self._get_json("/healthz")

    def models(self) -> "list[str]":
        """Model names the server currently serves."""
        return self._get_json("/v1/models")["models"]

    def metrics(self) -> dict:
        """The server's ``/v1/metrics`` JSON snapshot."""
        return self._get_json("/v1/metrics")

    def traces(self, limit: "int | None" = None) -> "list[dict]":
        """Summaries of the server's stored traces, newest first."""
        path = "/v1/trace" + ("" if limit is None else f"?limit={int(limit)}")
        return self._get_json(path)["traces"]

    def trace(self, trace_id: str = "latest") -> dict:
        """One stored trace in full (``'latest'`` for the newest)."""
        return self._get_json(f"/v1/trace/{trace_id}")

    # -- watchtower endpoints (when pointed at a watchtower) -------------
    def alerts(self) -> dict:
        """A watchtower's ``/v1/watch/alerts`` document: active and
        recently resolved alerts plus the remediation history."""
        return self._get_json("/v1/watch/alerts")

    def watch_series(
        self,
        name: "str | None" = None,
        labels: "dict | None" = None,
        derive: "str | None" = None,
    ) -> dict:
        """A watchtower's ``/v1/watch/series`` document.

        Without ``name``: the series directory.  With ``name``: every
        matching series' ``(t, value)`` points, optionally filtered by
        ``labels`` and derived (``derive="rate"`` for reset-aware
        counter rates).
        """
        params: "dict[str, str]" = {}
        if name:
            params["name"] = name
        if derive:
            params["derive"] = derive
        params.update(labels or {})
        query = urllib.parse.urlencode(params)
        return self._get_json("/v1/watch/series" + (f"?{query}" if query else ""))

    # -- predict ---------------------------------------------------------
    def predict(
        self,
        image: np.ndarray,
        model: "str | None" = None,
        seed: "int | None" = None,
        ideal: bool = False,
        top_k: int = 1,
        cost: bool = False,
        wire_format: "str | None" = None,
    ) -> ClientPrediction:
        """Run one request on ``wire_format`` (default: the client's)."""
        fields = {
            "model": model, "seed": seed, "ideal": ideal,
            "top_k": top_k, "cost": cost,
        }
        retries = self.retry_429
        while True:
            try:
                return self._predict_once(image, fields, wire_format)
            except (AdmissionRejected, ServiceUnavailable) as exc:
                if retries <= 0:
                    raise
                retries -= 1
                logger.info(
                    "%d backoff: retrying in %.3fs (%d left)",
                    exc.status, exc.retry_after_s, retries,
                )
                time.sleep(exc.retry_after_s)

    def _predict_once(
        self, image, fields: dict, wire_format: "str | None"
    ) -> ClientPrediction:
        path, body, headers = self._encode_request(
            image, fields, wire_format or self.wire_format
        )
        resp = self._conn.exchange("POST", path, body, headers)
        payload = resp.read()
        trace_id = resp.headers.get(TRACE_ID_HEADER)
        replica = resp.headers.get(REPLICA_HEADER)
        self.last_trace_id = trace_id
        self.last_replica = replica
        if resp.status != 200:
            self._raise_for_status(resp, payload)
        ctype = (resp.headers.get("Content-Type") or "").partition(";")[0]
        if ctype == CONTENT_TYPE_FRAME:
            meta, tensors = wire.decode_frame(payload)
            if "error" in meta:
                raise ClientError(resp.status, meta["error"])
            return _result_from(meta, tensors["logits"], trace_id, replica)
        if ctype == CONTENT_TYPE_NPY:
            logits = wire.decode_npy(payload)
            meta = {
                "request_id": resp.headers.get("X-Sconna-Request-Id", 0),
                "model": resp.headers.get("X-Sconna-Model", ""),
                "batch_images": resp.headers.get(
                    "X-Sconna-Batch-Images", logits.shape[0]
                ),
                "latency_ms": resp.headers.get("X-Sconna-Latency-Ms", 0.0),
            }
            return _result_from(meta, logits, trace_id, replica)
        doc = json.loads(payload)
        return _result_from(
            doc, np.asarray(doc["logits"], dtype=np.float64), trace_id, replica
        )

    def predict_stream(
        self,
        images: np.ndarray,
        model: "str | None" = None,
        seed: "int | None" = None,
        ideal: bool = False,
        top_k: int = 1,
        cost: bool = False,
    ):
        """Stream an ``(n, C, H, W)`` stack; yields one
        :class:`ClientPrediction` per image, in order, as frames arrive.

        A frame carrying a server-side ``error`` raises
        :class:`ClientError` (or :class:`AdmissionRejected`) at its
        position; frames already yielded stand.
        """
        fields = {
            "model": model, "seed": seed, "ideal": ideal,
            "top_k": top_k, "cost": cost, "stream": True,
        }
        # streaming is frame-only; a JSON client sends a frame
        chosen = "frame" if self.wire_format == "json" else self.wire_format
        path, body, headers = self._encode_request(images, fields, chosen)
        headers["Accept"] = CONTENT_TYPE_FRAME
        resp = self._conn.exchange("POST", path, body, headers)
        if resp.status != 200:
            self._raise_for_status(resp, resp.read())
        drained = False
        try:
            while True:
                item = wire.read_frame(resp.read)
                if item is None:
                    drained = True
                    return
                meta, tensors = item
                if "error" in meta:
                    if "retry_after_s" in meta:
                        raise AdmissionRejected(
                            meta["error"], retry_after_s=meta["retry_after_s"]
                        )
                    raise ClientError(200, meta["error"])
                yield _result_from(meta, tensors["logits"])
        finally:
            if not drained:
                # abandoned mid-stream: unread frames would desync the
                # next request on this connection, so drop it
                self.close()

    # -- request encoding ------------------------------------------------
    @staticmethod
    def _encode_request(
        image, fields: dict, wire_format: str
    ) -> "tuple[str, bytes, dict[str, str]]":
        """Build (path, body, headers) for one predict call."""
        fields = {k: v for k, v in fields.items()
                  if v is not None and v is not False}
        if wire_format == "frame":
            body = wire.encode_frame(fields, {"image": np.asarray(image)})
            headers = {
                "Content-Type": CONTENT_TYPE_FRAME,
                "Accept": CONTENT_TYPE_FRAME,
            }
            return "/v1/predict", body, headers
        if wire_format == "npy":
            query = urllib.parse.urlencode(
                {k: (int(v) if isinstance(v, bool) else v)
                 for k, v in fields.items()}
            )
            path = "/v1/predict" + (f"?{query}" if query else "")
            headers = {
                "Content-Type": CONTENT_TYPE_NPY,
                "Accept": CONTENT_TYPE_FRAME,
            }
            return path, wire.encode_npy(np.asarray(image)), headers
        if wire_format == "json":
            payload = dict(fields, image=np.asarray(image).tolist())
            headers = {
                "Content-Type": CONTENT_TYPE_JSON,
                "Accept": CONTENT_TYPE_JSON,
            }
            return "/v1/predict", json.dumps(payload).encode(), headers
        raise ValueError(f"unknown wire format {wire_format!r}")
