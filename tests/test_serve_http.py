"""HTTP wire paths: binary bodies, negotiation, streaming, admission.

The contract under test: whatever encoding a request or response rides,
the logits are bit-identical to the JSON path - the wire must never
change a number - and the HTTP layer behaves like a keep-alive HTTP/1.1
endpoint (one connection, many requests; ``Connection: close`` only on
errors that abort an unread body).
"""

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.cnn.datasets import N_CLASSES, generate_dataset
from repro.cnn.inference import QuantizedModel
from repro.cnn.micro import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.serve import (
    AdmissionError,
    AdmissionPolicy,
    AdmissionRejected,
    BatchingPolicy,
    ClientError,
    Router,
    RouterPolicy,
    SconnaClient,
    SconnaService,
    serve_http,
    serve_router,
)
from repro.serve.http11 import MAX_LINE, Connection, _Refused, _Stream
from repro.serve.httpd import negotiate_response_type, parse_predict_fields
from repro.serve.wire import CONTENT_TYPE_FRAME, CONTENT_TYPE_JSON, CONTENT_TYPE_NPY
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def setup():
    rng = make_rng(0)
    model = Sequential(
        Conv2d(3, 6, 3, padding=1, rng=rng), ReLU(), MaxPool2d(4),
        Flatten(), Linear(6 * 6 * 6, N_CLASSES, rng=rng),
    )
    ds = generate_dataset(6, seed=3)
    qm = QuantizedModel.from_trained(model, ds.images[:24])
    return qm, ds


@pytest.fixture(scope="module")
def served(setup):
    qm, _ = setup
    svc = SconnaService(
        policy=BatchingPolicy(max_batch_size=8, max_wait_ms=2.0)
    )
    svc.add_model("tiny", qm)
    server, _ = serve_http(svc)
    yield svc, server
    server.shutdown()
    svc.close()


class TestBinaryEquivalence:
    def test_seeded_logits_bit_identical_across_wires(self, setup, served):
        """The acceptance gate: one seeded request, three encodings,
        one answer - to the last bit."""
        _, ds = setup
        _, server = served
        with SconnaClient(server.url) as client:
            kwargs = dict(model="tiny", seed=7, top_k=3)
            ref = client.predict(ds.images[2], wire_format="json", **kwargs)
            for wire_name in ("npy", "frame"):
                got = client.predict(ds.images[2], wire_format=wire_name,
                                     **kwargs)
                assert np.array_equal(got.logits, ref.logits), wire_name
                assert got.top_k == ref.top_k

    def test_frame_response_matches_direct_forward(self, setup, served):
        from repro.stochastic.error_models import SconnaErrorModel

        qm, ds = setup
        _, server = served
        direct = qm.forward(
            ds.images[1][None], mode="sconna",
            error_model=SconnaErrorModel(adc_mape=0.0),
        )
        with SconnaClient(server.url) as client:
            got = client.predict(ds.images[1], model="tiny", ideal=True)
        assert np.array_equal(got.logits, direct)

    def test_cost_annotation_rides_the_frame(self, setup, served):
        _, ds = setup
        _, server = served
        with SconnaClient(server.url) as client:
            got = client.predict(ds.images[0], model="tiny", cost=True)
        assert got.cost is not None
        assert got.cost["accelerator"] == "SCONNA"

    def test_npy_accept_returns_raw_logits(self, setup, served):
        _, ds = setup
        _, server = served
        with SconnaClient(server.url) as client:
            ref = client.predict(ds.images[3], model="tiny", seed=5,
                                 wire_format="json")
        from repro.serve import encode_npy, decode_npy

        conn = http.client.HTTPConnection(server.server_address[0],
                                          server.server_address[1])
        try:
            conn.request(
                "POST", "/v1/predict?model=tiny&seed=5",
                body=encode_npy(np.asarray(ds.images[3], dtype=np.float64)),
                headers={"Content-Type": CONTENT_TYPE_NPY,
                         "Accept": CONTENT_TYPE_NPY},
            )
            resp = conn.getresponse()
            body = resp.read()
            assert resp.status == 200
            assert resp.headers["Content-Type"] == CONTENT_TYPE_NPY
            assert np.array_equal(decode_npy(body), ref.logits)
            assert resp.headers["X-Sconna-Model"] == "tiny"
        finally:
            conn.close()


class TestStreaming:
    def test_streamed_reassembly_bit_identical_to_json(self, setup, served):
        """Chunked per-image frames, reassembled, equal the JSON logits
        for the same stack - split (ideal) and indivisible (seeded)."""
        _, ds = setup
        _, server = served
        stack = ds.images[:4]
        with SconnaClient(server.url) as client:
            for kwargs in (dict(ideal=True, top_k=2), dict(seed=11)):
                ref = client.predict(stack, model="tiny",
                                     wire_format="json", **kwargs)
                parts = list(client.predict_stream(stack, model="tiny",
                                                   **kwargs))
                assert [p.index for p in parts] == [0, 1, 2, 3]
                assert all(p.total == 4 for p in parts)
                reassembled = np.concatenate([p.logits for p in parts], axis=0)
                assert np.array_equal(reassembled, ref.logits), kwargs

    def test_stream_requires_frame_accept(self, setup, served):
        _, ds = setup
        _, server = served
        conn = http.client.HTTPConnection(*server.server_address[:2])
        try:
            conn.request(
                "POST", "/v1/predict",
                body=json.dumps({"model": "tiny", "stream": True,
                                 "image": ds.images[:2].tolist()}).encode(),
                headers={"Content-Type": CONTENT_TYPE_JSON,
                         "Accept": CONTENT_TYPE_JSON},
            )
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 400
        finally:
            conn.close()

    def test_stream_unknown_model_is_clean_404(self, setup, served):
        _, ds = setup
        _, server = served
        with SconnaClient(server.url) as client:
            with pytest.raises(ClientError) as err:
                list(client.predict_stream(ds.images[:2], model="ghost"))
        assert err.value.status == 404


class TestKeepAliveAndErrors:
    def test_http11_keep_alive_single_connection(self, setup, served):
        _, ds = setup
        _, server = served
        with SconnaClient(server.url) as client:
            for wire_name in ("frame", "npy", "json"):
                client.predict(ds.images[0], model="tiny", ideal=True,
                               wire_format=wire_name)
            client.models()
            client.metrics()
            assert client.opened == 1  # every call rode one connection

    def test_protocol_version_is_1_1(self, served):
        _, server = served
        conn = http.client.HTTPConnection(*server.server_address[:2])
        try:
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            resp.read()
            assert resp.version == 11
            # keep-alive: a second request on the same socket succeeds
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert json.loads(resp.read()) == {"status": "ok"}
        finally:
            conn.close()

    def test_oversized_body_is_413_connection_close(self, served, monkeypatch):
        import repro.serve.httpd as httpd_module

        _, server = served
        monkeypatch.setattr(httpd_module, "MAX_BODY_BYTES", 64)
        conn = http.client.HTTPConnection(*server.server_address[:2])
        try:
            conn.request(
                "POST", "/v1/predict", body=b"x" * 65,
                headers={"Content-Type": CONTENT_TYPE_JSON},
            )
            resp = conn.getresponse()
            body = resp.read()
            assert resp.status == 413
            assert "cap" in json.loads(body)["error"]
            # the unread body poisons the socket: the server must close
            assert resp.headers["Connection"] == "close"
        finally:
            conn.close()

    def test_missing_length_is_411_connection_close(self, served):
        _, server = served
        conn = http.client.HTTPConnection(*server.server_address[:2])
        try:
            conn.putrequest("POST", "/v1/predict")
            conn.putheader("Content-Type", CONTENT_TYPE_JSON)
            conn.endheaders()  # no Content-Length, no body
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 411
            assert resp.headers["Connection"] == "close"
        finally:
            conn.close()

    def test_unsupported_content_type_is_415(self, served):
        _, server = served
        conn = http.client.HTTPConnection(*server.server_address[:2])
        try:
            conn.request("POST", "/v1/predict", body=b"a,b,c",
                         headers={"Content-Type": "text/csv"})
            resp = conn.getresponse()
            body = resp.read()
            assert resp.status == 415
            assert "x-sconna-frame" in json.loads(body)["error"]
        finally:
            conn.close()

    def test_malformed_frame_body_is_400(self, served):
        _, server = served
        conn = http.client.HTTPConnection(*server.server_address[:2])
        try:
            conn.request("POST", "/v1/predict",
                         body=b"XXXX" + b"\x00" * 20,
                         headers={"Content-Type": CONTENT_TYPE_FRAME})
            resp = conn.getresponse()
            body = resp.read()
            assert resp.status == 400
            assert "magic" in json.loads(body)["error"]
        finally:
            conn.close()


class TestAdmission:
    def make_service(self, qm, **admission_kwargs):
        svc = SconnaService(admission=AdmissionPolicy(**admission_kwargs))
        svc.add_model("tiny", qm)
        return svc

    def test_shed_is_429_with_retry_after(self, setup):
        qm, ds = setup
        svc = self.make_service(qm, max_queued_bytes=64, retry_after_s=0.25)
        server, _ = serve_http(svc)
        try:
            with SconnaClient(server.url) as client:
                with pytest.raises(AdmissionRejected) as err:
                    client.predict(ds.images[0], model="tiny")
                assert err.value.status == 429
                assert err.value.retry_after_s == pytest.approx(0.25)
                snap = client.metrics()
            assert snap["shed"] == 1
            assert snap["admission"]["shed"] == 1
            assert snap["admission"]["in_flight"] == 0
            assert snap["admission"]["policy"]["max_queued_bytes"] == 64
        finally:
            server.shutdown()
            svc.close()

    def test_max_inflight_sheds_then_recovers(self, setup):
        """Hold one request open in the scheduler; the second is shed;
        after the first completes the service admits again."""
        qm, ds = setup
        svc = SconnaService(
            policy=BatchingPolicy(max_batch_size=8, max_wait_ms=500.0,
                                  min_fill=8),
            admission=AdmissionPolicy(max_inflight=1),
        )
        svc.add_model("tiny", qm)
        try:
            held = svc.predict_async("tiny", ds.images[0], ideal=True)
            with pytest.raises(AdmissionError):
                svc.predict("tiny", ds.images[1], ideal=True)
            held.result(timeout=30.0)  # the open batch flushes on its own
            ok = svc.predict("tiny", ds.images[1], ideal=True, timeout=30.0)
            assert ok.logits.shape == (1, N_CLASSES)
            assert svc.admission.stats()["shed"] == 1
            assert svc.admission.stats()["in_flight"] == 0
        finally:
            svc.close()

    def test_release_even_when_request_fails(self, setup):
        qm, _ = setup
        svc = self.make_service(qm, max_inflight=2)
        try:
            bad = np.zeros((1, 3, 10, 10))  # wrong geometry for the FC
            for _ in range(4):  # more failures than max_inflight
                with pytest.raises(Exception):
                    svc.predict("tiny", bad, timeout=10.0)
            assert svc.admission.stats()["in_flight"] == 0
        finally:
            svc.close()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_queued_bytes=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(retry_after_s=-1.0)


class TestNegotiationHelpers:
    def test_accept_priorities(self):
        assert negotiate_response_type(
            CONTENT_TYPE_FRAME, CONTENT_TYPE_JSON) == CONTENT_TYPE_FRAME
        assert negotiate_response_type(
            f"{CONTENT_TYPE_JSON}, {CONTENT_TYPE_FRAME}",
            CONTENT_TYPE_JSON) == CONTENT_TYPE_FRAME
        assert negotiate_response_type(
            CONTENT_TYPE_NPY, CONTENT_TYPE_JSON) == CONTENT_TYPE_NPY
        assert negotiate_response_type(
            "text/html", CONTENT_TYPE_FRAME) == CONTENT_TYPE_JSON

    def test_wildcard_mirrors_request_type(self):
        assert negotiate_response_type(None, CONTENT_TYPE_FRAME) \
            == CONTENT_TYPE_FRAME
        assert negotiate_response_type("*/*", CONTENT_TYPE_NPY) \
            == CONTENT_TYPE_NPY
        assert negotiate_response_type("*/*", CONTENT_TYPE_JSON) \
            == CONTENT_TYPE_JSON

    def test_parse_predict_fields(self):
        fields = parse_predict_fields(
            {"model": "m", "seed": "5", "top_k": "3", "ideal": "true",
             "cost": 1, "stream": "0"}
        )
        assert fields == {"model": "m", "seed": 5, "top_k": 3,
                          "ideal": True, "cost": True, "stream": False}
        assert parse_predict_fields({})["model"] is None
        with pytest.raises(ValueError):
            parse_predict_fields({"ideal": "maybe"})


# ---------------------------------------------------------------------------
# HTTP/1.1 framing over raw sockets: the replica and the router front-end
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def router_front(served):
    """A router fronting the ``served`` replica."""
    _, server = served
    router = Router([server.url], policy=RouterPolicy(health_interval_s=30.0),
                    probe_in_background=False)
    router.probe_now()
    front, _ = serve_router(router)
    yield front
    front.shutdown()
    router.close()


@pytest.fixture(params=["replica", "router"])
def endpoint(request, served, router_front):
    """The (host, port) of the replica, or of the router in front of it."""
    _, server = served
    front = server if request.param == "replica" else router_front
    return front.server_address[:2]


def _connect(address) -> socket.socket:
    return socket.create_connection(address, timeout=10.0)


def _read_response(fh) -> "tuple[int, list[tuple[str, str]], bytes] | None":
    """One response off a raw socket: (status, lowercased fields, body)."""
    status_line = fh.readline()
    if not status_line:
        return None
    status = int(status_line.split(b" ")[1])
    fields = []
    while True:
        line = fh.readline().decode("latin-1").rstrip("\r\n")
        if not line:
            break
        name, _, value = line.partition(":")
        fields.append((name.strip().lower(), value.strip()))
    body = fh.read(int(dict(fields).get("content-length", 0)))
    return status, fields, body


def _predict_body(ds) -> bytes:
    return json.dumps({"model": "tiny", "ideal": True,
                       "image": ds.images[0].tolist()}).encode()


class TestHTTP11Framing:
    @pytest.mark.parametrize("framing", [
        "Content-Length: {n}\r\nTransfer-Encoding: chunked",
        "Content-Length: {n}\r\nContent-Length: {m}",
        "Content-Length: +{n}",
        "Content-Length : {n}",
    ], ids=["length-and-chunked", "two-lengths", "signed-length",
            "space-before-colon"])
    def test_smuggling_shapes_are_refused(self, setup, endpoint, framing):
        """Each shape that lets two parsers disagree on where the body
        ends is answered 400 and the connection is closed."""
        _, ds = setup
        body = _predict_body(ds)
        fields = framing.format(n=len(body), m=len(body) + 1)
        with _connect(endpoint) as sock, sock.makefile("rb") as fh:
            sock.sendall(
                b"POST /v1/predict HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                + fields.encode() + b"\r\n\r\n" + body
            )
            status, headers, _ = _read_response(fh)
            assert status == 400
            assert ("connection", "close") in headers
            assert fh.read() == b""          # and the server hung up

    def test_more_than_100_headers_is_431(self, served):
        _, server = served
        extra = b"".join(b"X-Filler-%d: v\r\n" % i for i in range(101))
        with _connect(server.server_address[:2]) as sock, \
                sock.makefile("rb") as fh:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n" + extra
                         + b"\r\n")
            status, _, _ = _read_response(fh)
        assert status == 431

    def test_expect_100_continue(self, setup, endpoint):
        """The interim 100 arrives before the body is sent; the body
        then gets its 200 on the same connection."""
        _, ds = setup
        body = _predict_body(ds)
        with _connect(endpoint) as sock, sock.makefile("rb") as fh:
            sock.sendall(
                b"POST /v1/predict HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Expect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            status, _, _ = _read_response(fh)
            assert status == 100
            sock.sendall(body)
            status, _, payload = _read_response(fh)
        assert status == 200
        assert json.loads(payload)["model"] == "tiny"

    def test_http10_is_answered_then_closed(self, served):
        _, server = served
        with _connect(server.server_address[:2]) as sock, \
                sock.makefile("rb") as fh:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            status, _, body = _read_response(fh)
            assert status == 200
            assert json.loads(body) == {"status": "ok"}
            assert fh.read() == b""

    def test_pipelined_requests_are_answered_in_order(self, served):
        _, server = served
        with _connect(server.server_address[:2]) as sock, \
                sock.makefile("rb") as fh:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                         b"GET /v1/models HTTP/1.1\r\nHost: x\r\n\r\n")
            first = _read_response(fh)
            second = _read_response(fh)
        assert first[0] == second[0] == 200
        assert json.loads(first[2]) == {"status": "ok"}
        assert json.loads(second[2]) == {"models": ["tiny"]}

    def test_dripped_head_does_not_stall_other_connections(self, served):
        """A head sent a few bytes at a time over ~1 s is answered, and a
        second connection is served while it drips."""
        _, server = served
        address = server.server_address[:2]
        head = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        answers = {}

        def drip() -> None:
            with _connect(address) as sock, sock.makefile("rb") as fh:
                for i in range(0, len(head), 4):
                    sock.sendall(head[i:i + 4])
                    time.sleep(1.0 / (len(head) / 4))
                answers["drip"] = (_read_response(fh), time.monotonic())

        dripper = threading.Thread(target=drip)
        dripper.start()
        time.sleep(0.2)
        with _connect(address) as sock, sock.makefile("rb") as fh:
            sock.sendall(b"GET /v1/models HTTP/1.1\r\nHost: x\r\n\r\n")
            other = _read_response(fh)
            other_done = time.monotonic()
        dripper.join(timeout=30.0)
        assert not dripper.is_alive()
        assert other[0] == 200
        (status, _, _), drip_done = answers["drip"]
        assert status == 200
        assert other_done < drip_done

    def test_long_blank_run_in_a_field_is_answered_promptly(
            self, setup, endpoint):
        """A field value with a long run of blanks before its last
        character is parsed in time linear in its length: the request is
        answered within a second or two (through the router it is parsed
        twice), and a second connection is served meanwhile."""
        _, ds = setup
        body = _predict_body(ds)
        t0 = time.monotonic()
        with _connect(endpoint) as padded, padded.makefile("rb") as fh:
            padded.sendall(
                b"POST /v1/predict HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"X-Pad: a" + b" " * 60000 + b"b\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            with _connect(endpoint) as other, other.makefile("rb") as ofh:
                other.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                assert _read_response(ofh)[0] == 200
            status, _, payload = _read_response(fh)
        assert time.monotonic() - t0 < 2.0
        assert status == 200
        assert json.loads(payload)["model"] == "tiny"


class _Segments:
    """A socket stand-in whose ``recv`` hands out ``data`` a few bytes at
    a time, then end-of-file."""

    def __init__(self, data: bytes, size: int) -> None:
        self._view = memoryview(data)
        self._size = size
        self._at = 0

    def recv(self, n: int) -> bytes:
        piece = self._view[self._at:self._at + min(n, self._size)]
        self._at += len(piece)
        return bytes(piece)


class TestHeadScan:
    def test_head_at_the_limits_in_small_segments_is_scanned_once(self):
        """A 6 MB head - 100 fields of 60 KB - arriving in 1 KiB segments
        is parsed in time linear in its size, not in size x segments."""
        fields = b"".join(b"X-F%d: %s\r\n" % (i, b"v" * 60000)
                          for i in range(99))
        head = b"GET / HTTP/1.1\r\nHost: x\r\n" + fields + b"\r\n"
        t0 = time.monotonic()
        lines = _Stream(_Segments(head, 1024)).head()
        assert time.monotonic() - t0 < 2.0
        assert len(lines) == 101 and lines[-1].endswith("v" * 60000)

    @pytest.mark.parametrize("head, status", [
        (b"GET /" + b"a" * MAX_LINE, 414),
        (b"GET / HTTP/1.1\r\nX-Big: " + b"v" * MAX_LINE, 431),
        (b"GET / HTTP/1.1\r\n" + b"X-F: v\r\n" * 101, 431),
    ], ids=["first-line", "header-line", "header-count"])
    def test_limits_refuse_before_the_head_ends(self, head, status):
        """A limit is enforced while the head is still arriving (these
        heads never end: the stand-in's end-of-file would otherwise read
        as a hang-up)."""
        with pytest.raises(_Refused) as info:
            _Stream(_Segments(head, 1024)).head()
        assert info.value.status == status

    def test_empty_lines_before_a_head_are_skipped(self):
        stream = _Stream(_Segments(
            b"\r\n\r\nGET / HTTP/1.1\r\nHost: x\r\n\r\nGET /next", 5,
        ))
        assert stream.head() == ["GET / HTTP/1.1", "Host: x"]
        rest = bytes(stream.buf)            # what arrived of the next head
        assert rest and b"GET /next".startswith(rest)


def _answer_each_connection(payload: bytes, hold: bool = False):
    """A listener that answers the first request on each connection with
    the raw ``payload`` and then hangs up - or, with ``hold``, keeps the
    connection open and answers nothing more.  Returns its (host, port)
    and the request lines it has read, in arrival order."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)
    seen: "list[bytes]" = []
    held: "list[socket.socket]" = []

    def serve() -> None:
        with listener:
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                seen.append(conn.recv(65536).split(b"\r\n", 1)[0])
                conn.sendall(payload)
                if hold:
                    held.append(conn)
                else:
                    conn.close()

    threading.Thread(target=serve, daemon=True).start()
    return listener.getsockname()[:2], seen


class TestClientCodec:
    def test_interim_answer_skipped_and_chunks_read_one_at_a_time(self):
        address, _ = _answer_each_connection(
            b"HTTP/1.1 100 Continue\r\n\r\n"
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"3;ext=1\r\nabc\r\n2\r\nde\r\n0\r\nX-Trailer: t\r\n\r\n"
        )
        conn = Connection(*address, timeout=10.0)
        try:
            conn.request("GET", "/")
            resp = conn.getresponse()
            assert resp.status == 200 and resp.chunked
            assert resp.read(2) == b"ab"
            assert resp.read(10) == b"c"      # a read never spans chunks
            assert resp.read() == b"de"
            assert resp.done
        finally:
            conn.close()

    def test_close_delimited_body(self):
        address, _ = _answer_each_connection(b"HTTP/1.0 200 OK\r\n\r\nhello")
        conn = Connection(*address, timeout=10.0)
        try:
            conn.request("GET", "/")
            assert conn.getresponse().read() == b"hello"
            assert conn.sock is None          # the body ended the connection
        finally:
            conn.close()

    def test_eof_before_status_line_is_a_reset(self):
        address, _ = _answer_each_connection(b"")
        conn = Connection(*address, timeout=10.0)
        try:
            conn.request("GET", "/")
            with pytest.raises(ConnectionResetError):
                conn.getresponse()
        finally:
            conn.close()


_OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


class TestExchange:
    """``Connection.exchange``'s one stale-socket rule: a socket that has
    carried an answer is replaced once if it fails before the next status
    line; a fresh socket, and any timeout, is never retried."""

    def test_idle_closed_socket_is_replaced_once(self):
        address, seen = _answer_each_connection(_OK)
        conn = Connection(*address, timeout=10.0)
        try:
            assert conn.exchange("GET", "/a").read() == b"ok"
            # the peer has hung up the idle keep-alive socket
            assert conn.exchange("GET", "/b").read() == b"ok"
            assert conn.opened == 2
        finally:
            conn.close()
        assert seen == [b"GET /a HTTP/1.1", b"GET /b HTTP/1.1"]

    @pytest.mark.parametrize("answered", [False, True],
                             ids=["fresh", "kept-alive"])
    def test_a_timeout_is_never_retried(self, hung_peer, answered):
        if answered:     # one answer, then silence on the same socket
            address, seen = _answer_each_connection(_OK, hold=True)
            conn = Connection(*address, timeout=0.5)
        else:
            url, accepted = hung_peer
            conn = Connection.to(url, timeout=0.5)
        try:
            if answered:
                assert conn.exchange("GET", "/a").read() == b"ok"
            t0 = time.monotonic()
            with pytest.raises(TimeoutError):
                conn.exchange("GET", "/b")
            assert time.monotonic() - t0 < 0.9     # one timeout, not two
            assert conn.opened == 1
        finally:
            conn.close()
        if answered:
            assert seen == [b"GET /a HTTP/1.1"]
        else:
            assert len(accepted) == 1

    def test_refused_connect_is_attempted_once(self, monkeypatch):
        attempts = []
        create_connection = socket.create_connection

        def counted(*args, **kwargs):
            attempts.append(args[0])
            return create_connection(*args, **kwargs)

        with socket.create_server(("127.0.0.1", 0)) as probe:
            port = probe.getsockname()[1]   # closed again: nothing listens
        monkeypatch.setattr(socket, "create_connection", counted)
        conn = Connection("127.0.0.1", port, timeout=5.0)
        with pytest.raises(ConnectionRefusedError):
            conn.exchange("GET", "/")
        assert attempts == [("127.0.0.1", port)]
        assert conn.opened == 0

    def test_to_takes_http_urls_only(self):
        conn = Connection.to("127.0.0.1:8001")
        assert (conn.host, conn.port) == ("127.0.0.1", 8001)
        with pytest.raises(ValueError):
            Connection.to("https://127.0.0.1:8001")
