"""One HTTP/1.1 codec for every serving process: replica, router, client.

The replica (:mod:`repro.serve.httpd`), the router
(:mod:`repro.serve.router`), :class:`~repro.serve.client.SconnaClient`
and the watchtower all frame their messages here, so the wire rules live
in one place:

* **Heads** are parsed from one per-connection buffer: line ends are
  found as bytes arrive (each byte searched once, the limits checked on
  the way), and the head is decoded once and its lines matched against
  the request-line, status-line and field grammars, none of which
  backtracks.  Limits: a request line over 64 KiB is answered 414, a
  header line over 64 KiB or more than 100 header lines 431.  Empty
  lines before a request line are skipped.
* **Request smuggling** shapes are refused with ``400`` and
  ``Connection: close``: a request carrying both ``Content-Length`` and
  ``Transfer-Encoding``, differing ``Content-Length`` values, a
  ``Content-Length`` that is not plain digits, whitespace before a
  header colon, or a bare CR or LF inside the head.
* **Bodies.**  A request's ``Content-Length`` body is read with
  ``recv_into`` into a fresh buffer and handed out as a read-only view
  (never reused: a request whose caller timed out may still be queued
  holding views into it).  Requests with a ``Transfer-Encoding`` body
  are not decoded - no route takes one - and their connection closes
  after the answer.  Responses may be ``Content-Length``, chunked or
  close-delimited; a chunked one can be walked chunk by chunk as it
  arrives.
* **Keep-alive.**  HTTP/1.1 connections stay open until a ``Connection:
  close`` request, an HTTP/1.0 request, a refused request, a request
  whose body was left unread, or 65 s without a request.  An ``Expect:
  100-continue`` request gets its interim ``100 Continue`` when the
  handler starts reading the body.
* **Writes.**  A message leaves as one ``sendmsg`` of head and body (a
  short send is continued until all of it is out); each response
  carries one ``Date``, formatted once per second.

:class:`HTTPServer` is a thread-per-connection
:class:`socketserver.ThreadingTCPServer` (``serve_forever`` /
``shutdown`` as usual); subclass :class:`RequestHandler` and define
``do_GET`` / ``do_POST``.

:class:`Connection` is the client end and the one outbound request path
of the client, the router and the watchtower.  ``Connection.to(url)``
is the one ``http://`` URL check.  :meth:`Connection.exchange` sends a
request and reads its answer's head into a :class:`Response`
(``.status``, ``.headers.get`` and ``.read()``) under one stale-socket
rule: a socket that has carried an answer may have been closed by the
peer while it sat idle, so if it fails before the next status line it
is replaced once and the request sent again (the peer never read it).
A socket that has not answered yet, and any timeout, is never retried:
the peer may be running the request.  :func:`fetch` makes a one-shot
call on a connection of its own and returns ``(status, body)``.
:data:`CONNECT_TIMEOUT_S` bounds every outbound connect.
``request()`` and ``getresponse()`` remain the raw codec calls.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import time
import urllib.parse
from email.utils import formatdate
from http import HTTPStatus

#: longest request line or header line accepted
MAX_LINE = 65536
#: most header lines in one head
MAX_HEADERS = 100
#: bytes asked of one ``recv``
RECV_BYTES = 65536
#: longest wait for an outbound connect (shorter if the connection's
#: own timeout is)
CONNECT_TIMEOUT_S = 5.0

_TOKEN = r"[!#$%&'*+.^_`|~0-9A-Za-z-]+"
#: no CR, LF or NUL anywhere in a line: a bare one is refused
_TEXT = r"[^\r\n\x00]"
_REQUEST_LINE = re.compile(rf"({_TOKEN}) ([^\s\x00]+) (HTTP/[0-9]\.[0-9])")
_STATUS_LINE = re.compile(rf"(HTTP/[0-9]\.[0-9]) ([0-9]{{3}})(?: {_TEXT}*)?")
#: a field: token name, colon, value (no whitespace before the colon);
#: the value's surrounding blanks are stripped after the match, which
#: keeps the match linear in the line's length
_FIELD = re.compile(rf"({_TOKEN}):({_TEXT}*)")
_REASONS = {status.value: status.phrase for status in HTTPStatus}


class ProtocolError(ConnectionError):
    """The peer sent bytes that are not an HTTP/1.1 message."""


class _Refused(Exception):
    """A malformed or oversized head; ``status`` is the answer to send."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class Headers:
    """Header fields in arrival order, looked up case-insensitively."""

    __slots__ = ("_fields", "_first")

    def __init__(self, fields: "list[tuple[str, str]]") -> None:
        self._fields = fields
        self._first: "dict[str, str]" = {}
        for name, value in fields:
            self._first.setdefault(name.lower(), value)

    def get(self, name: str, default=None):
        """The first value of field ``name``, or ``default``."""
        return self._first.get(name.lower(), default)

    def get_all(self, name: str) -> "list[str]":
        """Every value of field ``name``, in arrival order."""
        name = name.lower()
        return [value for key, value in self._fields if key.lower() == name]

    def items(self) -> "list[tuple[str, str]]":
        """``(name, value)`` pairs as received."""
        return list(self._fields)


def send_all(sock: socket.socket, *parts) -> None:
    """Write ``parts`` (bytes-like) as one message: one ``sendmsg``,
    continued after a short send until every byte is out."""
    views = [memoryview(part) for part in parts if len(part)]
    while views:
        sent = sock.sendmsg(views)
        while sent:
            if sent < views[0].nbytes:
                views[0] = views[0][sent:]
                break
            sent -= views.pop(0).nbytes


def _digits(value: str) -> "int | None":
    """A ``Content-Length`` value's integer, or None if it is not digits."""
    return int(value) if value.isascii() and value.isdigit() else None


def _parse_fields(lines: "list[str]") -> Headers:
    fields = []
    for line in lines:
        match = _FIELD.fullmatch(line)
        if match is None:
            raise _Refused(400, f"malformed header line {line[:80]!r}")
        name, value = match.groups()
        fields.append((name, value.strip(" \t")))
    return Headers(fields)


def _overlong(n_lines: int) -> _Refused:
    """The refusal of a line over ``MAX_LINE`` after ``n_lines`` lines."""
    if n_lines:
        return _Refused(431, f"header line over {MAX_LINE} bytes")
    return _Refused(414, f"first line over {MAX_LINE} bytes")


class _Stream:
    """A socket plus the bytes received on it and not consumed yet."""

    __slots__ = ("sock", "buf")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buf = bytearray()

    def _recv(self) -> bool:
        data = self.sock.recv(RECV_BYTES)
        self.buf += data
        return bool(data)

    def head(self) -> "list[str] | None":
        """The next message head as lines (first line first), or None
        when the peer closed the connection before completing one.

        Limits are checked as bytes arrive, and each byte is searched
        once: ``start`` is where the line being received begins and
        ``scan`` how far it has been searched."""
        buf = self.buf
        start = scan = n_lines = 0
        while True:
            end = buf.find(b"\r\n", scan)
            if end < 0:
                if len(buf) - start > MAX_LINE:
                    raise _overlong(n_lines)
                scan = max(len(buf) - 1, start)
                if not self._recv():
                    return None
                continue
            if end - start > MAX_LINE:
                raise _overlong(n_lines)
            if end == start:
                if n_lines:
                    break           # the blank line that ends the head
                del buf[:2]         # empty lines before a message
                scan = 0
                continue
            n_lines += 1
            if n_lines > MAX_HEADERS + 1:
                raise _Refused(431, f"more than {MAX_HEADERS} header lines")
            start = scan = end + 2
        lines = buf[: start - 2].decode("latin-1").split("\r\n")
        del buf[: start + 2]
        return lines

    def fill(self, view: memoryview) -> bool:
        """Fill ``view`` exactly: buffered bytes first, then ``recv_into``.
        False when the peer closed the connection first."""
        buf = self.buf
        got = min(len(buf), len(view))
        view[:got] = buf[:got]
        del buf[:got]
        while got < len(view):
            n = self.sock.recv_into(view[got:])
            if not n:
                return False
            got += n
        return True

    def exact(self, n: int) -> bytes:
        """Exactly ``n`` bytes; ProtocolError if the peer closes first."""
        buf = self.buf
        if len(buf) < n:
            out = bytearray(n)
            if not self.fill(memoryview(out)):
                raise ProtocolError("connection closed mid-body")
            return bytes(out)
        out = bytes(buf[:n])
        del buf[:n]
        return out

    def some(self, n: int) -> bytes:
        """Between 1 and ``n`` bytes: buffered ones, else one ``recv``
        (b"" only at end-of-file)."""
        if not self.buf and not self._recv():
            return b""
        out = bytes(self.buf[:n])
        del self.buf[:n]
        return out

    def line(self) -> bytes:
        """One CRLF-terminated line, without its CRLF."""
        buf = self.buf
        start = 0
        while True:
            end = buf.find(b"\r\n", start)
            if end >= 0:
                out = bytes(buf[:end])
                del buf[: end + 2]
                return out
            if len(buf) > MAX_LINE:
                raise ProtocolError(f"line over {MAX_LINE} bytes")
            start = max(len(buf) - 1, 0)
            if not self._recv():
                raise ProtocolError("connection closed mid-body")


# -- server ------------------------------------------------------------------
class HTTPServer(socketserver.ThreadingTCPServer):
    """Thread-per-connection HTTP/1.1 server (``port=0`` picks a free port)."""

    daemon_threads = True
    allow_reuse_address = True
    _date = (0, "")

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def date_line(self) -> str:
        """This second's ``Date`` header line."""
        now = int(time.time())
        second, line = self._date
        if second != now:
            line = f"Date: {formatdate(now, usegmt=True)}\r\n"
            self._date = (now, line)
        return line


class RequestHandler(socketserver.BaseRequestHandler):
    """One connection's request loop; subclasses define ``do_<METHOD>``.

    Per request, a handler reads ``command``, ``path``,
    ``request_version`` and ``headers``, may call :meth:`read_body`
    once, and answers with :meth:`send_message` or with
    :meth:`start_chunked`, :meth:`send_chunk` and :meth:`end_chunked`.
    Setting ``close_connection`` ends the connection after the answer.
    """

    server: HTTPServer
    #: idle keep-alive connections are reaped (each holds a thread)
    timeout = 65.0

    def setup(self) -> None:
        self.request.settimeout(self.timeout)
        # a chunked response's head and chunks are separate writes;
        # with Nagle on, each could stall behind the peer's delayed ACK
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = _Stream(self.request)
        self.close_connection = False
        self._body_left = 0
        self._expect_100 = False

    def handle(self) -> None:
        try:
            while not self.close_connection:
                if not self._serve_one():
                    return
        except OSError:
            pass  # timed out, reset or gone: nothing is left to answer

    def _serve_one(self) -> bool:
        try:
            lines = self._stream.head()
            if lines is None:
                return False
            self._parse_head(lines)
        except _Refused as exc:
            self._refuse(exc.status, exc.message)
            return False
        handler = getattr(self, "do_" + self.command, None)
        if handler is None:
            self._refuse(501, f"unsupported method {self.command!r}")
            return False
        handler()
        return True

    def _parse_head(self, lines: "list[str]") -> None:
        self._body_left = 0
        match = _REQUEST_LINE.fullmatch(lines[0])
        if match is None:
            raise _Refused(400, f"malformed request line {lines[0][:80]!r}")
        self.command, self.path, self.request_version = match.groups()
        if self.request_version not in ("HTTP/1.1", "HTTP/1.0"):
            raise _Refused(505, f"unsupported {self.request_version}")
        headers = self.headers = _parse_fields(lines[1:])
        lengths = headers.get_all("content-length")
        coded = headers.get("transfer-encoding") is not None
        if lengths:
            if coded:
                raise _Refused(
                    400, "both Content-Length and Transfer-Encoding"
                )
            if len(set(lengths)) > 1:
                raise _Refused(400, "differing Content-Length values")
            length = _digits(lengths[0])
            if length is None:
                raise _Refused(400, f"bad Content-Length {lengths[0]!r}")
            self._body_left = length
        tokens = (headers.get("connection") or "").lower()
        # an undecoded Transfer-Encoding body leaves the stream unframed
        self.close_connection = (
            self.request_version == "HTTP/1.0" or "close" in tokens or coded
        )
        self._expect_100 = (
            self.request_version == "HTTP/1.1"
            and (headers.get("expect") or "").lower() == "100-continue"
        )

    def read_body(self, length: int) -> "memoryview | None":
        """This request's ``length``-byte body as a read-only view of a
        fresh buffer; None when the client hung up mid-body."""
        if self._expect_100:
            self._expect_100 = False
            send_all(self.request, b"HTTP/1.1 100 Continue\r\n\r\n")
        body = bytearray(length)
        if not self._stream.fill(memoryview(body)):
            self.close_connection = True
            return None
        self._body_left = 0
        return memoryview(body).toreadonly()

    def _head(self, status: int, headers, framing: str) -> bytes:
        # an unread body would be parsed as the next request
        close = self.close_connection = (
            self.close_connection or self._body_left > 0
        )
        parts = [
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n",
            self.server.date_line(),
            framing,
        ]
        parts.extend(f"{name}: {value}\r\n" for name, value in headers)
        if close:
            parts.append("Connection: close\r\n")
        parts.append("\r\n")
        return "".join(parts).encode("latin-1")

    def send_message(
        self, status: int, headers, body=b"", close: bool = False,
    ) -> None:
        """Send one whole response - head and body - in one write.
        ``close`` ends the connection after it."""
        if close:
            self.close_connection = True
        send_all(
            self.request,
            self._head(status, headers, f"Content-Length: {len(body)}\r\n"),
            body,
        )

    def start_chunked(self, status: int, headers) -> None:
        """Send a chunked response's head; chunks follow."""
        send_all(
            self.request,
            self._head(status, headers, "Transfer-Encoding: chunked\r\n"),
        )

    def send_chunk(self, data) -> None:
        """Send one chunk, framing included, in one write."""
        send_all(self.request, b"%X\r\n" % len(data), data, b"\r\n")

    def end_chunked(self) -> None:
        """Send the last chunk."""
        send_all(self.request, b"0\r\n\r\n")

    def _refuse(self, status: int, message: str) -> None:
        self.send_message(
            status, [("Content-Type", "application/json")],
            json.dumps({"error": message}).encode(), close=True,
        )


# -- client ------------------------------------------------------------------
class Response:
    """One response, read up to its body."""

    def __init__(
        self, conn: "Connection", status: int, headers: Headers,
        length: "int | None", chunked: bool, will_close: bool,
    ) -> None:
        self.status = status
        self.headers = headers
        #: the body arrives in chunks
        self.chunked = chunked
        #: every body byte has been read
        self.done = False
        self._conn = conn
        self._stream = conn._stream
        self._left = length        # Content-Length bytes left, or None
        self._chunk_left = 0       # unread bytes of the current chunk
        self._in_chunk = False     # a chunk's trailing CRLF is unread
        self._will_close = will_close
        if length == 0:
            self._finish()

    def _finish(self) -> None:
        self.done = True
        if self._will_close:
            self._conn.close()

    def read(self, amt: "int | None" = None) -> bytes:
        """Up to ``amt`` body bytes (all of them when None); b"" at the end.

        A chunked body's reads never span chunks, so a streamed frame is
        returned as soon as its chunk has arrived."""
        if self.done:
            return b""
        if self.chunked:
            if amt is None:
                return b"".join(iter(lambda: self.read(RECV_BYTES), b""))
            if not self._chunk_left and not self._next_chunk():
                return b""
            n = min(amt, self._chunk_left)
            data = self._stream.exact(n)
            self._chunk_left -= n
            return data
        if self._left is None:     # delimited by the connection closing
            if amt is None:
                while self._stream._recv():
                    pass
                data = bytes(self._stream.buf)
                self._stream.buf.clear()
            else:
                data = self._stream.some(amt)
            if amt is None or not data:
                self._finish()
            return data
        n = self._left if amt is None else min(amt, self._left)
        data = self._stream.exact(n)
        self._left -= n
        if not self._left:
            self._finish()
        return data

    def _next_chunk(self) -> bool:
        stream = self._stream
        if self._in_chunk and stream.line():
            raise ProtocolError("chunk data not followed by CRLF")
        size = stream.line().partition(b";")[0].strip()
        if not size or size.strip(b"0123456789abcdefABCDEF"):
            raise ProtocolError(f"bad chunk size {size[:40]!r}")
        self._chunk_left = int(size, 16)
        self._in_chunk = True
        if self._chunk_left:
            return True
        while stream.line():
            pass                   # trailer fields
        self._finish()
        return False


class Connection:
    """One client keep-alive connection: :meth:`exchange` sends a
    request and reads the answer's head.

    The socket opens on first use and again after a response that
    closed it; ``timeout`` bounds each read and write.  End-of-file
    before a status line raises :class:`ConnectionResetError`; a timeout
    raises :class:`TimeoutError`; either closes the socket.
    """

    def __init__(self, host: str, port: int, timeout: "float | None" = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.sock: "socket.socket | None" = None
        #: sockets this connection has opened (1 while keep-alive holds)
        self.opened = 0
        self._answered = False     # the current socket has carried an answer
        self._stream: "_Stream | None" = None
        self._response: "Response | None" = None

    @classmethod
    def to(cls, url: str, timeout: "float | None" = None) -> "Connection":
        """A connection to ``http://host:port`` (the scheme may be left
        out); any other scheme raises :class:`ValueError`."""
        parsed = urllib.parse.urlsplit(url if "//" in url else f"http://{url}")
        if parsed.scheme not in ("", "http"):
            raise ValueError(f"only http:// endpoints are supported: {url!r}")
        return cls(parsed.hostname or "127.0.0.1", parsed.port or 80, timeout)

    def connect(self) -> None:
        self._answered = False
        wait = CONNECT_TIMEOUT_S if self.timeout is None else min(
            CONNECT_TIMEOUT_S, self.timeout
        )
        sock = socket.create_connection((self.host, self.port), wait)
        sock.settimeout(self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self._stream = _Stream(sock)
        self.opened += 1

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            sock.close()

    def request(
        self, method: str, path: str, body=None,
        headers: "dict[str, str] | None" = None,
    ) -> None:
        """Send one request, head and body in one write."""
        if self._response is not None and not self._response.done:
            self.close()   # an unread answer leaves the socket out of step
        self._response = None
        if self.sock is None:
            self.connect()
        parts = [f"{method} {path} HTTP/1.1\r\n"]
        names = set()
        for name, value in (headers or {}).items():
            parts.append(f"{name}: {value}\r\n")
            names.add(name.lower())
        if "host" not in names:
            parts.append(f"Host: {self.host}:{self.port}\r\n")
        if "content-length" not in names and (
                body is not None or method in ("POST", "PUT", "PATCH")):
            parts.append(f"Content-Length: {len(body) if body else 0}\r\n")
        parts.append("\r\n")
        try:
            send_all(self.sock, "".join(parts).encode("latin-1"), body or b"")
        except OSError:
            self.close()
            raise

    def exchange(
        self, method: str, path: str, body=None,
        headers: "dict[str, str] | None" = None,
    ) -> Response:
        """Send one request and read its answer up to the body.

        A socket that has carried an answer and fails before the next
        status line is replaced once and the request sent again.  A
        socket that has not answered yet, and any timeout, is never
        retried: the peer may be running the request."""
        while True:
            try:
                self.request(method, path, body, headers)
                return self.getresponse()
            except TimeoutError:
                raise
            except OSError:
                if not self._answered:
                    raise
                self._answered = False   # the next socket is a fresh one

    def getresponse(self) -> Response:
        """Read the answer to the last request up to its body (interim
        1xx answers are skipped)."""
        try:
            while True:
                lines = self._stream.head()
                if lines is None:
                    raise ConnectionResetError(
                        f"{self.host}:{self.port} closed the connection "
                        "before a status line"
                    )
                match = _STATUS_LINE.fullmatch(lines[0])
                if match is None:
                    raise ProtocolError(f"bad status line {lines[0][:80]!r}")
                if not match.group(2).startswith("1"):
                    break
            headers = _parse_fields(lines[1:])
        except _Refused as exc:
            self.close()
            raise ProtocolError(exc.message) from None
        except OSError:
            self.close()
            raise
        version, status = match.group(1), int(match.group(2))
        tokens = (headers.get("connection") or "").lower()
        will_close = "close" in tokens or (
            version == "HTTP/1.0" and "keep-alive" not in tokens
        )
        coding = headers.get("transfer-encoding")
        chunked = coding is not None and coding.lower() == "chunked"
        length = None
        if status in (204, 304):
            length, chunked = 0, False
        elif coding is None and headers.get("content-length") is not None:
            length = _digits(headers.get("content-length"))
            if length is None:
                self.close()
                raise ProtocolError("bad Content-Length in the response")
        elif not chunked:
            will_close = True      # the body ends when the connection does
        self._response = Response(
            self, status, headers, length, chunked, will_close,
        )
        self._answered = True
        return self._response


def fetch(
    url: str, method: str, path: str, timeout: "float | None",
) -> "tuple[int, bytes]":
    """One bodiless call on a connection of its own, closed after it:
    ``(status, body)``."""
    conn = Connection.to(url, timeout)
    try:
        resp = conn.exchange(method, path)
        return resp.status, resp.read()
    finally:
        conn.close()
