"""Binary tensor wire protocol for the serving HTTP path.

``/v1/predict`` historically parsed images out of JSON lists, which
re-tokenizes megabytes of ASCII floats per request - the serving-path
bottleneck for large-image traffic.  This module defines the two binary
bodies the HTTP layer (and :class:`~repro.serve.client.SconnaClient`)
speak instead:

* ``application/x-npy`` - one tensor as a standard NPY v1 buffer
  (:func:`encode_npy` / :func:`decode_npy`); request parameters ride in
  the query string.
* ``application/x-sconna-frame`` - a self-delimiting multi-tensor frame
  (:func:`encode_frame` / :func:`decode_frame`): a small JSON metadata
  object plus any number of named tensors in one length-prefixed binary
  envelope.  Frames are also the unit of the chunked *streaming*
  response path (one frame per image), which is why they carry their
  own total length: :func:`read_frame` can pull one frame at a time out
  of any ``read(n)``-style byte stream.

Frame layout (all integers little-endian)::

    offset  size  field
    0       4     magic            b"SCNF"
    4       1     version          1
    5       1     reserved         0
    6       2     n_tensors        u16
    8       4     meta_len         u32   (UTF-8 JSON object)
    12      8     body_len         u64   (every byte after this header)
    20      ...   meta (meta_len bytes)
    ...           tensor records, n_tensors times:
                    name_len  u8
                    name      (UTF-8, name_len bytes)
                    dtype     u8    (code from the whitelist below)
                    ndim      u8    (<= MAX_NDIM)
                    dims      u32 * ndim
                    data_len  u64   (== prod(dims) * itemsize)
                    payload   (data_len bytes, C-contiguous)

The decoder validates magic, version, every length field against the
actual buffer, the dtype code against a closed whitelist, and each
tensor's ``data_len`` against its shape - truncated, oversized, and
trailing-garbage bodies all raise :class:`WireError` rather than
yielding a short array.  Decoding is zero-copy: each tensor is a
C-contiguous :func:`numpy.frombuffer` view of the request body, so the
batcher stacks it without an intermediate copy.  The views are
read-only, which the inference path never notices: an integer frame
(uint8/int8) keeps its dtype end to end - the fused execution plan
quantizes it through a lookup table straight into integer workspaces,
so the tensor never round-trips through float64 between socket and
logits - and a float frame is quantized once per coalesced batch.
"""

from __future__ import annotations

import io
import json
import struct

import numpy as np

#: media types the HTTP layer negotiates over
CONTENT_TYPE_JSON = "application/json"
CONTENT_TYPE_NPY = "application/x-npy"
CONTENT_TYPE_FRAME = "application/x-sconna-frame"

#: response header carrying the server's trace id for a request (every
#: status, 429s included)
TRACE_ID_HEADER = "X-Sconna-Trace-Id"
#: request header carrying an upstream (router) trace id: a sampled
#: replica trace adopts it, so the router hop and the replica's span
#: tree share one id end to end
PARENT_TRACE_HEADER = "X-Sconna-Parent-Trace"
#: response header naming the replica that answered (set by replicas
#: started with a replica id, stamped by the router when relaying)
REPLICA_HEADER = "X-Sconna-Replica"

MAGIC = b"SCNF"
WIRE_VERSION = 1

#: hard bounds a malformed (or malicious) header cannot talk us out of
MAX_NDIM = 8
MAX_TENSORS = 64
MAX_META_BYTES = 1 << 20          #: 1 MiB of JSON metadata is plenty
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct("<4sBBHIQ")   #: magic, version, reserved, n, meta, body

#: closed dtype whitelist: code <-> numpy dtype (codes are wire ABI)
_DTYPE_CODES = {
    1: np.dtype("float64"),
    2: np.dtype("float32"),
    3: np.dtype("int64"),
    4: np.dtype("int32"),
    5: np.dtype("int16"),
    6: np.dtype("int8"),
    7: np.dtype("uint8"),
    8: np.dtype("bool"),
}
_CODE_FOR_DTYPE = {dt: code for code, dt in _DTYPE_CODES.items()}


class WireError(ValueError):
    """A malformed wire body (bad magic/version/dtype, truncation, ...)."""


def dtype_code(dtype) -> int:
    """The wire code for a dtype; :class:`WireError` outside the whitelist."""
    code = _CODE_FOR_DTYPE.get(np.dtype(dtype))
    if code is None:
        supported = sorted(str(dt) for dt in _CODE_FOR_DTYPE)
        raise WireError(
            f"dtype {np.dtype(dtype)} is not on the wire whitelist "
            f"(supported: {supported})"
        )
    return code


# -- frame codec ------------------------------------------------------------

def encode_frame(meta: dict, tensors: "dict[str, np.ndarray] | None" = None) -> bytes:
    """Serialize a metadata object plus named tensors into one frame."""
    tensors = tensors or {}
    if len(tensors) > MAX_TENSORS:
        raise WireError(f"frame cannot carry more than {MAX_TENSORS} tensors")
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode()
    if len(meta_bytes) > MAX_META_BYTES:
        raise WireError("frame metadata exceeds MAX_META_BYTES")
    parts: "list[bytes]" = [meta_bytes]
    for name, arr in tensors.items():
        name_bytes = str(name).encode()
        if not (0 < len(name_bytes) < 256):
            raise WireError(f"bad tensor name {name!r}")
        arr = np.asarray(arr)
        if not arr.flags["C_CONTIGUOUS"]:  # ascontiguousarray would 1-d a 0-d
            arr = np.ascontiguousarray(arr)
        if arr.ndim > MAX_NDIM:
            raise WireError(f"tensor {name!r} has ndim {arr.ndim} > {MAX_NDIM}")
        code = dtype_code(arr.dtype)
        parts.append(struct.pack("<B", len(name_bytes)) + name_bytes)
        parts.append(struct.pack("<BB", code, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(struct.pack("<Q", arr.nbytes))
        parts.append(arr.tobytes())
    body = b"".join(parts)
    header = _HEADER.pack(
        MAGIC, WIRE_VERSION, 0, len(tensors), len(meta_bytes), len(body)
    )
    return header + body


def _parse_header(header: bytes) -> "tuple[int, int, int]":
    """Validate the fixed header; returns (n_tensors, meta_len, body_len)."""
    if len(header) < _HEADER.size:
        raise WireError(
            f"truncated frame header ({len(header)} of {_HEADER.size} bytes)"
        )
    magic, version, _, n_tensors, meta_len, body_len = _HEADER.unpack(
        header[: _HEADER.size]
    )
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported frame version {version}")
    if n_tensors > MAX_TENSORS:
        raise WireError(f"frame claims {n_tensors} tensors (max {MAX_TENSORS})")
    if meta_len > MAX_META_BYTES:
        raise WireError("frame metadata length exceeds MAX_META_BYTES")
    if meta_len > body_len:
        raise WireError("frame metadata length exceeds the body length")
    return n_tensors, meta_len, body_len


def decode_frame(
    buf: "bytes | bytearray | memoryview",
    max_bytes: int = DEFAULT_MAX_BYTES,
) -> "tuple[dict, dict[str, np.ndarray]]":
    """Decode one frame; returns ``(meta, {name: tensor})``.

    Tensors are zero-copy C-contiguous (read-only) views into ``buf``.
    Every malformation - truncation, trailing bytes, a length field that
    disagrees with a shape - raises :class:`WireError`.
    """
    view = memoryview(buf)
    n_tensors, meta_len, body_len = _parse_header(bytes(view[: _HEADER.size]))
    if body_len > max_bytes:
        raise WireError(
            f"frame body of {body_len} bytes exceeds the {max_bytes}-byte cap"
        )
    total = _HEADER.size + body_len
    if len(view) < total:
        raise WireError(
            f"truncated frame body ({len(view)} of {total} bytes)"
        )
    if len(view) > total:
        raise WireError(
            f"{len(view) - total} trailing bytes after the frame body"
        )
    return _decode_body(view[_HEADER.size : total], n_tensors, meta_len)


def _decode_body(
    body: memoryview, n_tensors: int, meta_len: int
) -> "tuple[dict, dict[str, np.ndarray]]":
    """Decode a frame body (everything after the fixed header)."""
    total = len(body)
    try:
        meta = json.loads(bytes(body[:meta_len]))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"frame metadata is not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise WireError("frame metadata must be a JSON object")
    offset = meta_len
    tensors: "dict[str, np.ndarray]" = {}
    for index in range(n_tensors):
        offset, name, arr = _decode_tensor(body, offset, total, index)
        if name in tensors:
            raise WireError(f"duplicate tensor name {name!r}")
        tensors[name] = arr
    if offset != total:
        raise WireError(
            f"{total - offset} undeclared bytes after the last tensor"
        )
    return meta, tensors


def _decode_tensor(
    view: memoryview, offset: int, total: int, index: int
) -> "tuple[int, str, np.ndarray]":
    """Decode one tensor record starting at ``offset``."""
    def need(n: int, what: str) -> None:
        if offset + n > total:
            raise WireError(f"truncated frame: tensor {index} {what}")

    need(1, "name length")
    (name_len,) = struct.unpack_from("<B", view, offset)
    offset += 1
    if name_len == 0:
        raise WireError(f"tensor {index} has an empty name")
    need(name_len, "name")
    try:
        name = bytes(view[offset : offset + name_len]).decode()
    except UnicodeDecodeError:
        raise WireError(f"tensor {index} name is not UTF-8") from None
    offset += name_len
    need(2, "dtype/ndim")
    code, ndim = struct.unpack_from("<BB", view, offset)
    offset += 2
    dtype = _DTYPE_CODES.get(code)
    if dtype is None:
        raise WireError(f"tensor {name!r} has unknown dtype code {code}")
    if ndim > MAX_NDIM:
        raise WireError(f"tensor {name!r} has ndim {ndim} > {MAX_NDIM}")
    need(4 * ndim, "shape")
    shape = struct.unpack_from(f"<{ndim}I", view, offset)
    offset += 4 * ndim
    need(8, "payload length")
    (data_len,) = struct.unpack_from("<Q", view, offset)
    offset += 8
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if ndim \
        else dtype.itemsize
    if data_len != expected:
        raise WireError(
            f"tensor {name!r} declares {data_len} payload bytes but shape "
            f"{tuple(shape)} x {dtype} needs {expected}"
        )
    need(data_len, "payload")
    arr = np.frombuffer(view[offset : offset + data_len], dtype=dtype)
    return offset + data_len, name, arr.reshape(shape)


def read_frame(read, max_bytes: int = DEFAULT_MAX_BYTES):
    """Pull one frame out of a ``read(n) -> bytes`` stream.

    Returns ``(meta, tensors)``, or ``None`` on clean end-of-stream
    (zero bytes available where a header would start).  A stream that
    ends *inside* a frame raises :class:`WireError`.  This is how the
    client walks a chunked streaming response: the HTTP codec's
    ``Response.read`` strips the transfer framing and returns each chunk
    as soon as it arrives, and the frame's ``body_len`` field restores
    message boundaries.
    """
    header = _read_exact(read, _HEADER.size, allow_empty=True)
    if header is None:
        return None
    n_tensors, meta_len, body_len = _parse_header(header)
    if body_len > max_bytes:
        raise WireError(
            f"frame body of {body_len} bytes exceeds the {max_bytes}-byte cap"
        )
    body = _read_exact(read, body_len)
    return _decode_body(memoryview(body), n_tensors, meta_len)


def _read_exact(read, n: int, allow_empty: bool = False):
    """Read exactly ``n`` bytes (short reads looped); WireError on EOF."""
    chunks: "list[bytes]" = []
    got = 0
    while got < n:
        chunk = read(n - got)
        if not chunk:
            if allow_empty and got == 0:
                return None
            raise WireError(
                f"stream ended mid-frame ({got} of {n} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


# -- NPY codec --------------------------------------------------------------

def encode_npy(arr: np.ndarray) -> bytes:
    """One tensor as a standard NPY buffer (C-contiguous, no pickle)."""
    arr = np.asarray(arr)
    if not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    dtype_code(arr.dtype)  # same whitelist as frames
    out = io.BytesIO()
    np.lib.format.write_array(out, arr, version=(1, 0), allow_pickle=False)
    return out.getvalue()


def decode_npy(
    buf: "bytes | bytearray | memoryview",
    max_bytes: int = DEFAULT_MAX_BYTES,
) -> np.ndarray:
    """Decode an NPY body into a zero-copy C-contiguous (read-only) array.

    Stricter than :func:`numpy.load`: the dtype must be on the wire
    whitelist (no object/pickle payloads), the array must be C-ordered,
    and the payload length must match the header's shape exactly -
    truncated and padded bodies raise :class:`WireError`.
    """
    view = memoryview(buf)
    if len(view) > max_bytes + 128:  # header slack; payload re-checked below
        raise WireError(
            f"NPY body of {len(view)} bytes exceeds the {max_bytes}-byte cap"
        )
    stream = io.BytesIO(bytes(view[:1024]))  # header lives in the first KiB
    try:
        version = np.lib.format.read_magic(stream)
        if version == (1, 0):
            header = np.lib.format.read_array_header_1_0(stream)
        elif version == (2, 0):
            header = np.lib.format.read_array_header_2_0(stream)
        else:
            raise WireError(f"unsupported NPY version {version}")
        shape, fortran_order, dtype = header
    except WireError:
        raise
    except Exception as exc:
        raise WireError(f"bad NPY header: {exc}") from None
    dtype_code(dtype)  # whitelist (rejects object/structured dtypes)
    if fortran_order:
        raise WireError("Fortran-ordered NPY bodies are not accepted; "
                        "send a C-contiguous array")
    if len(shape) > MAX_NDIM:
        raise WireError(f"NPY ndim {len(shape)} > {MAX_NDIM}")
    data_start = stream.tell()
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if shape \
        else dtype.itemsize
    if expected > max_bytes:
        raise WireError(
            f"NPY payload of {expected} bytes exceeds the {max_bytes}-byte cap"
        )
    actual = len(view) - data_start
    if actual != expected:
        kind = "truncated" if actual < expected else "oversized"
        raise WireError(
            f"{kind} NPY payload: {actual} bytes for shape {tuple(shape)} "
            f"x {dtype} (expected {expected})"
        )
    arr = np.frombuffer(view[data_start:], dtype=dtype)
    return arr.reshape(shape)
