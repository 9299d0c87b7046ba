"""Vectorized count-domain SCONNA execution engine.

The functional simulator's hot path is the count-domain SC matmul: for
every output channel ``l`` and output pixel ``p`` it needs the psum-group
sums ``sum_q floor(a_q * |w_lq| / 2**B)``, sign-split into the positive
and negative PCA accumulations.  The seed implementation walked output
channels in a Python loop (kept below as
:func:`sconna_matmul_reference`); this module replaces it with a fully
vectorized engine.

**Native floor sums.**  For ``B <= 8`` the sums come from one integer
pass per psum group: the C kernels of :mod:`repro.utils.native` floor
each product with a 16-bit multiply-high and write the sign-split
counts as float64 straight into the buffer the ADC noise reads.  One
rule, :meth:`SconnaEngine.remainder_kernel`, picks the kernel from the
output-pixel count.  After every kernel, one more native pass per group
applies the counter-based ADC noise stream and folds the sign-split
counts into the layer output.

**The NumPy fallback: the floor-decomposition identity.**  Without the
native library (or for ``B > 8``) the engine uses, for non-negative
integers,

.. math::

    \\sum_q \\lfloor a_q w_q / 2^B \\rfloor
      = \\Big( \\sum_q a_q w_q \\;-\\; \\sum_q (a_q w_q \\bmod 2^B) \\Big)
        \\, / \\, 2^B

so the per-product floor division - the one thing that kept the kernel
from being a matmul - splits into

* a **BLAS matmul** ``sum_q a_q w_q`` over sign-split weight magnitudes
  (run in float64, exact for integer sums below ``2**53``), and
* a **remainder reduction** ``sum_q (a_q w_q mod 2**B)``.  Because
  ``x*y mod 2**k`` is the natural wraparound of k-bit machine
  multiplication, the remainder term is a chunked uint8/uint16
  low-bits broadcast.

Both paths compute the same exact integers, so they are bit-identical.

A :class:`SconnaLayerPlan` caches everything derivable from the weights
(sign-split magnitudes, low bits, psum-group slices, dtype choices) so a
layer pays the preparation cost once at quantization time, not per
forward pass.  :class:`SconnaEngine` adds reusable activation/workspace
buffers on top.

The oracle is the seed per-channel loop, :func:`sconna_matmul_reference`.
It draws the per-psum-group ADC noise over the same stacked
``(B, 2L, P)`` ``[pos; neg]`` counts as the engine, at the same stream
positions, so the two agree bit for bit under any seeded error model,
not only the ideal one.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SconnaConfig
from repro.photonics.converters import AdcDraw
from repro.stochastic.error_models import SconnaErrorModel
from repro.utils import native

#: elements per chunk of the NumPy fallback's remainder broadcast
_REM_CHUNK_ELEMS = 1 << 24


def psum_group_size(config: SconnaConfig) -> int:
    """Kernel-vector points accumulated per electrical psum readout."""
    return config.vdpe_size * config.pca_accumulation_passes


def vector_path_supported(precision_bits: int, group: int) -> bool:
    """Is the vectorized engine exact for this (B, group) combination?

    Three requirements: the low-bits layout fits uint16 (B <= 16), the
    BLAS term's per-group integer sums stay below float64's 2**53 exact
    range, and the remainder sums fit int32 (so the native kernels'
    uint32 floor sums, at most ``group * 2**8``, cannot wrap either).
    Every paper configuration
    qualifies by orders of magnitude; callers fall back to
    :func:`sconna_matmul_reference` otherwise.
    """
    mask = (1 << precision_bits) - 1
    return (
        precision_bits <= 16
        and group * (1 << (2 * precision_bits)) < 2**53
        and group * mask < 2**31
    )


@dataclass
class SconnaLayerPlan:
    """Compiled per-layer constants for the vectorized engine.

    Built once from the quantized weights (see :func:`compile_layer_plan`)
    and reused by every forward pass.
    """

    precision_bits: int
    group: int                       #: psum-group size in vector points
    n_out: int                       #: L - output channels
    n_in: int                        #: Q - flattened kernel length
    w_stacked: np.ndarray            #: (2L, Q) float64 [pos mags; neg mags]
    w_float: np.ndarray              #: (L, Q) float64 signed weights
    w_lo: np.ndarray                 #: (2L, Q) low bits of the magnitudes
    group_slices: "list[slice]" = field(default_factory=list)
    #: (2L, Q) uint16 magnitudes << (15 - B), the native floor-sum
    #: kernels' weight operand (B <= 8 only; None otherwise)
    w_mulhi: "np.ndarray | None" = None

    @property
    def shift(self) -> int:
        return self.precision_bits

    @property
    def mask(self) -> int:
        return (1 << self.precision_bits) - 1

    @property
    def lo_dtype(self) -> np.dtype:
        return self.w_lo.dtype

    @property
    def native_eligible(self) -> bool:
        """The C kernels' multiply-high identity needs B <= 8."""
        return self.w_mulhi is not None


def compile_layer_plan(
    w_flat: np.ndarray, precision_bits: int, group: int
) -> SconnaLayerPlan:
    """Precompute the weight-side constants of the vectorized kernel.

    ``w_flat``: ``(L, Q)`` signed integer weights with magnitudes in
    ``[0, 2**B]``; ``group``: psum-group size (vdpe_size x accumulation
    passes).
    """
    if w_flat.ndim != 2:
        raise ValueError("w_flat must be 2-D (L, Q)")
    if group < 1:
        raise ValueError("group must be >= 1")
    if not vector_path_supported(precision_bits, group):
        raise ValueError(
            f"vectorized engine is not exact for B={precision_bits}, "
            f"group={group}; use sconna_matmul_reference"
        )
    l, q = w_flat.shape
    w_mag = np.abs(w_flat).astype(np.int64)
    if (w_mag > (1 << precision_bits)).any():
        raise ValueError(f"|weights| must lie in [0, {1 << precision_bits}]")
    w_stacked = np.ascontiguousarray(
        np.concatenate(
            [np.where(w_flat > 0, w_mag, 0), np.where(w_flat < 0, w_mag, 0)],
            axis=0,
        ).astype(np.float64)
    )
    lo_dtype = np.uint8 if precision_bits <= 8 else np.uint16
    mask = (1 << precision_bits) - 1
    # casting wraps mod 2**{8,16}; both are multiples of 2**B, so the
    # subsequent & mask yields the exact mod-2**B low bits.
    w_lo = np.ascontiguousarray(w_stacked.astype(np.int64).astype(lo_dtype))
    w_lo &= lo_dtype(mask)
    slices = [slice(s, min(s + group, q)) for s in range(0, q, group)]
    return SconnaLayerPlan(
        precision_bits=precision_bits,
        group=group,
        n_out=l,
        n_in=q,
        w_stacked=w_stacked,
        w_float=np.ascontiguousarray(w_flat.astype(np.float64)),
        w_lo=w_lo,
        group_slices=slices,
        w_mulhi=native.mulhi_weights(w_stacked, precision_bits),
    )


class _BufferPool:
    """Reusable scratch arrays keyed by (tag, shape, dtype), LRU-bounded.

    Forward passes over fixed-shape batches re-run the same layer
    geometry thousands of times during a Table V / Fig. 9 sweep; keeping
    one buffer per (tag, shape) avoids a fresh large allocation (and the
    page-zeroing behind it) on every call.  Shapes cycle layer-by-layer
    within a forward pass, so each tag keeps the most recent
    ``max_per_tag`` shapes and evicts older ones - a ragged final batch
    or a batch-size sweep cannot grow the pool without bound.
    """

    def __init__(self, max_per_tag: int = 16) -> None:
        from collections import OrderedDict

        self.max_per_tag = max_per_tag
        self._bufs: "dict[str, OrderedDict]" = {}
        self._odict = OrderedDict

    def get(self, tag: str, shape: tuple, dtype) -> np.ndarray:
        per_tag = self._bufs.setdefault(tag, self._odict())
        key = (shape, np.dtype(dtype))
        buf = per_tag.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            per_tag[key] = buf
            while len(per_tag) > self.max_per_tag:
                per_tag.popitem(last=False)
        else:
            per_tag.move_to_end(key)
        return buf

    def clear(self) -> None:
        self._bufs.clear()


class SconnaEngine:
    """Vectorized count-domain executor with reusable workspaces.

    One engine per :class:`~repro.cnn.inference.QuantizedModel`; it is
    stateless apart from scratch buffers, so results do not depend on
    call history.  Buffer ownership is **per thread**: each thread that
    runs a forward pass gets (and keeps, warm) its own
    :class:`_BufferPool`, so concurrent calls into one engine - the
    serving worker pool's steady state - never share workspaces.  A
    worker's first batch pays the allocation cost once; every later
    batch of the same geometry reuses the warm buffers.
    """

    def __init__(self, use_native: bool = True) -> None:
        self.use_native = use_native
        self._local = threading.local()
        self._native_ready: "bool | None" = None

    # An engine is stateless apart from per-thread scratch buffers, so it
    # pickles as configuration only: a copy that crosses a process
    # boundary (multi-process serving shards) arrives cold and rebuilds
    # its thread-local pools - and its compiled plans' native-kernel
    # binding - on first use in the new process.
    def __getstate__(self) -> dict:
        return {"use_native": self.use_native}

    def __setstate__(self, state: dict) -> None:
        self.use_native = state["use_native"]
        self._local = threading.local()
        self._native_ready = None

    @property
    def pool(self) -> _BufferPool:
        """This thread's private scratch-buffer pool (created lazily)."""
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = _BufferPool()
            self._local.pool = pool
        return pool

    # -- main kernel -----------------------------------------------------
    def remainder_kernel(self, plan: SconnaLayerPlan, p: int) -> str:
        """The count kernel for ``plan`` at ``p`` output pixels.

        The one kernel rule: ``cols`` (native floor sums vectorised over
        pixels) for P >= 8; ``split`` (native floor sums along the
        contraction rows) for P < 8, where too few pixels fill a vector;
        ``numpy`` (BLAS matmul less the chunked remainder broadcast)
        when the native library is disabled or missing, or B > 8.  All
        three compute the same exact integer sums.
        """
        ready = self._native_ready
        if ready is None:
            # memoized: the library load outcome is stable for the
            # process lifetime, and the per-call env check was hot.  A
            # later REPRO_NATIVE=0 still takes effect for correctness -
            # the kernel wrapper re-checks and the engine falls back.
            ready = self._native_ready = native.native_available()
        if not (self.use_native and ready and plan.native_eligible):
            return "numpy"
        return "cols" if p >= 8 else "split"

    def matmul(
        self,
        plan: SconnaLayerPlan,
        cols: np.ndarray,
        error_model: SconnaErrorModel | None = None,
        *,
        draw: "AdcDraw | None" = None,
        layer: int = 0,
        out: "np.ndarray | None" = None,
        profile: "list | None" = None,
    ) -> np.ndarray:
        """Count-domain SC matmul with per-psum-group ADC error.

        ``cols``: ``(B, Q, P)`` unsigned integer activations in
        ``[0, 2**B]``; C-contiguous uint16 columns (the fused path's
        im2col dtype) reach the ``cols`` kernel, and FC columns
        (P = 1) the ``split`` kernel, without a copy.  Returns float64
        ``(B, L, P)`` signed counts, bit-exact with
        :func:`sconna_matmul_reference`.

        ``out`` (optional) is a preallocated C-contiguous float64
        ``(B, L, P)`` result buffer.  ``profile`` (optional) collects
        ``(name, start_s, end_s, tags)`` timing tuples: one
        ``engine.matmul`` span per psum group tagged with the kernel
        ``kind``, an ``engine.remainder`` span on the NumPy path, and the
        ADC-noise draw; timing reads the clock around unchanged
        arithmetic, so results stay bit-identical with profiling on or
        off.

        ``draw`` places the batch's images in their ADC noise streams
        (a forward reserves it once for every layer; taken from
        ``error_model`` here when omitted) and ``layer`` is this layer's
        index in the model.  Each group's noise is one
        ``error_model.apply_to_counts(counts, fold=out)`` call, which
        folds the noisy counts into ``out`` at the oracle's stream
        positions, so the oracle's bits.
        """
        b, q, p = cols.shape
        if q != plan.n_in:
            raise ValueError(f"cols Q={q} does not match plan Q={plan.n_in}")
        l = plan.n_out
        if draw is None and error_model is not None and not error_model.ideal():
            draw = error_model.draw(b)

        kind = self.remainder_kernel(plan, p)
        a = None if kind == "numpy" else self._kernel_operand(cols, kind)
        af = a_lo = rem = None  # the NumPy path's operands, on first use
        s = self.pool.get("s", (b, 2 * l, p), np.float64)
        if out is None:
            out = np.zeros((b, l, p), dtype=np.float64)
        else:
            out.fill(0.0)
        clock = time.monotonic
        for gi, sl in enumerate(plan.group_slices):
            t0 = clock() if profile is not None else 0.0
            if a is not None and native.floor_group_sums(
                kind, a, plan.w_mulhi, sl.start, sl.stop, s
            ):
                if profile is not None:
                    profile.append(("engine.matmul", t0, clock(), {"kind": kind}))
            else:
                # the NumPy decomposition: BLAS term less the remainder
                if af is None:
                    af, a_lo = self._load_activations(plan, cols)
                    rem = self.pool.get("rem", (b, 2 * l, p), np.int32)
                np.matmul(plan.w_stacked[None, :, sl], af[:, sl, :], out=s)
                if profile is not None:
                    t1 = clock()
                    profile.append(("engine.matmul", t0, t1, {"kind": "numpy"}))
                    t0 = t1
                _remainder_fallback(a_lo, plan.w_lo, sl, plan.mask, rem)
                if profile is not None:
                    profile.append(("engine.remainder", t0, clock(),
                                    {"kind": "numpy"}))
                np.subtract(s, rem, out=s)
                s *= 1.0 / (1 << plan.shift)  # exact: a multiple of 2**B
            if draw is None:
                out += s[:, :l, :]
                out -= s[:, l:, :]
                continue
            t0 = clock() if profile is not None else 0.0
            error_model.apply_to_counts(
                s, draw=draw, layer=layer, group=gi, fold=out
            )
            if profile is not None:
                profile.append(("engine.noise", t0, clock(), {}))
        return out

    def _kernel_operand(self, cols: np.ndarray, kind: str) -> np.ndarray:
        """``cols`` as the C-contiguous uint16 operand of ``kind``'s
        kernel: ``(B, Q, P)`` for ``cols``, ``(B, P, Q)`` for ``split``.
        A ``(B, Q, 1)`` FC column is already ``(B, 1, Q)`` in memory."""
        b, q, p = cols.shape
        if kind == "split":
            cols = cols.reshape(b, 1, q) if p == 1 else cols.transpose(0, 2, 1)
        if cols.dtype == np.uint16 and cols.flags.c_contiguous:
            return cols
        a = self.pool.get("a16", cols.shape, np.uint16)
        np.copyto(a, cols, casting="unsafe")
        return a

    def _load_activations(
        self, plan: SconnaLayerPlan, cols: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """The NumPy path's pooled operands: exact float64 columns for the
        BLAS term, masked low bits in the ``(B, P, Q)`` row layout for
        the remainder term."""
        b, q, p = cols.shape
        af = self.pool.get("af", (b, q, p), np.float64)
        np.copyto(af, cols)
        lo_dtype = plan.lo_dtype
        a_lo = self.pool.get("a_lo", (b, p, q), lo_dtype)
        np.copyto(a_lo, cols.transpose(0, 2, 1), casting="unsafe")
        if plan.mask != (1 << (8 * lo_dtype.itemsize)) - 1:
            a_lo &= lo_dtype.type(plan.mask)
        return af, a_lo


def _remainder_fallback(
    a_lo: np.ndarray,
    w_lo: np.ndarray,
    sl: slice,
    mask: int,
    out: np.ndarray,
) -> None:
    """Pure-NumPy remainder reduction (chunked over output pixels).

    Broadcast-multiplies the low bits with natural wraparound (machine
    multiplication *is* modular), masks down to ``2**B``, and widens to
    int32 sums.  Chunked over the P axis so the intermediate stays
    cache-sized.
    """
    b, p, _ = a_lo.shape
    l2, qg = w_lo.shape[0], sl.stop - sl.start
    wl = w_lo[None, :, None, sl]
    lo_dtype = a_lo.dtype
    masked = mask != np.iinfo(lo_dtype).max
    chunk = max(1, _REM_CHUNK_ELEMS // max(1, b * l2 * qg))
    for ps in range(0, p, chunk):
        psl = slice(ps, min(ps + chunk, p))
        r = a_lo[:, None, psl, sl] * wl
        if masked:
            r &= lo_dtype.type(mask)
        # accumulate in int32 to match the buffer dtype: the sums are
        # bounded by group * mask < 2**31 (vector_path_supported), so
        # int32 cannot overflow and the assignment never wraps through
        # an unsigned intermediate.
        out[:, :, psl] = r.sum(axis=-1, dtype=np.int32)


def sconna_matmul_reference(
    cols: np.ndarray,
    w_flat: np.ndarray,
    precision_bits: int,
    group: int,
    error_model: SconnaErrorModel | None = None,
    *,
    draw: "AdcDraw | None" = None,
    layer: int = 0,
) -> np.ndarray:
    """The seed per-output-channel implementation: the golden oracle.

    The per-layer ``forward(..., fused=False)`` path runs on it, and so
    do configurations outside the vectorized engine's exactness
    envelope.  ``cols``: (B, Q, P) unsigned activations; ``w_flat``:
    (L, Q) signed weights.  Returns float (B, L, P) signed counts.

    The ADC noise is drawn once per psum group over the stacked
    ``[pos; neg]`` ``(B, 2L, P)`` counts at ``draw``'s stream positions
    for ``layer`` (as in :meth:`SconnaEngine.matmul`), so a seeded error
    model gives both the same bits.
    """
    b, q, p = cols.shape
    l, q_w = w_flat.shape
    if q != q_w:
        raise ValueError(f"cols Q={q} does not match weights Q={q_w}")
    if draw is None and error_model is not None and not error_model.ideal():
        draw = error_model.draw(b)
    shift = precision_bits
    w_mag = np.abs(w_flat)
    w_pos = w_flat > 0
    out = np.zeros((b, l, p), dtype=np.float64)
    for gi, start in enumerate(range(0, q, group)):
        sl = slice(start, min(start + group, q))
        a_chunk = cols[:, sl, :]
        counts = np.empty((b, 2 * l, p), dtype=np.int64)  # [pos; neg]
        for li in range(l):
            prods = (a_chunk * w_mag[li, sl][None, :, None]) >> shift
            mask = w_pos[li, sl][None, :, None]
            counts[:, li, :] = (prods * mask).sum(axis=1)
            counts[:, l + li, :] = (prods * ~mask).sum(axis=1)
        if draw is not None:
            counts = error_model.apply_to_counts(
                counts, draw=draw, layer=layer, group=gi
            )
        out += counts[:, :l].astype(np.float64) - counts[:, l:].astype(np.float64)
    return out
