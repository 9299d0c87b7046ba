"""Vectorized count-domain SCONNA execution engine.

The functional simulator's hot path is the count-domain SC matmul: for
every output channel ``l`` and output pixel ``p`` it needs the psum-group
sums ``sum_q floor(a_q * |w_lq| / 2**B)``, sign-split into the positive
and negative PCA accumulations.  The seed implementation walked output
channels in a Python loop (kept below as
:func:`sconna_matmul_reference`); this module replaces it with a fully
vectorized engine built on an exact algebraic decomposition.

**The floor-decomposition identity.**  For non-negative integers,

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
  multiplication, the remainder term is a fused low-bits
  multiply-accumulate.  One rule, :meth:`SconnaEngine.remainder_kernel`,
  picks its kernel from the output-pixel count: a native C kernel
  (:mod:`repro.utils.native`) when available, a chunked uint8/uint16
  broadcast in pure NumPy otherwise.  All are bit-identical.

A :class:`SconnaLayerPlan` caches everything derivable from the weights
(sign-split magnitudes, low bits, psum-group slices, dtype choices) so a
layer pays the preparation cost once at quantization time, not per
forward pass.  :class:`SconnaEngine` adds reusable activation/workspace
buffers on top.

The oracle is the seed per-channel loop, :func:`sconna_matmul_reference`.
It draws the per-psum-group ADC noise over the same stacked
``(B, 2L, P)`` ``[pos; neg]`` counts as the engine, so the two agree
bit for bit under any seeded error model, not only the ideal one.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SconnaConfig
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
    range, and the remainder sums fit int32.  Every paper configuration
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
    #: (L, Q) uint8 low bits of |w| for the sign-split remainder kernel
    #: (B <= 8 layouts only; None otherwise)
    w_mag_lo: "np.ndarray | None" = None
    #: (L, Q) uint8 steering mask, 0xFF where w > 0 (None when B > 8)
    w_pos_mask: "np.ndarray | None" = None

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
        """The C kernels handle the uint8 (B <= 8) layout only."""
        return self.w_lo.dtype == np.uint8


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
    w_mag_lo = w_pos_mask = None
    if lo_dtype == np.uint8:
        w_mag_lo = np.ascontiguousarray(w_mag.astype(np.uint8) & np.uint8(mask))
        w_pos_mask = np.ascontiguousarray(
            np.where(w_flat > 0, 0xFF, 0).astype(np.uint8)
        )
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
        w_mag_lo=w_mag_lo,
        w_pos_mask=w_pos_mask,
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
        """The remainder kernel for ``plan`` at ``p`` output pixels.

        The one kernel rule: ``cols`` (column-layout C kernel,
        vectorised over pixels) for P >= 8; ``split`` (one-pass
        sign-split C kernel over contraction rows) for P < 8, where too
        few pixels fill a vector; ``numpy`` (chunked broadcast) when the
        native kernel is disabled or missing, or the plan needs the
        uint16 low-bits layout (B > 8).  All three compute the same
        exact integer sums.
        """
        ready = self._native_ready
        if ready is None:
            # memoized: the library load outcome is stable for the
            # process lifetime, and the per-call env check was hot.  A
            # later REPRO_NATIVE=0 still takes effect for correctness -
            # the kernel wrappers re-check and fall back to NumPy.
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
        out: "np.ndarray | None" = None,
        profile: "list | None" = None,
    ) -> np.ndarray:
        """Count-domain SC matmul with per-psum-group ADC error.

        ``cols``: ``(B, Q, P)`` unsigned integer activations.  Returns
        float64 ``(B, L, P)`` signed counts, bit-exact with
        :func:`sconna_matmul_reference`.

        ``out`` (optional) is a preallocated float64 ``(B, L, P)`` result
        buffer.  ``profile`` (optional) collects
        ``(name, start_s, end_s, tags)`` timing tuples for the BLAS and
        remainder terms and the ADC-noise draw; timing reads the clock
        around unchanged arithmetic, so results stay bit-identical with
        profiling on or off.

        The noise is drawn with ``error_model.apply_to_counts(counts,
        out=...)`` into a pooled buffer, in place: the same generator
        calls as the oracle's allocating form, so the same bits.
        """
        b, q, p = cols.shape
        if q != plan.n_in:
            raise ValueError(f"cols Q={q} does not match plan Q={plan.n_in}")
        l = plan.n_out
        apply_error = error_model is not None and not error_model.ideal()

        kind = self.remainder_kernel(plan, p)
        af, a_lo = self._load_activations(plan, cols, kind)
        rem = self.pool.get("rem", (b, 2 * l, p), np.int32)
        s_buf = self.pool.get("s", (b, 2 * l, p), np.float64)
        if apply_error:
            noisy = self.pool.get("noise", (b, 2 * l, p), np.float64)
        if out is None:
            out = np.zeros((b, l, p), dtype=np.float64)
        else:
            out.fill(0.0)
        inv_scale = 1.0 / (1 << plan.shift)
        for sl in plan.group_slices:
            # BLAS term: exact integer sums in float64.
            t0 = time.monotonic() if profile is not None else 0.0
            s = np.matmul(plan.w_stacked[None, :, sl], af[:, sl, :], out=s_buf)
            if profile is not None:
                t1 = time.monotonic()
                profile.append(("engine.matmul", t0, t1, {}))
                t0 = t1
            # remainder term: fused native kernel or chunked broadcast.
            self._remainder(plan, a_lo, sl, rem, kind)
            if profile is not None:
                profile.append(("engine.remainder", t0, time.monotonic(),
                                {"kind": kind}))
            np.subtract(s, rem, out=s)
            s *= inv_scale  # exact: s - rem is a multiple of 2**B
            if apply_error:
                t0 = time.monotonic() if profile is not None else 0.0
                s = error_model.apply_to_counts(s, out=noisy)
                if profile is not None:
                    profile.append(("engine.noise", t0, time.monotonic(), {}))
            out += s[:, :l, :]
            out -= s[:, l:, :]
        return out

    def matmul_ideal(
        self,
        plan: SconnaLayerPlan,
        cols: np.ndarray,
        *,
        out: "np.ndarray | None" = None,
        profile: "list | None" = None,
    ) -> np.ndarray:
        """Ideal-datapath SC matmul: half the BLAS and remainder work.

        With no error model the sign-split stacks collapse: the counts
        are ``(S_pos - R_pos - S_neg + R_neg) / 2**B`` where
        ``S_pos - S_neg`` is a single *signed* L-row matmul (instead of
        the stacked 2L rows, half of which multiply structural zeros)
        and ``R_pos - R_neg`` comes from the one-pass sign-split
        remainder kernel.  Every term is an exact integer below 2**53 and
        the result is a multiple of ``2**-B``, so this is bit-identical
        to ``matmul(plan, cols, error_model=None)`` - locked by
        ``tests/test_cnn_engine.py``.  An active error model needs the
        full stacked counts for its noise draw, so noisy callers must use
        :meth:`matmul`.
        """
        b, q, p = cols.shape
        if q != plan.n_in:
            raise ValueError(f"cols Q={q} does not match plan Q={plan.n_in}")
        l = plan.n_out

        kind = self.remainder_kernel(plan, p)
        af, a_lo = self._load_activations(plan, cols, kind)
        rem = self.pool.get("rem", (b, 2 * l, p), np.int32)
        s_buf = self.pool.get("s_signed", (b, l, p), np.float64)
        if out is None:
            out = np.empty((b, l, p), dtype=np.float64)
        single = len(plan.group_slices) == 1
        if not single:
            out.fill(0.0)
        inv_scale = 1.0 / (1 << plan.shift)
        for sl in plan.group_slices:
            t0 = time.monotonic() if profile is not None else 0.0
            s = np.matmul(plan.w_float[None, :, sl], af[:, sl, :], out=s_buf)
            if profile is not None:
                t1 = time.monotonic()
                profile.append(("engine.matmul", t0, t1, {}))
                t0 = t1
            self._remainder(plan, a_lo, sl, rem, kind)
            if profile is not None:
                profile.append(("engine.remainder", t0, time.monotonic(),
                                {"kind": kind}))
            np.subtract(s, rem[:, :l, :], out=s)
            s += rem[:, l:, :]
            if single:
                np.multiply(s, inv_scale, out=out)
            else:
                s *= inv_scale
                out += s
        return out

    def _load_activations(
        self, plan: SconnaLayerPlan, cols: np.ndarray, kind: str
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-call activation views from the pool: exact float64 for the
        BLAS term, low bits for the remainder term.  Row-contraction
        kernels want the low bits transposed to ``(B, P, Q)``; the
        ``cols`` kernel consumes the native ``(B, Q, P)`` layout and so
        skips the transposed copy."""
        b, q, p = cols.shape
        if cols.dtype == np.float64 and cols.flags.c_contiguous:
            # the fused graph path gathers columns straight into a
            # float64 arena buffer: it already *is* the exact BLAS
            # operand (integer-valued, <= 2**B < 2**53), so skip the copy
            af = cols
        else:
            af = self.pool.get("af", (b, q, p), np.float64)
            np.copyto(af, cols)
        lo_dtype = plan.lo_dtype
        if kind == "cols":
            a_lo = self.pool.get("a_lo_cols", (b, q, p), lo_dtype)
            np.copyto(a_lo, cols, casting="unsafe")
        else:
            a_lo = self.pool.get("a_lo", (b, p, q), lo_dtype)
            np.copyto(a_lo, cols.transpose(0, 2, 1), casting="unsafe")
        if plan.mask != (1 << (8 * lo_dtype.itemsize)) - 1:
            a_lo &= lo_dtype.type(plan.mask)
        return af, a_lo

    def _remainder(
        self,
        plan: SconnaLayerPlan,
        a_lo: np.ndarray,
        sl: slice,
        rem: np.ndarray,
        kind: str,
    ) -> None:
        """Fill ``rem`` for the group ``sl`` with ``kind``'s kernel (see
        :meth:`remainder_kernel`); ``a_lo`` is in that kernel's layout.
        Every kernel produces identical int32 sums, so a native kernel
        that is gone by call time (``REPRO_NATIVE=0`` set mid-process)
        falls back to NumPy without changing a bit.
        """
        mask = plan.mask
        if kind == "cols":
            if native.remainder_group_sums_cols(
                a_lo, plan.w_mag_lo, plan.w_pos_mask,
                sl.start, sl.stop, mask, rem,
            ):
                return
            # the NumPy fallback wants the (B, P, Q) row layout
            a_lo = a_lo.transpose(0, 2, 1)
        elif kind == "split" and native.remainder_group_sums_split(
            a_lo, plan.w_mag_lo, plan.w_pos_mask,
            sl.start, sl.stop, mask, rem,
        ):
            return
        _remainder_fallback(a_lo, plan.w_lo, sl, mask, rem)


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
) -> np.ndarray:
    """The seed per-output-channel implementation: the golden oracle.

    The per-layer ``forward(..., fused=False)`` path runs on it, and so
    do configurations outside the vectorized engine's exactness
    envelope.  ``cols``: (B, Q, P) unsigned activations; ``w_flat``:
    (L, Q) signed weights.  Returns float (B, L, P) signed counts.

    The ADC noise is drawn once per psum group over the stacked
    ``[pos; neg]`` ``(B, 2L, P)`` counts - :meth:`SconnaEngine.matmul`'s
    draw order - so a seeded error model gives both the same bits.
    """
    b, q, p = cols.shape
    l, q_w = w_flat.shape
    if q != q_w:
        raise ValueError(f"cols Q={q} does not match weights Q={q_w}")
    shift = precision_bits
    w_mag = np.abs(w_flat)
    w_pos = w_flat > 0
    out = np.zeros((b, l, p), dtype=np.float64)
    for start in range(0, q, group):
        sl = slice(start, min(start + group, q))
        a_chunk = cols[:, sl, :]
        counts = np.empty((b, 2 * l, p), dtype=np.int64)  # [pos; neg]
        for li in range(l):
            prods = (a_chunk * w_mag[li, sl][None, :, None]) >> shift
            mask = w_pos[li, sl][None, :, None]
            counts[:, li, :] = (prods * mask).sum(axis=1)
            counts[:, l + li, :] = (prods * ~mask).sum(axis=1)
        if error_model is not None and not error_model.ideal():
            counts = error_model.apply_to_counts(counts)
        out += counts[:, :l].astype(np.float64) - counts[:, l:].astype(np.float64)
    return out
