"""Whole-network fused execution plans (graph-level compiler).

The per-layer path runs each quantized layer as an island: float64
activations flow between layers and every layer re-quantizes from
float.  This module compiles the whole layer sequence into a
:class:`NetworkPlan` - fused quantize -> im2col -> count-matmul ->
requantize chains with a single buffer-lifetime plan - and executes it
with inter-layer activations held in preallocated *integer* workspaces.

**Fusion rules (and why they are bit-exact).**  Activation quantization
is ``clip(rint(max(x, 0) / s), 0, levels)`` with a positive scale: a
monotone non-decreasing elementwise map.  Monotone maps commute with
max-pooling (``f(max(a, b)) == max(f(a), f(b))``) and absorb ReLU (the
lower clip already sends every negative input to 0).  So the fused path
requantizes *immediately* at each layer's output into an integer grid
and runs the inter-layer ReLU/MaxPool2d/Flatten ops in the integer
domain - bit-identical to the reference per-layer path, which pools in
float and re-quantizes at the next layer's input.  The dequantize ->
bias -> requantize chain between two matmuls replays the reference's
exact float64 op sequence (same values; in-place ops on a pooled
scratch), and the count matmuls themselves are exact integer sums, so
every count kernel produces the same bits.
``tests/test_cnn_graph_plan.py`` locks fused == per-layer for every
zoo model in int8 and sconna (ideal and seeded) modes.

**Buffer-lifetime plan.**  At shape-program build time the compiler
walks the step sequence (entry quantize, integer pools, im2col, count
matmul, requantize emit), assigns every intermediate a byte-arena slot
with linear-scan liveness (a slot is recycled as soon as its last
reader finishes), and records the per-slot capacities.  At run time the
slots are thread-local pooled buffers (:class:`~repro.cnn.engine._BufferPool`
tags ``gp<slot>``), so a steady-state forward pass performs **no
tensor-sized allocations**: integer grids, column buffers, and count
buffers all live in the arena; the engine's own workspaces (the
``s`` counts, the noise draw, and the NumPy path's operands) are pooled
by the engine itself.

**Kernel rule.**  A sconna stage gathers its im2col columns in the
uint16 grid dtype, and its count kernel comes from the engine's shape
rule (:meth:`~repro.cnn.engine.SconnaEngine.remainder_kernel`: native
floor sums over pixels for P >= 8 output pixels, along the contraction
below, a BLAS decomposition in NumPy without the native library).  With
the native library a sconna forward makes no BLAS call; an int8 count
matmul is one BLAS call.  No timing pass runs at plan time.  The picks
are recorded, not persisted, in the model's ``autotune`` dict so
benchmarks and operators can see what runs.

**Request-parallel execution.**  :meth:`NetworkPlan.try_execute` cuts
a noisy per-request batch between requests into image-balanced chunks
and runs them at once on helper threads, within the process-wide
:data:`CORE_BUDGET`.  Each chunk runs the shape program of its own
size, and no request's rows depend on another's, so the concatenated
logits are the unsplit forward's bits.

The per-layer path in :class:`~repro.cnn.inference.QuantizedModel` is
the oracle - quantize, im2col, exact integer contraction or
:func:`~repro.cnn.engine.sconna_matmul_reference`; ``forward(...,
fused=False)`` forces it.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from collections.abc import Sequence
from concurrent import futures
from dataclasses import dataclass, field

import numpy as np

from repro.cnn.functional import conv_output_hw, im2col, max_pool2d
from repro.cnn.micro import Flatten, MaxPool2d, ReLU
from repro.stochastic.error_models import PerRequestErrorModels
from repro.utils.cores import usable_cores


class _Unsupported(Exception):
    """This structure/shape/config cannot run fused; use the reference."""


@dataclass
class _Stage:
    """One quantized layer plus the monotone integer ops feeding it."""

    index: int                       #: position in model.structure
    layer: "object"                  #: the QuantLayer
    pre_ops: "list[tuple]" = field(default_factory=list)


@dataclass
class _BufRef:
    """A view spec into one arena slot.

    ``pad`` > 0 marks a *pre-padded* grid: ``shape`` includes a
    ``pad``-wide zero halo on both spatial axes, writers fill only the
    interior, and the consuming conv's im2col strides over the buffer
    directly with padding 0 - eliminating the per-forward ``np.pad``
    allocation (the halo zeros are exactly the zeros ``np.pad`` would
    have produced on the quantized grid).
    """

    slot: int
    shape: "tuple[int, ...]"
    dtype: np.dtype
    pad: int = 0
    idx: int = -1                    #: position in the program's ref list

    @property
    def nbytes(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n * np.dtype(self.dtype).itemsize


class _ArenaPlanner:
    """Linear-scan liveness allocation of byte-arena slots.

    ``take`` hands out a free slot (growing its capacity if needed) and
    ``give`` returns it; because program construction walks the steps in
    execution order, take/give pairs are exactly the buffer lifetimes
    and two live buffers can never share a slot.
    """

    def __init__(self) -> None:
        self.caps: "list[int]" = []
        self._free: "list[int]" = []
        self.n_buffers = 0

    def take(self, nbytes: int) -> int:
        self.n_buffers += 1
        if self._free:
            # prefer the smallest free slot that already fits, else the
            # largest (which then grows): keeps total capacity tight
            fitting = [s for s in self._free if self.caps[s] >= nbytes]
            slot = (
                min(fitting, key=lambda s: self.caps[s])
                if fitting
                else max(self._free, key=lambda s: self.caps[s])
            )
            self._free.remove(slot)
            self.caps[slot] = max(self.caps[slot], nbytes)
            return slot
        self.caps.append(nbytes)
        return len(self.caps) - 1

    def give(self, slot: int) -> None:
        self._free.append(slot)


@dataclass
class _StageExec:
    """Everything one fused stage needs at run time."""

    kind: str                        #: "conv" or "linear"
    layer: "object"
    plan: "object | None"            #: engine plan (sconna; None for int8)
    w_f: "np.ndarray | None"         #: (L, Q) float64 weights (int8 path)
    in_ref: _BufRef                  #: integer grid feeding this stage
    in_spatial: "tuple[int, ...]"    #: grid viewed as (b, c, h, w) / (b, q)
    cols_ref: "_BufRef | None"       #: gather target (None: grid reused)
    out_ref: _BufRef                 #: (b, l, p) float64 counts
    kernel: int = 0
    stride: int = 1
    padding: int = 0
    scale_eff: float = 1.0
    bias: "np.ndarray | None" = None
    #: requantize target: (next_scale, levels, grid_ref, spatial_shape),
    #: or None when this is the final stage
    requant: "tuple | None" = None
    pre_steps: "list[tuple]" = field(default_factory=list)


class _ShapeProgram:
    """A compiled step sequence for one (mode, input shape) pair."""

    def __init__(self, plan: "NetworkPlan", mode: str, in_shape: tuple):
        self.net = plan
        self.model = plan.model
        self.mode = mode
        self.in_shape = in_shape
        self.planner = _ArenaPlanner()
        levels = 1 << self.model.precision_bits
        self.grid_dtype = np.dtype(np.uint16 if levels <= 65535 else np.uint32)
        self.entry_params = plan.stages[0].layer.act_params
        self._luts: "dict[np.dtype, np.ndarray]" = {}
        self.stages: "list[_StageExec]" = []
        self.final_shape: "tuple[int, ...]" = ()
        self._refs: "list[_BufRef]" = []
        self._tls = threading.local()
        self._compile()

    # -- compilation -----------------------------------------------------
    def _compile(self) -> None:
        model, mode = self.model, self.mode
        bits = model.precision_bits
        b = self.in_shape[0]
        geom = tuple(self.in_shape[1:])
        take, give = self.planner.take, self.planner.give

        def ref(shape, dtype, pad=0):
            if pad:
                bb, cc, hh, ww = shape
                shape = (bb, cc, hh + 2 * pad, ww + 2 * pad)
            r = _BufRef(0, tuple(int(d) for d in shape), np.dtype(dtype), pad)
            r.slot = take(r.nbytes)
            r.idx = len(self._refs)
            self._refs.append(r)
            return r

        def feed_pad(si, remaining_pre_ops, out_geom):
            """Halo width to pre-bake into a grid created here: the
            consuming conv's padding when the grid flows straight into
            its im2col (no pooling in between), else 0."""
            if len(out_geom) != 3 or any(
                op[0] == "pool" for op in remaining_pre_ops
            ):
                return 0
            layer = self.net.stages[si].layer
            return layer.padding if layer.kind == "conv" else 0

        cur = ref(
            (b, *geom),
            self.grid_dtype,
            feed_pad(0, self.net.stages[0].pre_ops, geom),
        )
        self.entry_ref = cur
        n_stages = len(self.net.stages)
        picks: "dict[str, dict]" = {}
        for si, stage in enumerate(self.net.stages):
            pre_steps: "list[tuple]" = []
            for oi, op in enumerate(stage.pre_ops):
                if op[0] == "pool":
                    if len(geom) != 3:
                        raise _Unsupported("pool needs a (c, h, w) grid")
                    c, h, w = geom
                    k, s = op[1], op[2]
                    oh, ow = conv_output_hw(h, w, k, s, 0)
                    if oh < 1 or ow < 1:
                        raise _Unsupported("pool output is empty")
                    dst = ref(
                        (b, c, oh, ow),
                        self.grid_dtype,
                        feed_pad(
                            si, stage.pre_ops[oi + 1:], (c, oh, ow)
                        ),
                    )
                    pre_steps.append(("pool", cur, dst, k, s))
                    give(cur.slot)
                    cur, geom = dst, (c, oh, ow)
                elif op[0] == "flatten":
                    q = 1
                    for d in geom:
                        q *= d
                    geom = (q,)
                # ("relu",) is a no-op on an unsigned grid and is dropped
                # at parse time
            layer = stage.layer
            if layer.kind == "conv":
                if len(geom) != 3:
                    raise _Unsupported("conv needs a (c, h, w) grid")
                l, c_w, k, _ = layer.weight_q.shape
                c, h, w = geom
                if c != c_w:
                    raise _Unsupported("channel mismatch")
                oh, ow = conv_output_hw(h, w, k, layer.stride, layer.padding)
                if oh < 1 or ow < 1:
                    raise _Unsupported("conv output is empty")
                q_len, p = c * k * k, oh * ow
                out_geom = (l, oh, ow)
            else:
                if len(geom) != 1:
                    raise _Unsupported("linear needs a flattened grid")
                l, q_w = layer.weight_q.shape
                q_len, p = geom[0], 1
                if q_len != q_w:
                    raise _Unsupported("linear width mismatch")
                out_geom = (l,)

            plan = w_f = None
            if mode == "sconna":
                plan = model._plan_for(layer)
                if plan is None:
                    raise _Unsupported("outside the vectorized envelope")
                picks[f"{stage.index}:sconna"] = {
                    "q": q_len, "p": p,
                    "remainder": model._engine.remainder_kernel(plan, p),
                }
            else:
                # the float64 BLAS contraction is exact only below 2**53
                if q_len * (1 << (2 * bits)) >= 2**53:
                    raise _Unsupported("int8 contraction exceeds 2**53")
                w_f = (
                    layer.plan.w_float
                    if layer.plan is not None
                    else layer.weight_q.reshape(l, -1).astype(np.float64)
                )

            in_ref = cur
            in_spatial = cur.shape if layer.kind == "conv" else (b, *geom)
            cols_ref = None
            if layer.kind == "conv":
                # the im2col gather fuses the cast to each count
                # kernel's operand: float64 for int8's BLAS call, the
                # grid dtype for the sconna engine (used without a copy)
                cols_ref = ref(
                    (b, q_len, p),
                    np.float64 if mode == "int8" else self.grid_dtype,
                )
            elif mode == "int8":
                cols_ref = ref((b, q_len), np.float64)
            out_ref = ref((b, l, p), np.float64)
            # grid dies once its columns are gathered (or, when the grid
            # itself is the engine's column view, once the matmul has
            # read it); cols die after the matmul
            give(in_ref.slot)
            if cols_ref is not None:
                give(cols_ref.slot)

            scale = layer.act_params.scale * layer.weight_params.scale
            scale_eff = scale * (1 << bits) if mode == "sconna" else scale
            requant = None
            if si + 1 < n_stages:
                nxt = self.net.stages[si + 1].layer
                grid_ref = ref(
                    (b, *out_geom),
                    self.grid_dtype,
                    feed_pad(
                        si + 1, self.net.stages[si + 1].pre_ops, out_geom
                    ),
                )
                requant = (
                    nxt.act_params.scale,
                    float(nxt.act_params.levels),
                    grid_ref,
                    (b, *out_geom),
                )
                give(out_ref.slot)
                cur, geom = grid_ref, out_geom
            else:
                self.final_shape = (b, *out_geom)

            self.stages.append(
                _StageExec(
                    kind=layer.kind,
                    layer=layer,
                    plan=plan,
                    w_f=w_f,
                    in_ref=in_ref,
                    in_spatial=in_spatial,
                    cols_ref=cols_ref,
                    out_ref=out_ref,
                    kernel=k if layer.kind == "conv" else 0,
                    stride=layer.stride if layer.kind == "conv" else 1,
                    # a pre-padded input grid already carries the halo
                    padding=(
                        0
                        if in_ref.pad
                        else (layer.padding if layer.kind == "conv" else 0)
                    ),
                    scale_eff=scale_eff,
                    bias=layer.bias,
                    requant=requant,
                    pre_steps=pre_steps,
                )
            )
        # written once the whole program compiled; program builds are
        # serialized by the NetworkPlan lock
        model.autotune.update(picks)

    # -- execution -------------------------------------------------------
    def _resolved(self) -> "tuple[list, list]":
        """This thread's arena views, resolved once and cached.

        Deriving ~20 views per forward (pool lookup, byte-slice, dtype
        view, reshape) is measurable interpreter overhead, so the
        resolved arrays are cached per thread and revalidated each run
        by identity against the pool's slot buffers (the pool LRU-evicts
        per tag, so a slot's backing buffer can change under us).
        Returns ``(views, grids)`` indexed by ``_BufRef.idx``: the full
        buffer view and, for pre-padded grids, the interior writer view
        (identical otherwise).
        """
        pool = self.model._engine.pool
        caps = self.planner.caps
        bases = [
            pool.get(f"gp{i}", (caps[i],), np.uint8)
            for i in range(len(caps))
        ]
        tls = self._tls
        if getattr(tls, "bases", None) is not None and all(
            a is b for a, b in zip(bases, tls.bases)
        ):
            return tls.views, tls.grids
        views, grids = [], []
        for r in self._refs:
            v = bases[r.slot][: r.nbytes].view(r.dtype).reshape(r.shape)
            views.append(v)
            pd = r.pad
            grids.append(v[:, :, pd:-pd, pd:-pd] if pd else v)
        tls.bases, tls.views, tls.grids = bases, views, grids
        return views, grids

    def _lut_for(self, dtype: np.dtype) -> "np.ndarray | None":
        """Quantization lookup table for small integer input dtypes.

        Indexed by the input's raw bit pattern (via a zero-copy view to
        the matching unsigned type), so an int8/uint8/int16/uint16 batch
        quantizes with one gather and never materialises float64.  The
        table itself applies the reference's exact float op sequence per
        distinct value.
        """
        dtype = np.dtype(dtype)
        lut = self._luts.get(dtype)
        if lut is None:
            if dtype.kind not in "ui" or dtype.itemsize > 2:
                return None
            n = 1 << (8 * dtype.itemsize)
            raw = np.arange(n, dtype=np.int64)
            if dtype.kind == "i":
                raw = np.where(raw < n // 2, raw, raw - n)
            vals = raw.astype(np.float64)
            params = self.entry_params
            q = np.clip(
                np.rint(np.maximum(vals, 0.0) / params.scale),
                0.0,
                float(params.levels),
            )
            lut = q.astype(self.grid_dtype)
            self._luts[dtype] = lut
        return lut

    def run(
        self,
        x: np.ndarray,
        error_model: "object | None",
        profile: "list | None" = None,
    ) -> np.ndarray:
        # ``profile`` (optional) collects ``(name, start_s, end_s, tags)``
        # timing tuples per stage - quantize / pool / im2col / matmul /
        # requantize / tail, plus the engine's matmul / remainder /
        # noise spans, each but quantize and tail tagged with its stage
        # index - for the telemetry plane.  Clock reads wrap
        # unchanged arithmetic, so logits are bit-identical either way,
        # and a None profile adds one predicate per stage, nothing more.
        pool = self.model._engine.pool
        eng = self.model._engine
        views, grids = self._resolved()
        clock = time.monotonic

        def wgrid(ref):
            # writer view: pre-padded grids re-zero their halo (the
            # slot is pooled and may hold another program's bytes); the
            # memset replaces the reference's per-forward ``np.pad``
            if ref.pad:
                views[ref.idx].fill(0)
            return grids[ref.idx]

        grid = wgrid(self.entry_ref)
        t0 = clock() if profile is not None else 0.0
        lut = self._lut_for(x.dtype)
        if lut is not None:
            idx_dtype = np.uint8 if x.dtype.itemsize == 1 else np.uint16
            np.take(lut, x.view(idx_dtype), out=grid)
        else:
            ws = pool.get("gp_entry_f", grid.shape, np.float64)
            params = self.entry_params
            np.maximum(x, 0.0, out=ws)
            ws /= params.scale
            np.rint(ws, out=ws)
            np.clip(ws, 0.0, float(params.levels), out=ws)
            np.copyto(grid, ws, casting="unsafe")
        if profile is not None:
            profile.append(("quantize", t0, clock(),
                            {"entry": "lut" if lut is not None else "float"}))

        final: "np.ndarray | None" = None
        for si, stage in enumerate(self.stages):
            if stage.pre_steps:
                t0 = clock() if profile is not None else 0.0
                for step in stage.pre_steps:
                    _, src, dst, k, s = step
                    _max_pool_int(views[src.idx], wgrid(dst), k, s)
                if profile is not None:
                    profile.append(("pool", t0, clock(), {"stage": si}))
            src = views[stage.in_ref.idx].reshape(stage.in_spatial)
            counts = views[stage.out_ref.idx]
            if stage.kind == "conv":
                cols = views[stage.cols_ref.idx]
                t0 = clock() if profile is not None else 0.0
                im2col(src, stage.kernel, stage.stride, stage.padding, out=cols)
                if profile is not None:
                    profile.append(("im2col", t0, clock(), {"stage": si}))
            elif stage.cols_ref is not None:  # int8 linear
                cols = views[stage.cols_ref.idx]
                np.copyto(cols, src)
            else:  # sconna linear: the grid already is the column view
                cols = src.reshape(*src.shape, 1)
            if self.mode == "sconna":
                first = len(profile) if profile is not None else 0
                eng.matmul(stage.plan, cols, error_model, out=counts,
                           profile=profile)
                if profile is not None:
                    for span in profile[first:]:
                        span[3]["stage"] = si
            else:
                t0 = clock() if profile is not None else 0.0
                if stage.kind == "conv":
                    np.matmul(stage.w_f[None], cols, out=counts)
                else:
                    np.matmul(cols, stage.w_f.T, out=counts[:, :, 0])
                if profile is not None:
                    profile.append(("matmul", t0, clock(), {"stage": si}))

            # dequantize -> bias -> (requantize | finalize), in place:
            # the same float64 op sequence as the per-layer reference
            t0 = clock() if profile is not None else 0.0
            t = counts
            t *= stage.scale_eff
            if stage.bias is not None:
                t += stage.bias[:, None]
            if stage.requant is not None:
                next_scale, levels, grid_ref, spatial = stage.requant
                t /= next_scale
                np.rint(t, out=t)
                np.clip(t, 0.0, levels, out=t)
                nxt = wgrid(grid_ref)
                np.copyto(nxt, t.reshape(spatial), casting="unsafe")
            else:
                final = t.reshape(self.final_shape).copy()
            if profile is not None:
                profile.append(("requantize", t0, clock(), {"stage": si}))
        if self.net.tail_ops:
            t0 = clock() if profile is not None else 0.0
            for op in self.net.tail_ops:
                if op[0] == "pool":
                    final = max_pool2d(final, op[1], op[2])
                elif op[0] == "relu":
                    final = np.maximum(final, 0.0)
                elif op[0] == "flatten":
                    final = final.reshape(final.shape[0], -1)
            if profile is not None:
                profile.append(("tail", t0, clock(), {}))
        return final

    # -- introspection ---------------------------------------------------
    @property
    def n_slots(self) -> int:
        return len(self.planner.caps)

    @property
    def n_buffers(self) -> int:
        return self.planner.n_buffers

    @property
    def arena_bytes(self) -> int:
        return sum(self.planner.caps)


def _max_pool_int(src: np.ndarray, dst: np.ndarray, kernel: int, stride: int):
    """Integer-domain max pooling into a preallocated grid.

    Same window geometry as :func:`repro.cnn.functional.max_pool2d`;
    exact on the quantized grid because quantization is monotone.
    """
    oh, ow = dst.shape[2], dst.shape[3]
    first = True
    for i in range(kernel):
        for j in range(kernel):
            win = src[
                :,
                :,
                i : i + (oh - 1) * stride + 1 : stride,
                j : j + (ow - 1) * stride + 1 : stride,
            ]
            if first:
                np.copyto(dst, win)
                first = False
            else:
                np.maximum(dst, win, out=dst)


class NetworkPlan:
    """Graph-level compiled execution plans for one quantized model.

    Parses the model structure once (quant layers plus the monotone
    inter-layer ops the fused path supports), then builds and caches a
    :class:`_ShapeProgram` per (mode, input shape).  Unsupported
    structures, modes, or shapes simply return ``None`` from
    :meth:`try_execute`, and the caller falls back to the per-layer
    reference path - fused execution is an optimization, never a
    behaviour change.
    """

    def __init__(self, model: "object") -> None:
        self.model = model
        self.stages: "list[_Stage]" = []
        self.tail_ops: "list[tuple]" = []
        self.ok = self._parse()
        self._programs: "dict[tuple, _ShapeProgram | None]" = {}
        self._lock = threading.Lock()

    def _parse(self) -> bool:
        from repro.cnn.inference import QuantLayer  # deferred: cycle

        pre: "list[tuple]" = []
        for idx, item in enumerate(self.model.structure):
            if isinstance(item, QuantLayer):
                if item.kind not in ("conv", "linear"):
                    return False
                self.stages.append(_Stage(index=idx, layer=item, pre_ops=pre))
                pre = []
            elif isinstance(item, MaxPool2d):
                pre.append(("pool", item.kernel, item.stride))
            elif isinstance(item, ReLU):
                if self.stages:
                    # absorbed by the next quantization's lower clip when
                    # feeding a quant layer; kept verbatim if it ends up
                    # in the float tail
                    pre.append(("relu",))
                # a leading ReLU is absorbed by the entry quantization
            elif isinstance(item, Flatten):
                pre.append(("flatten",))
            else:
                return False
        if not self.stages:
            return False
        self.tail_ops = pre
        # drop absorbed ReLUs from every pre-op list (they are not tail)
        for stage in self.stages:
            stage.pre_ops = [op for op in stage.pre_ops if op[0] != "relu"]
        return True

    def supports(self, mode: str) -> bool:
        return self.ok and mode in ("int8", "sconna")

    def program_for(self, mode: str, in_shape: tuple) -> "_ShapeProgram | None":
        """The cached shape program (built on first use); None when the
        combination cannot run fused."""
        if not self.supports(mode):
            return None
        key = (mode, tuple(int(d) for d in in_shape))
        prog = self._programs.get(key, _MISSING)
        if prog is _MISSING:
            with self._lock:
                prog = self._programs.get(key, _MISSING)
                if prog is _MISSING:
                    try:
                        prog = _ShapeProgram(self, mode, key[1])
                    except _Unsupported:
                        prog = None
                    self._programs[key] = prog
        return prog

    def try_execute(
        self,
        images: np.ndarray,
        mode: str,
        error_model: "object | None" = None,
        profile: "list | None" = None,
    ) -> "np.ndarray | None":
        """Run fused, or return None so the caller takes the reference
        path.

        A noisy :class:`PerRequestErrorModels` batch runs as
        image-balanced chunks at once, cut only between requests: the
        first chunk on the calling thread, the others on helper threads,
        as many as :data:`CORE_BUDGET` spares.  Each request owns its
        generator, so every chunk computes exactly the rows it would
        compute unsplit and the concatenated logits are the same bits.
        Every other batch runs whole: one noisy model's single RNG
        stream spans the batch, and int8 or ideal-ADC batches are not
        split until a benchmark measures that path on more than one
        core.  Helper chunks' ``profile`` spans carry a ``chunk`` tag.
        """
        x = np.asarray(images)
        if x.ndim < 2 or not self.supports(mode):
            return None
        cuts = ()
        if (
            mode == "sconna"
            and isinstance(error_model, PerRequestErrorModels)
            and not error_model.ideal()
        ):
            cuts = error_model.cut_points(x.shape[0])
        held = CORE_BUDGET.take(len(cuts) + 1)
        try:
            if held > 1:
                bounds = _chunk_bounds(x.shape[0], cuts, held)
                CORE_BUDGET.give(held - len(bounds))  # cores no chunk uses
                held = len(bounds)
            if held == 1:
                prog = self.program_for(mode, x.shape)
                if prog is None:
                    return None
                return prog.run(x, error_model, profile)
            return self._run_chunks(x, mode, error_model, bounds, profile)
        finally:
            CORE_BUDGET.give(held)

    def _run_chunks(self, x, mode, error_model, bounds, profile):
        """Run ``x[start:stop]`` for each of ``bounds`` at once, each
        with its own requests' slice of ``error_model``, and concatenate
        the logits."""
        progs = [
            self.program_for(mode, (stop - start, *x.shape[1:]))
            for start, stop in bounds
        ]
        if progs[0] is None:  # support never depends on batch size
            return None
        models = error_model.split(bounds)
        spans = [None if profile is None else [] for _ in bounds]
        helpers = [
            CORE_BUDGET.submit(prog.run, x[start:stop], em, sub)
            for prog, (start, stop), em, sub in zip(
                progs[1:], bounds[1:], models[1:], spans[1:]
            )
        ]
        try:
            parts = [progs[0].run(x[: bounds[0][1]], models[0], profile)]
        finally:
            futures.wait(helpers)
        parts.extend(f.result() for f in helpers)
        if profile is not None:
            for i, sub in enumerate(spans[1:], 1):
                profile.extend(
                    (name, t0, t1, dict(tags, chunk=i))
                    for name, t0, t1, tags in sub
                )
        return np.concatenate(parts)


def _chunk_bounds(
    n_images: int, cuts: "Sequence[int]", n: int
) -> "list[tuple[int, int]]":
    """Up to ``n`` ``[start, stop)`` image ranges of about
    ``n_images / n`` images each, cut only at the sorted ``cuts``."""
    edges = [0]
    for k in range(1, n):
        target = k * n_images / n
        lo = bisect.bisect_right(cuts, edges[-1])
        hi = bisect.bisect_left(cuts, target, lo)
        near = [cuts[i] for i in (hi - 1, hi) if lo <= i < len(cuts)]
        if not near:
            break
        edges.append(min(near, key=lambda c: abs(c - target)))
    edges.append(n_images)
    return list(zip(edges, edges[1:]))


class _CoreBudget:
    """The process's cores, shared out among running fused forwards.

    Every running forward holds one core, even when all are held
    already: a serving thread never waits for the budget.  A forward
    whose batch can split takes the spare cores too, without waiting,
    and runs one chunk per core held, so a split only ever starts on
    cores no other forward holds.  A forward that starts while a split
    runs still runs on its own thread, though: ``n`` concurrent forwards
    run on at most ``n + cores - 1`` threads (``cores - 1`` helpers),
    not ``n``.  ``cores`` is the affinity mask's size unless a serving
    shard set its share of the host first.  The helper threads start on
    first use.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.cores: "int | None" = None
        self.held = 0
        self._helpers: "futures.ThreadPoolExecutor | None" = None

    def take(self, want: int) -> int:
        """Hold one core plus up to ``want - 1`` spare ones; returns how
        many are held (>= 1)."""
        with self._lock:
            if self.cores is None:
                self.cores = len(usable_cores())
            n = max(1, min(want, self.cores - self.held))
            self.held += n
            return n

    def give(self, n: int) -> None:
        with self._lock:
            self.held -= n

    def submit(self, fn, *args) -> "futures.Future":
        """Run ``fn(*args)`` on one of ``cores - 1`` helper threads; the
        budget never lets more helper chunks be due at once."""
        with self._lock:
            if self._helpers is None:
                self._helpers = futures.ThreadPoolExecutor(
                    max(1, self.cores - 1), thread_name_prefix="sconna-chunk"
                )
        return self._helpers.submit(fn, *args)


#: this process's core budget for fused forwards
CORE_BUDGET = _CoreBudget()
# a forked child inherits neither the helper threads nor the holders
os.register_at_fork(after_in_child=CORE_BUDGET.__init__)

_MISSING = object()
