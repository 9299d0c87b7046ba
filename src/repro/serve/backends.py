"""Pluggable execution backends: the seam between scheduling and compute.

:class:`~repro.serve.service.SconnaService` owns *scheduling* (lanes,
coalescing, futures, costs, request-level metrics); everything from "a
coalesced batch exists" to "its logits exist" sits behind the
:class:`ExecutionBackend` seam defined here::

    backend.submit(model, batch, on_done)
        -> on_done(BatchResult(logits, ...))   # or on_done(exception)

Two implementations:

* :class:`ThreadBackend` - the classic single-process path: one daemon
  thread per usable core, sharing the parent's models.  Bit-identical to
  the pre-seam service (same stacking, same
  :class:`~repro.stochastic.error_models.PerRequestErrorModels`
  construction, same per-request deterministic ADC noise).
* :class:`ProcessBackend` - N *shard worker processes*, mirroring the
  paper's array of independent TeNOCs at the serving layer: each shard
  owns a full Python runtime (its own GIL, BLAS pools, warm engine
  buffers) and loads models through the NPZ serialization - from the
  shared registry's archive when one exists, from in-memory archive
  bytes otherwise.  Batch tensors travel through one
  ``multiprocessing.shared_memory`` ring per shard with only descriptors
  on the pipe; a batch rides the pipe itself only when its shard's ring
  is full, too small for it, or missing.  Logits return in the shard's
  reply on the pipe, read by per-shard collector threads.  Every shard
  loads every model.  A shard that dies is reaped, respawned (up to
  :data:`MAX_RESTARTS`), its models reloaded, its ring unlinked and
  recreated, and its in-flight batches redispatched to live shards.

Both backends execute a batch through one function,
:func:`execute_batch`, and warm a model through :func:`warm_up`.

**Determinism across backends.**  A request's ADC noise is a pure
function of its :class:`~repro.stochastic.error_models.SconnaErrorModel`'s
64-bit stream key and each count's position, and the key pickles with
the model.  The shard draws the *same stream* over the *same
contiguous batch slice* the thread path would, so a seeded request's
logits are bit-identical through either backend - and even a
``seed=None`` request is reproducible across a crash-redispatch,
because the parent re-sends the same key.

**Metrics.**  Backends record none: every batch ends in exactly one
``on_done`` call in the parent, where the service counts it - once,
whichever worker or shard ran it, however often a crash redispatched
it.
"""

from __future__ import annotations

import abc
import itertools
import multiprocessing
import queue
import threading
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.serve.batching import InferenceRequest
from repro.serve.shm import (
    DEFAULT_RING_BYTES,
    RingAllocator,
    ShmArena,
    ShmDescriptor,
    attach_arena,
)
from repro.stochastic.error_models import PerRequestErrorModels, SconnaErrorModel
from repro.utils.cores import usable_cores

#: shard processes start with "spawn": forking a parent that already
#: runs scheduler and HTTP threads is a deadlock lottery
_MP = multiprocessing.get_context("spawn")
#: crash respawns one ProcessBackend performs before a dead slot stays dead
MAX_RESTARTS = 3
#: seconds add_model waits for every shard to acknowledge a load
LOAD_TIMEOUT_S = 180.0


@dataclass(frozen=True)
class BatchResult:
    """What execution hands back for one coalesced batch."""

    logits: np.ndarray        #: (n_images, classes) float64 for the whole batch
    n_images: int             #: batch-axis length (== logits.shape[0])
    exec_start: float         #: monotonic instant execution (or shard dispatch) began


def stack_batch(batch: "list[InferenceRequest]") -> np.ndarray:
    """Concatenate a coalesced batch's images along the batch axis.

    Single-request batches pass through without a copy - identical to
    the historical service behaviour, which the bit-exactness contract
    is defined against.
    """
    if len(batch) == 1:
        return batch[0].images
    return np.concatenate([r.images for r in batch], axis=0)


def execute_batch(
    qmodel, mode: str, images: np.ndarray, error_models: list,
    sizes: "list[int]", profile: "list | None" = None,
) -> np.ndarray:
    """Run one coalesced batch: the execution path both backends share.

    ``error_models`` and ``sizes`` are the batch's per-request ADC noise
    models and image counts; on the sconna datapath each request's model
    is applied to its own contiguous slice, so a seeded request's logits
    do not depend on which batch or backend carried it.  ``profile``
    collects per-stage engine timings when it is a list.
    """
    error_model = (
        PerRequestErrorModels(error_models, sizes) if mode == "sconna" else None
    )
    return qmodel.forward(
        images, mode=mode, error_model=error_model, profile=profile
    )


def warm_up(qmodel, mode: str, shape: "tuple[int, int, int, int]") -> None:
    """One forward of a zero batch of ``shape`` so first real batches
    find hot buffers (ideal ADC: a warm-up draws no noise)."""
    error_model = SconnaErrorModel(adc_mape=0.0) if mode == "sconna" else None
    qmodel.forward(np.zeros(shape), mode=mode, error_model=error_model)


class ExecutionBackend(abc.ABC):
    """Executes coalesced batches for named models.

    Implementations must be safe against concurrent :meth:`submit` calls
    from many scheduler threads, must invoke ``on_done`` exactly once
    per submitted batch (with a :class:`BatchResult` on success or the
    raised exception on failure), and must drain in-flight batches on
    :meth:`close`.
    """

    kind: str = "abstract"

    @abc.abstractmethod
    def add_model(
        self,
        name: str,
        qmodel,
        mode: str,
        archive: "object | None" = None,
        warm: "tuple[int, int, int, int] | None" = None,
    ) -> None:
        """Make ``name`` executable.

        ``archive`` is the model's registry NPZ path when one exists
        (process shards load from it); ``warm`` is an optional
        ``(n, C, H, W)`` dummy-batch shape every worker runs once so
        first real batches find hot buffers.
        """

    @abc.abstractmethod
    def submit(self, name: str, batch: "list[InferenceRequest]", on_done) -> None:
        """Execute ``batch`` asynchronously; ``on_done(result_or_exc)``."""

    @abc.abstractmethod
    def close(self, timeout: float | None = 10.0) -> None:
        """Drain in-flight work, then release every worker."""

    def info(self) -> dict:
        """JSON-ready description for the metrics endpoint."""
        return {"kind": self.kind}


#: task-queue marker that stops one worker thread
_STOP = object()


class ThreadBackend(ExecutionBackend):
    """In-process execution on a thread pool (the historical datapath).

    One daemon thread per usable core (:func:`~repro.utils.cores.usable_cores`,
    the count :data:`repro.cnn.graph_plan.CORE_BUDGET` shares among a
    split forward's chunks) drains one task queue.  The engine's hot
    path releases the GIL inside BLAS (int8) and the native floor-sum
    kernels (sconna), so a few threads exploit whatever parallelism one
    process can reach; per-thread warm buffers come from
    :class:`~repro.cnn.engine.SconnaEngine`'s thread-local pools.  Tasks
    route per-request failures through ``on_done``; one that raises
    anyway only bumps ``task_errors``, so a poisoned batch cannot kill
    a worker.
    """

    kind = "thread"

    def __init__(self) -> None:
        self._tasks: "queue.Queue[object]" = queue.Queue()
        self._task_errors = 0
        self._error_lock = threading.Lock()
        self._models: "dict[str, tuple[object, str]]" = {}
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._work, name=f"sconna-worker-{i}", daemon=True
            )
            for i in range(len(usable_cores()))
        ]
        for t in self._threads:
            t.start()

    def _work(self) -> None:
        while True:
            task = self._tasks.get()
            if task is _STOP:
                return
            try:
                task()
            except Exception:
                with self._error_lock:
                    self._task_errors += 1

    def _warm(self, fn, timeout: float = 30.0) -> None:
        """Run ``fn`` once in *every* worker thread: a barrier keeps a
        fast worker from stealing a sibling's warm-up task."""
        barrier = threading.Barrier(len(self._threads) + 1)

        def warmer() -> None:
            try:
                fn()
            finally:
                barrier.wait(timeout)

        for _ in self._threads:
            self._tasks.put(warmer)
        barrier.wait(timeout)

    def add_model(self, name, qmodel, mode, archive=None, warm=None) -> None:
        if self._closed:
            raise RuntimeError("backend is closed")
        self._models[name] = (qmodel, mode)
        if warm is not None:
            self._warm(lambda: warm_up(qmodel, mode, warm))

    def submit(self, name, batch, on_done) -> None:
        if self._closed:
            raise RuntimeError("backend is closed")
        qmodel, mode = self._models[name]
        traces = [r.trace for r in batch if r.trace is not None]

        def task() -> None:
            exec_start = time.monotonic()
            profile = [] if any(t.wants_profile for t in traces) else None
            try:
                stacked = stack_batch(batch)
                logits = execute_batch(
                    qmodel, mode, stacked, [r.error_model for r in batch],
                    [r.n_images for r in batch], profile,
                )
            except BaseException as exc:
                if traces:
                    end = time.monotonic()
                    for tr in traces:
                        tr.add_span(
                            "backend.execute", exec_start, end,
                            tags={"backend": self.kind,
                                  "error": type(exc).__name__},
                        )
                on_done(exc)
                return
            if traces:
                end = time.monotonic()
                for tr in traces:
                    parent = tr.add_span(
                        "backend.execute", exec_start, end,
                        tags={"backend": self.kind,
                              "images": int(stacked.shape[0])},
                    )
                    if profile:
                        tr.add_spans(profile, parent_id=parent)
            on_done(
                BatchResult(
                    logits=logits,
                    n_images=int(stacked.shape[0]),
                    exec_start=exec_start,
                )
            )

        self._tasks.put(task)

    def info(self) -> dict:
        return {
            "kind": self.kind,
            "workers": len(self._threads),
            "pending": self._tasks.qsize(),
            "task_errors": self._task_errors,
        }

    def close(self, timeout: float | None = 10.0) -> None:
        """Drain queued tasks, then stop and join every worker."""
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._tasks.put(_STOP)
        for t in self._threads:
            t.join(timeout)
            if t.is_alive():
                raise RuntimeError(f"worker {t.name} did not stop in time")


# -- process sharding -------------------------------------------------------

#: per-model source shipped to shards: ("path", str) or ("bytes", bytes)
_ModelSrc = "tuple[str, object]"


@dataclass
class _Inflight:
    """Parent-side record of one dispatched batch (payload retained so a
    shard crash can redispatch it verbatim)."""

    name: str
    images: np.ndarray
    models: "list[object]"
    sizes: "list[int]"
    on_done: object
    dispatched_at: float
    #: telemetry Traces of the batch's sampled requests (retained across
    #: a crash-redispatch, like the payload) and the picklable span
    #: context the shard receives on the pipe alongside the error models
    traces: "list[object]" = field(default_factory=list)
    tctx: "dict | None" = None


@dataclass
class _Shard:
    """Parent-side handle of one worker process."""

    slot: int
    process: object
    conn: object
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    inflight: "dict[int, _Inflight]" = field(default_factory=dict)
    acks: "queue.Queue" = field(default_factory=queue.Queue)
    reader: "threading.Thread | None" = None
    alive: bool = True
    expected_exit: bool = False
    #: the parent-owned ring carrying batch tensors parent->shard (None
    #: when /dev/shm could not hold it)
    tx: "ShmArena | None" = None
    tx_alloc: "RingAllocator | None" = None
    tx_offsets: "dict[int, int]" = field(default_factory=dict)  #: bid -> tx offset
    cores: int = 1                   #: the shard's core budget

    def send(self, msg: tuple) -> None:
        with self.send_lock:
            self.conn.send(msg)

    def destroy_ring(self) -> None:
        """Owner-side teardown of the ring (idempotent; the parent is
        the only process that ever unlinks)."""
        if self.tx is not None:
            self.tx.destroy()


def _shard_main(conn, shard_id: int, shm_spec=None, cores: int = 1) -> None:
    """Entry point of one shard worker process.

    A single-threaded loop: receive a message, act, reply.  One
    execution thread per shard is the sharding model - parallelism comes
    from running N of these processes, plus the fused forward's helper
    threads when the shard's ``cores`` exceed one.  The loop exits on a
    ``stop`` message or when the pipe reaches EOF (the parent died), so
    shards can never outlive their parent as orphans.

    ``shm_spec`` is ``(tx_name, ring_bytes)``, or ``None`` for a shard
    without a ring: the shard *attaches* to the parent-owned arena
    (never creates or unlinks it).  A ``batch`` message carries its
    images either as an array or as a :class:`ShmDescriptor` into tx;
    the ``ok`` reply carries the logits as an array.

    SIGINT is ignored: a terminal Ctrl-C signals the whole foreground
    process group, and shards dying mid-batch would defeat the parent's
    graceful drain - the parent alone decides when a shard stops (pipe
    ``stop``/EOF, or SIGTERM as the parent's force-kill fallback).

    ``cores`` is this shard's share of the host, the core budget its
    fused forwards split batches over (see
    :data:`repro.cnn.graph_plan.CORE_BUDGET`): ``max(1, cores //
    n_shards)``, so shards that already fill the host never split.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)

    from repro.cnn.graph_plan import CORE_BUDGET
    from repro.cnn.serialization import (
        load_quantized_model,
        loads_quantized_model,
    )

    CORE_BUDGET.cores = cores

    tx = attach_arena(*shm_spec) if shm_spec is not None else None

    def run_batch(bid, name, images, emodels, sizes, tctx) -> tuple:
        # ``tctx`` is the parent's span context (piggybacked on the
        # batch message like the error models): when present, execution is
        # timed with time.monotonic() - system-wide on Linux, so these
        # readings are directly comparable to the parent's clock - and
        # the spans ride back with the logits for the parent to graft
        # into the request traces
        profile = [] if tctx is not None and tctx.get("profile") else None
        t0 = time.monotonic()
        try:
            entry = models.get(name)
            if entry is None:
                raise KeyError(
                    f"shard {shard_id} has no model {name!r} loaded"
                )
            if isinstance(images, ShmDescriptor):
                # zero-copy: the parent keeps this tx region allocated
                # until our reply arrives, and the reply is only sent
                # after forward() is done with the view
                images = tx.read_array(images)
            logits = execute_batch(*entry, images, emodels, sizes, profile)
        except BaseException as exc:
            return ("err", bid, exc)
        spans = None
        if tctx is not None:
            spans = [("shard.execute", t0, time.monotonic(),
                      {"shard": shard_id, "images": int(images.shape[0])})]
            spans.extend(
                (n, s, e, dict(tags, shard=shard_id))
                for n, s, e, tags in profile or ()
            )
        return ("ok", bid, logits, spans)

    models: "dict[str, tuple[object, str]]" = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break  # parent closed the pipe or died
        op = msg[0]
        if op == "stop":
            break
        elif op == "load":
            _, token, name, src_kind, src, mode, warm = msg
            try:
                qm = (
                    load_quantized_model(src)
                    if src_kind == "path"
                    else loads_quantized_model(src)
                )
                if warm is not None:
                    warm_up(qm, mode, warm)
                models[name] = (qm, mode)
                reply = ("loaded", token, name, None)
            except BaseException as exc:
                reply = ("loaded", token, name, f"{type(exc).__name__}: {exc}")
            _shard_reply(conn, reply)
        elif op == "batch":
            _shard_reply(conn, run_batch(*msg[1:]))
    if tx is not None:
        tx.close()  # attachment only - the parent owns the unlink
    try:
        conn.close()
    except OSError:
        pass


def _shard_reply(conn, reply: tuple) -> None:
    """Send a reply, degrading an unpicklable error payload to a string
    wrapper rather than killing the shard loop."""
    try:
        conn.send(reply)
    except (EOFError, BrokenPipeError, OSError):
        raise SystemExit(0)  # parent is gone; nothing left to serve
    except Exception as exc:  # unpicklable exception object, etc.
        if reply[0] == "err":
            conn.send(
                ("err", reply[1], RuntimeError(f"shard error (unpicklable): {exc}"))
            )
        else:
            raise


class ProcessBackend(ExecutionBackend):
    """Multi-process sharded execution: N worker processes behind pipes.

    Every shard loads every model, and dispatch picks the least-loaded
    live shard.  Each shard executes its batches serially in arrival
    order, so a model's ``load`` (sent first, pipe ordering) is always
    visible before its batches.  Crash handling: the shard's collector
    thread sees pipe EOF, the backend reaps the process, respawns the
    slot (replaying every model load), and redispatches the dead shard's
    in-flight batches - at-least-once execution whose results are
    identical because each batch carries its requests' stream keys.

    **Rings.**  Batch tensors move through one
    ``multiprocessing.shared_memory`` ring arena of ``ring_bytes`` per
    shard; only a small descriptor (offset, shape, dtype) plus the
    request ids and the requests' error models (stream key, image
    index and sigma) cross the pipe.  The logits, a few
    bytes per image against kilobytes of pixels, come back inside the
    shard's ``ok`` reply.  The parent owns every ring: it allocates a
    region per batch (freed when that batch's reply arrives - the
    single-threaded shard is necessarily done reading by then) and
    **unlinks the segment** on shard death, respawn and ``close()`` - no
    ``/dev/shm/repro_*`` segment survives the backend, even when a shard
    dies mid-batch.  A batch goes onto the pipe itself only when its
    shard's ring is full, too small for it, or missing (``/dev/shm``
    could not hold the ring when the shard was spawned, so it runs
    without one); backpressure bounds memory without stalling dispatch.
    Bytes move verbatim either way, so a seeded request's logits do not
    depend on which path carried it.
    """

    kind = "process"

    def __init__(
        self,
        n_shards: int = 2,
        ring_bytes: int = DEFAULT_RING_BYTES,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if ring_bytes < 1:
            raise ValueError("ring_bytes must be >= 1")
        #: each shard's core budget: its share of the host
        self._shard_cores = max(1, len(usable_cores()) // n_shards)
        self.ring_bytes = int(ring_bytes)
        self._lock = threading.RLock()
        self._drained = threading.Condition(self._lock)
        self._admin_lock = threading.Lock()  # serializes add_model acks
        self._models: "dict[str, tuple[str, _ModelSrc, object]]" = {}
        self._bids = itertools.count(1)
        self._tokens = itertools.count(1)
        self._closed = False
        self.restarts = 0
        #: dispatch counters (under _lock): batches sent through a tx
        #: ring, and batches that went onto the pipe because their
        #: shard's ring was full, too small for them, or missing
        self._shm_batches = 0
        self._pipe_fallbacks = 0
        #: every segment name this backend ever created (tests assert
        #: all of them are gone from /dev/shm after close)
        self.segment_names: "set[str]" = set()
        #: crashed-shard orphans currently between inflight tables (a
        #: drain must wait for them to land on a live shard or fail)
        self._rescuing = 0
        self._shards: "list[_Shard]" = []
        try:
            for slot in range(n_shards):
                self._shards.append(self._spawn(slot))
        except BaseException:
            self.close()  # nothing leaks when construction cannot complete
            raise

    # -- shard lifecycle -------------------------------------------------
    def _spawn(self, slot: int) -> _Shard:
        """Start the worker for ``slot`` with a fresh ring - or without
        one when ``/dev/shm`` is absent, unwritable or too small for it
        (``ShmArena`` commits its pages, so a full tmpfs is a clean
        ``OSError`` here rather than a SIGBUS mid-serve): that shard
        then takes every batch over the pipe."""
        tx = tx_alloc = shm_spec = None
        try:
            tx = ShmArena(self.ring_bytes)
        except OSError as exc:
            warnings.warn(
                f"shard {slot} starts without shared-memory rings "
                f"({type(exc).__name__}: {exc}); its batches go over the "
                "pipe (shrink ring_bytes or grow /dev/shm)",
                RuntimeWarning,
            )
        else:
            tx_alloc = RingAllocator(self.ring_bytes)
            self.segment_names.add(tx.name)
            shm_spec = (tx.name, self.ring_bytes)
        parent_conn, child_conn = _MP.Pipe(duplex=True)
        process = _MP.Process(
            target=_shard_main,
            args=(child_conn, slot, shm_spec, self._shard_cores),
            name=f"sconna-shard-{slot}",
            daemon=True,  # belt: the pipe-EOF exit in _shard_main is the braces
        )
        try:
            process.start()
        except BaseException:
            if tx is not None:
                tx.destroy()
            raise
        child_conn.close()  # the parent keeps only its own end
        shard = _Shard(slot=slot, process=process, conn=parent_conn,
                       tx=tx, tx_alloc=tx_alloc,
                       cores=self._shard_cores)
        shard.reader = threading.Thread(
            target=self._collect, args=(shard,),
            name=f"sconna-shard-{slot}-collector", daemon=True,
        )
        shard.reader.start()
        # replay every model into the fresh runtime (token None: respawn
        # replays are fire-and-forget; pipe ordering still guarantees the
        # load lands before any redispatched batch)
        with self._lock:
            replay = list(self._models.items())
        for name, (mode, src, warm) in replay:
            shard.send(("load", None, name, src[0], src[1], mode, warm))
        return shard

    def _collect(self, shard: _Shard) -> None:
        """Per-shard collector: routes replies until the pipe dies."""
        while True:
            try:
                msg = shard.conn.recv()
            except (EOFError, OSError):
                break
            op = msg[0]
            if op == "loaded":
                if msg[1] is not None:  # respawn replays carry token None
                    shard.acks.put(msg)
            elif op in ("ok", "err"):
                # ("ok", bid, logits, spans) or ("err", bid, exception)
                bid, result = msg[1], msg[2]
                shard_spans = msg[3] if op == "ok" else None
                with self._lock:
                    item = shard.inflight.pop(bid, None)
                    tx_offset = shard.tx_offsets.pop(bid, None)
                    if tx_offset is not None:
                        try:
                            shard.tx_alloc.free(tx_offset)
                        except KeyError:
                            pass
                    self._drained.notify_all()
                if item is None:
                    continue  # already redispatched elsewhere
                if item.traces:
                    # rejoin the shard-side spans: one backend.dispatch
                    # span per traced request (dispatch -> reply on the
                    # parent clock) with the shard's own spans grafted
                    # under it
                    returned_at = time.monotonic()
                    transport = "shm" if tx_offset is not None else "pipe"
                    for tr in item.traces:
                        parent = tr.add_span(
                            "backend.dispatch", item.dispatched_at,
                            returned_at,
                            tags={"backend": "process",
                                  "shard": shard.slot,
                                  "transport": transport,
                                  **({"error": type(result).__name__}
                                     if op == "err" else {})},
                        )
                        if shard_spans:
                            tr.add_spans(shard_spans, parent_id=parent)
                if op == "err":
                    item.on_done(result)
                else:
                    item.on_done(
                        BatchResult(
                            logits=result,
                            n_images=int(result.shape[0]),
                            exec_start=item.dispatched_at,
                        )
                    )
        self._on_shard_exit(shard)

    def _on_shard_exit(self, shard: _Shard) -> None:
        """Reap a dead shard; respawn its slot and rescue its batches."""
        with self._lock:
            shard.alive = False
            orphans = list(shard.inflight.values())
            shard.inflight.clear()
            shard.tx_offsets.clear()  # regions die with the arenas below
            # hold the drain open until every orphan is redispatched (or
            # failed): between the clear above and the re-add in
            # _dispatch, no inflight table owns these batches
            self._rescuing += len(orphans)
            self._drained.notify_all()
            respawn = (
                not shard.expected_exit
                and not self._closed
                and self.restarts < MAX_RESTARTS
            )
            if respawn:
                self.restarts += 1
        try:
            shard.process.join(timeout=5.0)
        except Exception:
            pass
        # reclaim the dead shard's segment *now* - a respawn gets a fresh
        # ring, and a shard that crashed mid-batch must not leak
        # /dev/shm entries for however long the backend lives
        shard.destroy_ring()
        if respawn:
            try:
                replacement = self._spawn(shard.slot)
            except BaseException:
                pass  # slot stays dead; orphans go to surviving shards
            else:
                with self._lock:
                    self._shards[shard.slot] = replacement
        for item in orphans:
            try:
                self._dispatch(item)
            except BaseException as exc:
                item.on_done(exc)
            finally:
                with self._lock:
                    self._rescuing -= 1
                    self._drained.notify_all()

    # -- model management ------------------------------------------------
    def add_model(self, name, qmodel, mode, archive=None, warm=None) -> None:
        if archive is not None:
            src: _ModelSrc = ("path", str(archive))
        else:
            from repro.cnn.serialization import dumps_quantized_model

            src = ("bytes", dumps_quantized_model(qmodel))
        with self._admin_lock:
            with self._lock:
                if self._closed:
                    raise RuntimeError("backend is closed")
                self._models[name] = (mode, src, warm)
                shards = [s for s in self._shards if s.alive]
            token = next(self._tokens)
            for shard in shards:
                try:
                    shard.send(("load", token, name, src[0], src[1], mode, warm))
                except OSError:
                    pass  # dying shard; its respawn replays the load
            deadline = time.monotonic() + LOAD_TIMEOUT_S
            for shard in shards:
                error = self._await_ack(shard, token, name, deadline)
                if error is not None:
                    raise RuntimeError(
                        f"shard {shard.slot} failed to load model {name!r}: {error}"
                    )

    def _await_ack(
        self, shard: _Shard, token: int, name: str, deadline: float
    ) -> "str | None":
        """Wait for this shard's load ack; stale acks are discarded."""
        while True:
            if not shard.alive:
                return None  # exit path replays the load on respawn
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return f"no ack within {LOAD_TIMEOUT_S:.0f}s"
            try:
                _, ack_token, ack_name, error = shard.acks.get(
                    timeout=min(remaining, 0.25)
                )
            except queue.Empty:
                continue
            if ack_token == token and ack_name == name:
                return error

    # -- request path ----------------------------------------------------
    def submit(self, name, batch, on_done) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("backend is closed")
            if name not in self._models:
                raise KeyError(f"backend has no model {name!r}")
        traces = [r.trace for r in batch if r.trace is not None]
        tctx = None
        if traces:
            # the picklable span context the shard receives: it
            # profiles once per batch if any rider asked for it
            tctx = {"profile": any(t.wants_profile for t in traces)}
        self._dispatch(
            _Inflight(
                name=name,
                images=stack_batch(batch),
                models=[r.error_model for r in batch],
                sizes=[r.n_images for r in batch],
                on_done=on_done,
                dispatched_at=time.monotonic(),
                traces=traces,
                tctx=tctx,
            )
        )

    def _dispatch(self, item: _Inflight) -> None:
        """Assign one batch to the least-loaded live shard and send it -
        through the shard's tx ring when it has room, over the pipe
        otherwise (a full ring, a batch larger than the ring, or a shard
        without a ring never stalls dispatch).

        Raises when no shard is alive; a send that fails because the
        chosen shard just died is *not* an error - the entry is already
        in that shard's in-flight table, so the collector's exit path
        redispatches it.
        """
        with self._lock:
            live = [s for s in self._shards if s.alive]
            if not live:
                raise RuntimeError(
                    f"no live shards for model {item.name!r} "
                    "(exceeded MAX_RESTARTS or closing)"
                )
            shard = min(live, key=lambda s: len(s.inflight))
            bid = next(self._bids)
            shard.inflight[bid] = item
            offset = None
            if shard.tx_alloc is not None:
                offset = shard.tx_alloc.alloc(item.images.nbytes)
            if offset is None:
                self._pipe_fallbacks += 1
            else:
                shard.tx_offsets[bid] = offset
                self._shm_batches += 1
        payload = item.images
        if offset is not None:
            try:
                payload = shard.tx.write_array(offset, item.images)
            except (ValueError, BufferError, TypeError):
                # the arena was closed under us (a closed SharedMemory's
                # buf is None, so frombuffer raises TypeError): the shard
                # is dying and its EOF path rescues the inflight entry
                return
        try:
            shard.send(("batch", bid, item.name, payload, item.models,
                        item.sizes, item.tctx))
        except (OSError, ValueError):
            pass  # pipe broke: the collector's EOF path rescues the entry

    # -- introspection / lifecycle ---------------------------------------
    def info(self) -> dict:
        with self._lock:
            per_shard = [
                {
                    "shard": s.slot,
                    "alive": s.alive,
                    "pid": getattr(s.process, "pid", None),
                    "in_flight": len(s.inflight),
                    "ring_bytes_in_use": (
                        s.tx_alloc.in_use if s.tx_alloc is not None else None
                    ),
                    "ring_stats": (
                        s.tx_alloc.stats() if s.tx_alloc is not None else None
                    ),
                    "cores": s.cores,
                }
                for s in self._shards
            ]
            return {
                "kind": self.kind,
                "shards": len(self._shards),
                "alive": sum(1 for s in self._shards if s.alive),
                "restarts": self.restarts,
                "ring_bytes": self.ring_bytes,
                "shm_batches": self._shm_batches,
                "pipe_fallbacks": self._pipe_fallbacks,
                "per_shard": per_shard,
            }

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def close(self, timeout: float | None = 10.0) -> None:
        """Drain in-flight batches, stop every shard, reap the processes."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._rescuing or any(
                s.inflight for s in self._shards if s.alive
            ):
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break  # drain window exhausted; fall through to reaping
                self._drained.wait(remaining if remaining is not None else 1.0)
            shards = list(self._shards)
            for shard in shards:
                shard.expected_exit = True
        for shard in shards:
            try:
                shard.send(("stop",))
            except OSError:
                pass
        for shard in shards:
            shard.process.join(
                2.0 if deadline is None
                else max(0.5, deadline - time.monotonic())
            )
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(2.0)
            try:
                shard.conn.close()
            except OSError:
                pass
            if shard.reader is not None:
                shard.reader.join(2.0)
            # every ring dies with its shard: unlink here so no exit
            # path can leave /dev/shm entries behind
            shard.destroy_ring()
        # fail anything that never came back (shards killed mid-drain)
        leftovers: "list[_Inflight]" = []
        with self._lock:
            for shard in shards:
                leftovers.extend(shard.inflight.values())
                shard.inflight.clear()
        for item in leftovers:
            item.on_done(RuntimeError("backend closed before batch completed"))


def make_backend(
    backend: "ExecutionBackend | str", n_shards: int = 2
) -> ExecutionBackend:
    """Resolve a backend spec: an instance passes through; ``"thread"``
    and ``"process"`` (``n_shards`` worker processes) construct the
    standard implementations."""
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend == "thread":
        return ThreadBackend()
    if backend == "process":
        return ProcessBackend(n_shards=n_shards)
    raise ValueError(
        f"unknown backend {backend!r}; expected 'thread', 'process', "
        "or an ExecutionBackend instance"
    )
