"""Shared-memory ring transport for the process backend.

The pipe-pickle transport pickles every batch's pixels into the pipe on
dispatch: 6.9 KB per float32 24x24 RGB image, against 80 B of logits
per image coming back.  On a one-core container that serialization is the
entire measured overhead of ``ProcessBackend`` (0.82x of
thread-dynamic, see ``BENCH_serve.json``).  This module moves the batch
tensors into one ``multiprocessing.shared_memory`` ring per shard so
only small *descriptors* (offset, shape, dtype - plus the request ids
and error models, each a stream key, that must travel anyway) cross
the pipe; the logits return in the shard's reply on the pipe:

* :class:`RingAllocator` - a next-fit circular allocator over a byte
  arena.  Regions are reclaimed out of completion order (batches finish
  whenever they finish), so the classic head/tail ring is generalized to
  interval tracking with a circular allocation cursor: the cursor walks
  forward through free gaps and wraps to offset 0, which is exactly the
  ring wrap-around behaviour, without requiring in-order frees.
* :class:`ShmArena` - one shared-memory segment, created by the serving
  parent (``create=True``) and attached by the shard (``name=...``):
  the parent writes an array's exact bytes at an offset, the shard
  reads them back as a zero-copy view.

Ownership and cleanup invariants (the part that must never be wrong):

* The **parent creates every segment and is the only process that ever
  calls** :meth:`ShmArena.unlink`.  Shards only attach and ``close()``.
* Segment names carry the :data:`SEGMENT_PREFIX` (``repro_``) so a CI
  leak check can assert ``/dev/shm/repro_*`` is empty after a suite.
* On Python < 3.13 an *attachment* registers with the resource tracker
  exactly like a creation; :func:`attach_arena` suppresses that, so the
  only tracker entry is the parent's creation - which is what reclaims
  the segments even if the parent is SIGKILLed mid-serve.
* Ring-full (or a batch larger than the ring) is *backpressure*, not an
  error: the backend degrades that batch to the classic pipe-pickle
  path, so memory stays bounded and nothing stalls.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

#: every segment name starts with this - the CI leak check greps for it
SEGMENT_PREFIX = "repro_"

#: default ring capacity per shard (a 32-image batch of float32 24x24
#: RGB images is 221 KB, 442 KB in float64; shards execute serially, so
#: a few in-flight batches is the realistic high-water mark)
DEFAULT_RING_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class ShmDescriptor:
    """What crosses the pipe instead of the array bytes."""

    offset: int
    shape: "tuple[int, ...]"
    dtype: str

    @classmethod
    def for_array(cls, offset: int, array: np.ndarray) -> "ShmDescriptor":
        return cls(offset=offset, shape=tuple(array.shape), dtype=str(array.dtype))

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


class RingAllocator:
    """Next-fit circular allocator over ``capacity`` bytes.

    ``alloc`` returns a byte offset or ``None`` when no free gap is
    large enough (the caller's backpressure signal); ``free`` reclaims
    a region by its offset, in any order.  The allocation cursor
    continues from the previous allocation's end and wraps to 0, so a
    steady stream of transient regions marches around the arena the way
    a head/tail ring would - but out-of-order frees (batch N+1 finishing
    before batch N) cannot strand capacity.

    Not thread-safe: the process backend serializes calls under its own
    lock.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._regions: "dict[int, int]" = {}  # offset -> size
        self._cursor = 0
        #: lifetime occupancy telemetry: peak concurrent bytes and
        #: alloc/backpressure counts (read by stats() for the metrics
        #: plane; never consulted by the allocation logic itself)
        self.high_water = 0
        self.allocs = 0
        self.alloc_failures = 0

    def alloc(self, nbytes: int) -> "int | None":
        """Reserve ``nbytes``: the ring offset, or ``None`` when full/fragmented."""
        nbytes = max(1, int(nbytes))
        if nbytes > self.capacity:
            self.alloc_failures += 1
            return None
        gaps = self._gaps()
        # next-fit: first gap at/after the cursor, else wrap to the start
        candidates = [g for g in gaps if g[1] - max(g[0], self._cursor) >= nbytes]
        if candidates:
            start, _ = candidates[0]
            offset = max(start, self._cursor)
        else:
            wrapped = [g for g in gaps if g[1] - g[0] >= nbytes]
            if not wrapped:
                self.alloc_failures += 1
                return None
            offset = wrapped[0][0]
        self._regions[offset] = nbytes
        self._cursor = offset + nbytes
        if self._cursor >= self.capacity:
            self._cursor = 0
        self.allocs += 1
        used = self.in_use
        if used > self.high_water:
            self.high_water = used
        return offset

    def free(self, offset: int) -> None:
        """Release the region at ``offset`` (``KeyError`` if not allocated)."""
        if self._regions.pop(offset, None) is None:
            raise KeyError(f"no allocated region at offset {offset}")

    def _gaps(self) -> "list[tuple[int, int]]":
        """Free intervals ``[start, end)`` in offset order."""
        gaps = []
        prev_end = 0
        for offset in sorted(self._regions):
            if offset > prev_end:
                gaps.append((prev_end, offset))
            prev_end = offset + self._regions[offset]
        if prev_end < self.capacity:
            gaps.append((prev_end, self.capacity))
        return gaps

    @property
    def in_use(self) -> int:
        return sum(self._regions.values())

    @property
    def regions(self) -> int:
        return len(self._regions)

    def stats(self) -> dict:
        """JSON-ready occupancy snapshot for the telemetry plane."""
        return {
            "capacity": self.capacity,
            "in_use": self.in_use,
            "regions": len(self._regions),
            "high_water": self.high_water,
            "allocs": self.allocs,
            "alloc_failures": self.alloc_failures,
        }


class ShmArena:
    """One shared-memory segment with offset-addressed array I/O.

    Created by the owner (``name=None``: a fresh prefixed segment) or
    attached by name.  :meth:`write_array` copies into the segment;
    :meth:`read_array` returns a view into it.
    """

    def __init__(
        self, capacity: int, name: "str | None" = None
    ) -> None:
        self.owner = name is None
        if self.owner:
            self._shm = _make_owned_segment(capacity)
            # commit the backing pages now: tmpfs ftruncate is sparse,
            # so without this an overfull /dev/shm surfaces as a SIGBUS
            # on the first batch write mid-serve instead of a clean
            # OSError here (which the backend turns into pipe fallback)
            fd = getattr(self._shm, "_fd", -1)
            if fd >= 0 and hasattr(os, "posix_fallocate"):
                try:
                    os.posix_fallocate(fd, 0, int(capacity))
                except OSError:
                    self._shm.close()
                    try:
                        self._shm.unlink()
                    except FileNotFoundError:
                        pass
                    raise
        else:
            self._shm = shared_memory.SharedMemory(name=name)
        self.capacity = int(capacity)
        self._closed = False
        self._unlinked = False

    @property
    def name(self) -> str:
        return self._shm.name

    def write_array(self, offset: int, array: np.ndarray) -> ShmDescriptor:
        """Copy ``array``'s bytes into the arena at ``offset``."""
        array = np.ascontiguousarray(array)
        end = offset + array.nbytes
        if end > self.capacity:
            raise ValueError(
                f"write of {array.nbytes} B at {offset} exceeds arena "
                f"capacity {self.capacity}"
            )
        dest = np.frombuffer(self._shm.buf, dtype=np.uint8, count=array.nbytes,
                             offset=offset)
        dest[:] = array.view(np.uint8).reshape(-1)
        return ShmDescriptor.for_array(offset, array)

    def read_array(self, desc: ShmDescriptor) -> np.ndarray:
        """The described region as a zero-copy view (bit-exact).

        The view is valid only while the region stays allocated, which
        the shard's reply protocol guarantees for exactly the duration
        of the batch's forward pass (the parent frees a tx region when
        the reply for that batch arrives, and the single-threaded shard
        replies only after ``forward`` returns).
        """
        return np.frombuffer(
            self._shm.buf, dtype=np.dtype(desc.dtype),
            count=int(np.prod(desc.shape, dtype=np.int64)), offset=desc.offset,
        ).reshape(desc.shape)

    def close(self) -> None:
        """Release this process's mapping (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass

    def unlink(self) -> None:
        """Remove the segment from the system (owner only, idempotent)."""
        if not self.owner or self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def destroy(self) -> None:
        """close() + unlink(): the owner's teardown."""
        self.close()
        self.unlink()


def _make_owned_segment(capacity: int) -> shared_memory.SharedMemory:
    """Create a fresh prefixed segment, retrying on name collisions."""
    import secrets

    for _ in range(16):
        name = f"{SEGMENT_PREFIX}{secrets.token_hex(6)}"
        try:
            return shared_memory.SharedMemory(create=True, name=name,
                                              size=int(capacity))
        except FileExistsError:
            continue
    raise OSError("could not allocate a unique shared-memory segment name")


def attach_arena(name: str, capacity: int) -> ShmArena:
    """Shard-side constructor: attach *without* resource-tracker
    registration.

    On Python < 3.13 ``SharedMemory(name=...)`` registers the attachment
    with the resource tracker exactly like a creation.  The tracker
    process is shared with the spawning parent, so that second
    registration is at best a no-op, and *unregistering* it would delete
    the parent's entry - losing the only thing that reclaims segments
    when the parent is SIGKILLed.  The clean ownership model is: the
    parent's creation is tracked, attachments are invisible; 3.13 spells
    that ``track=False``, and here registration is suppressed for the
    duration of the attach.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        arena = ShmArena(capacity, name=name)
    finally:
        resource_tracker.register = original
    return arena
