"""Shared-memory shard transport: ring edge cases, cleanup.

The transport's contract, beyond the bit-equivalence locked in
``test_serve_backends.py``: ring allocation wraps and reclaims out of
completion order, a batch larger than the ring degrades to the pipe
path (backpressure, not failure), a shard crash mid-batch redispatches
its work *and* reclaims its segments, ``close()`` is idempotent, and no
``/dev/shm/repro_*`` segment survives the backend under any exit path.
"""

import errno
import glob
import time

import numpy as np
import pytest

from repro.cnn.datasets import N_CLASSES, generate_dataset
from repro.cnn.inference import QuantizedModel
from repro.cnn.micro import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.serve import (
    BatchingPolicy,
    ProcessBackend,
    RingAllocator,
    SconnaService,
    ShmArena,
)
from repro.serve import backends
from repro.serve.shm import SEGMENT_PREFIX, attach_arena
from repro.utils.rng import make_rng

POLICY = BatchingPolicy(max_batch_size=8, max_wait_ms=2.0)


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


def segments_alive(names) -> "list[str]":
    return [n for n in names if glob.glob(f"/dev/shm/{n}")]


class TestRingAllocator:
    def test_wrap_around(self):
        """The cursor wraps to reclaimed space at the front of the ring."""
        ring = RingAllocator(100)
        a = ring.alloc(40)
        b = ring.alloc(40)
        assert (a, b) == (0, 40)
        assert ring.alloc(40) is None  # only 20 B left at the tail
        ring.free(a)
        wrapped = ring.alloc(40)
        assert wrapped == 0  # wrapped past the live region at 40..80
        assert ring.in_use == 80
        ring.free(b)
        ring.free(wrapped)
        assert ring.in_use == 0

    def test_out_of_order_free_cannot_strand_capacity(self):
        ring = RingAllocator(100)
        offsets = [ring.alloc(25) for _ in range(4)]
        assert ring.alloc(1) is None
        # free in reverse completion order - a head/tail ring would
        # strand everything behind the oldest live region
        for off in reversed(offsets[:3]):
            ring.free(off)
        assert ring.alloc(75) == 0
        ring.free(offsets[3])

    def test_oversized_and_full(self):
        ring = RingAllocator(64)
        assert ring.alloc(65) is None
        assert ring.alloc(64) == 0
        assert ring.alloc(1) is None

    def test_double_free_raises(self):
        ring = RingAllocator(16)
        off = ring.alloc(8)
        ring.free(off)
        with pytest.raises(KeyError):
            ring.free(off)

    def test_validation(self):
        with pytest.raises(ValueError):
            RingAllocator(0)


class TestShmArena:
    def test_roundtrip_bit_exact_and_prefixed(self):
        arena = ShmArena(1 << 16)
        try:
            assert arena.name.startswith(SEGMENT_PREFIX)
            data = np.arange(96, dtype=np.float64).reshape(2, 3, 4, 4)
            data += 1e-9  # non-trivial mantissas
            desc = arena.write_array(128, data)
            assert desc.offset == 128 and desc.dtype == "float64"
            out = arena.read_array(desc)
            assert np.array_equal(out, data)
            assert not out.flags.owndata  # a view into the arena, never a copy
            del out  # no view may outlive the mapping
        finally:
            arena.destroy()
        assert not glob.glob(f"/dev/shm/{arena.name}")

    def test_attach_sees_owner_writes(self):
        arena = ShmArena(4096)
        try:
            data = np.linspace(0.0, 1.0, 32, dtype=np.float64)
            desc = arena.write_array(0, data)
            attachment = attach_arena(arena.name, 4096)
            try:
                assert np.array_equal(attachment.read_array(desc), data)
            finally:
                attachment.close()
        finally:
            arena.destroy()

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8])
    def test_integer_arrays_cross_ring_without_upcast(self, dtype):
        """uint8/int8 batches keep their dtype through the shm ring: the
        descriptor records the narrow dtype and the reader rebuilds the
        exact bytes - no float64 materialisation in transport."""
        arena = ShmArena(1 << 14)
        try:
            data = np.arange(2 * 3 * 4 * 4, dtype=dtype).reshape(2, 3, 4, 4)
            desc = arena.write_array(64, data)
            assert desc.dtype == np.dtype(dtype).name
            assert desc.nbytes == data.nbytes  # 1 byte/px: never widened
            out = arena.read_array(desc)
            assert out.dtype == np.dtype(dtype)
            assert np.array_equal(out, data)
            del out  # no view may outlive the mapping
            attachment = attach_arena(arena.name, 1 << 14)
            try:
                other = attachment.read_array(desc)
                assert other.dtype == np.dtype(dtype)
                assert np.array_equal(other, data)
                del other
            finally:
                attachment.close()
        finally:
            arena.destroy()

    def test_write_past_capacity_rejected(self):
        arena = ShmArena(64)
        try:
            with pytest.raises(ValueError, match="exceeds arena"):
                arena.write_array(32, np.zeros(8, dtype=np.float64))
        finally:
            arena.destroy()

    def test_destroy_idempotent(self):
        arena = ShmArena(4096)
        arena.destroy()
        arena.destroy()  # second unlink must not raise


class TestShmTransport:
    def test_batch_larger_than_ring_falls_back_to_pipe(self, setup):
        """A ring smaller than one image cannot carry any batch: every
        dispatch degrades to the pipe path and results are unchanged."""
        qm, ds = setup
        backend = ProcessBackend(n_shards=1, ring_bytes=4096)
        svc = SconnaService(policy=POLICY, backend=backend)
        svc.add_model("tiny", qm)
        try:
            direct = svc.predict("tiny", ds.images[0], ideal=True, timeout=120.0)
            info = backend.info()
            assert info["pipe_fallbacks"] >= 1
            assert info["shm_batches"] == 0
            from repro.stochastic.error_models import SconnaErrorModel

            expected = qm.forward(
                ds.images[0][None], mode="sconna",
                error_model=SconnaErrorModel(adc_mape=0.0),
            )
            assert np.array_equal(direct.logits, expected)
        finally:
            svc.close()
        assert not segments_alive(backend.segment_names)

    def test_shm_batches_flow_through_rings(self, setup):
        qm, ds = setup
        backend = ProcessBackend(n_shards=1)
        svc = SconnaService(policy=POLICY, backend=backend)
        svc.add_model("tiny", qm)
        try:
            futs = [
                svc.predict_async("tiny", ds.images[i % 6], seed=i)
                for i in range(10)
            ]
            for f in futs:
                f.result(120.0)
            info = backend.info()
            assert info["shm_batches"] >= 1
            assert info["pipe_fallbacks"] == 0
            # every completed batch returned its tx region
            assert info["per_shard"][0]["ring_bytes_in_use"] == 0
        finally:
            svc.close()

    def test_ring_batch_is_one_pipe_message(self, setup, monkeypatch):
        """A batch through the ring costs one parent->shard message: the
        logits come back in the reply, with nothing to free afterwards."""
        qm, ds = setup
        backend = ProcessBackend(n_shards=1)
        svc = SconnaService(policy=POLICY, backend=backend)
        svc.add_model("tiny", qm)
        sent = []
        original = backends._Shard.send

        def send(shard, msg):
            sent.append(msg[0])
            original(shard, msg)

        monkeypatch.setattr(backends._Shard, "send", send)
        try:
            svc.predict("tiny", ds.images[0], seed=1, timeout=120.0)
            info = backend.info()
            assert info["shm_batches"] == 1
            assert info["pipe_fallbacks"] == 0
            assert sent == ["batch"]
        finally:
            svc.close()

    def test_crash_mid_batch_redispatches_and_reclaims_segments(self, setup):
        qm, ds = setup
        backend = ProcessBackend(n_shards=2)
        svc = SconnaService(policy=POLICY, backend=backend)
        svc.add_model("tiny", qm)
        try:
            expected = svc.predict("tiny", ds.images[2], seed=5, timeout=120.0)
            before = set(backend.segment_names)
            assert len(before) == 2  # one ring per shard
            restarts = backend.restarts
            victim = backend._shards[0]
            victim_name = victim.tx.name
            # keep requests in flight while the shard dies
            futs = [
                svc.predict_async("tiny", ds.images[i % 6], seed=100 + i)
                for i in range(8)
            ]
            victim.process.terminate()
            for f in futs:
                f.result(120.0)  # redispatched, not dropped
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if backend.info()["alive"] == 2 and backend.restarts > restarts:
                    break
                time.sleep(0.05)
            assert backend.restarts > restarts
            # the dead shard's ring is gone; the respawn got a fresh one
            assert not segments_alive({victim_name})
            assert len(set(backend.segment_names) - before) == 1
            after = svc.predict("tiny", ds.images[2], seed=5, timeout=120.0)
            assert np.array_equal(after.logits, expected.logits)
        finally:
            svc.close()
        assert not segments_alive(backend.segment_names)

    def test_respawn_without_room_for_rings_runs_ringless(
        self, setup, monkeypatch, recwarn
    ):
        """A shard that crashes while /dev/shm cannot hold fresh rings
        still comes back: its slot respawns without rings, its batches
        ride the pipe, seeded logits are unchanged, and nothing leaks."""
        qm, ds = setup
        # one shard, so the requests below must use the respawned slot
        backend = ProcessBackend(n_shards=1)
        svc = SconnaService(policy=POLICY, backend=backend)
        svc.add_model("tiny", qm)
        try:
            expected = svc.predict("tiny", ds.images[2], seed=5, timeout=120.0)

            def full(*args, **kwargs):
                raise OSError(errno.ENOSPC, "No space left on device")

            monkeypatch.setattr(backends, "ShmArena", full)
            backend._shards[0].process.terminate()
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if backend.info()["alive"] == 1 and backend.restarts == 1:
                    break
                time.sleep(0.05)
            info = backend.info()
            assert backend.restarts == 1
            assert info["alive"] == 1
            assert info["per_shard"][0]["ring_bytes_in_use"] is None
            assert any("without shared-memory rings" in str(w.message)
                       for w in recwarn.list)
            fallbacks = info["pipe_fallbacks"]
            after = svc.predict("tiny", ds.images[2], seed=5, timeout=120.0)
            assert np.array_equal(after.logits, expected.logits)
            assert backend.info()["pipe_fallbacks"] > fallbacks
        finally:
            svc.close()
        assert not segments_alive(backend.segment_names)

    def test_failed_construction_reaps_spawned_shards(self, monkeypatch):
        """A shard that cannot start fails the constructor without
        leaking the shards and rings spawned before it."""
        spawned = []
        original = ProcessBackend._spawn

        def spawn(self, slot):
            if slot == 1:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            spawned.append(original(self, slot))
            return spawned[-1]

        monkeypatch.setattr(ProcessBackend, "_spawn", spawn)
        with pytest.raises(OSError):
            ProcessBackend(n_shards=2)
        (shard,) = spawned
        assert not shard.process.is_alive()
        assert not segments_alive({shard.tx.name})

    def test_close_idempotent_and_leak_free(self, setup):
        qm, ds = setup
        backend = ProcessBackend(n_shards=1)
        svc = SconnaService(policy=POLICY, backend=backend)
        svc.add_model("tiny", qm)
        svc.predict("tiny", ds.images[0], seed=1, timeout=120.0)
        svc.close()
        svc.close()  # second close is a no-op
        backend.close()  # and so is closing the already-closed backend
        assert not segments_alive(backend.segment_names)
        for shard in backend._shards:
            assert not shard.process.is_alive()

    def test_transport_validation(self):
        with pytest.raises(ValueError, match="ring_bytes"):
            ProcessBackend(ring_bytes=0)
