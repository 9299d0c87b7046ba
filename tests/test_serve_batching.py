"""Scheduler edge cases for the dynamic micro-batcher."""

import threading
import time

import numpy as np
import pytest

from repro.serve.batching import BatchingPolicy, InferenceRequest, MicroBatcher


def make_request(rid: int, n_images: int = 1, side: int = 4) -> InferenceRequest:
    return InferenceRequest(
        request_id=rid,
        images=np.zeros((n_images, 3, side, side)),
        error_model=None,
    )


class Collector:
    """Dispatch target recording batch compositions and resolving futures."""

    def __init__(self, delay_s: float = 0.0):
        self.batches: "list[list[int]]" = []
        self.delay_s = delay_s
        self._lock = threading.Lock()

    def __call__(self, batch):
        if self.delay_s:
            time.sleep(self.delay_s)
        with self._lock:
            self.batches.append([r.request_id for r in batch])
        for r in batch:
            r.future.set_result(r.request_id)

    def dispatched_ids(self):
        with self._lock:
            return [i for b in self.batches for i in b]


class TestPolicy:
    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchingPolicy(max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch_size=4, min_fill=5)
        with pytest.raises(ValueError):
            BatchingPolicy(min_fill=0)


class TestScheduling:
    def test_empty_queue_then_late_request_is_served(self):
        """The scheduler idles on an empty queue without busy-spinning or
        dying, and serves a request that arrives much later."""
        collector = Collector()
        batcher = MicroBatcher(collector, BatchingPolicy(max_batch_size=4))
        try:
            time.sleep(0.15)  # scheduler sits on the empty queue
            assert collector.batches == []
            req = make_request(1)
            fut = batcher.submit(req)
            assert fut.result(timeout=5.0) == 1
            assert collector.batches == [[1]]
        finally:
            batcher.close()

    def test_backlog_coalesces_into_one_batch(self):
        slow = Collector(delay_s=0.1)
        batcher = MicroBatcher(slow, BatchingPolicy(max_batch_size=8))
        try:
            futs = [batcher.submit(make_request(i)) for i in range(6)]
            for f in futs:
                f.result(timeout=5.0)
            # first dispatch may catch only the earliest arrivals, but the
            # backlog accumulated behind it must coalesce
            assert len(slow.batches) < 6
            assert max(len(b) for b in slow.batches) > 1
            assert sorted(slow.dispatched_ids()) == list(range(6))
        finally:
            batcher.close()

    def test_cap_respected(self):
        slow = Collector(delay_s=0.05)
        batcher = MicroBatcher(slow, BatchingPolicy(max_batch_size=3))
        try:
            futs = [batcher.submit(make_request(i)) for i in range(10)]
            for f in futs:
                f.result(timeout=5.0)
            assert all(len(b) <= 3 for b in slow.batches)
        finally:
            batcher.close()

    def test_oversized_request_dispatched_alone(self):
        collector = Collector()
        batcher = MicroBatcher(collector, BatchingPolicy(max_batch_size=4))
        try:
            big = make_request(1, n_images=9)  # exceeds the cap
            small = make_request(2)
            f1, f2 = batcher.submit(big), batcher.submit(small)
            f1.result(timeout=5.0)
            f2.result(timeout=5.0)
            assert [1] in collector.batches  # never split, never merged
        finally:
            batcher.close()

    def test_overflowing_request_carried_to_next_batch(self):
        slow = Collector(delay_s=0.05)
        batcher = MicroBatcher(slow, BatchingPolicy(max_batch_size=4))
        try:
            futs = [batcher.submit(make_request(i, n_images=3)) for i in range(3)]
            for f in futs:
                f.result(timeout=5.0)
            # 3-image requests cannot pair under a 4-image cap
            assert all(len(b) == 1 for b in slow.batches)
            assert sorted(slow.dispatched_ids()) == [0, 1, 2]
        finally:
            batcher.close()

    def test_shape_change_starts_a_new_batch(self):
        """Requests of another image shape than the open batch's are
        carried over, not coalesced: one batch per run of a shape, in
        arrival order."""
        collector = Collector()
        policy = BatchingPolicy(max_batch_size=8, min_fill=8, max_wait_ms=100.0)
        batcher = MicroBatcher(collector, policy)
        try:
            sides = (4, 4, 6, 6, 4)
            futs = [
                batcher.submit(make_request(i, side=side))
                for i, side in enumerate(sides)
            ]
            for f in futs:
                f.result(timeout=5.0)
            assert collector.batches == [[0, 1], [2, 3], [4]]
        finally:
            batcher.close()

    def test_min_fill_waits_then_flushes_partial_batch(self):
        collector = Collector()
        policy = BatchingPolicy(max_batch_size=8, min_fill=4, max_wait_ms=80.0)
        batcher = MicroBatcher(collector, policy)
        try:
            t0 = time.monotonic()
            fut = batcher.submit(make_request(1))
            assert fut.result(timeout=5.0) == 1
            waited = time.monotonic() - t0
            # held for companions (~max_wait_ms), then flushed below min_fill
            assert waited >= 0.05
            assert collector.batches == [[1]]
        finally:
            batcher.close()


class TestShutdown:
    def test_close_drains_in_flight_requests(self):
        slow = Collector(delay_s=0.05)
        batcher = MicroBatcher(slow, BatchingPolicy(max_batch_size=2))
        futs = [batcher.submit(make_request(i)) for i in range(7)]
        batcher.close(timeout=10.0)  # graceful: queued work completes
        assert sorted(f.result(timeout=0.1) for f in futs) == list(range(7))

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(Collector(), BatchingPolicy())
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(make_request(1))

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(Collector(), BatchingPolicy())
        batcher.close()
        batcher.close()
        assert batcher.closed
