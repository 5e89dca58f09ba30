"""Unit tests for the scheduling primitives (WFQ, priority, bucket)."""

import pytest

from repro.sched import PriorityScheduler, TokenBucket, WeightedFairQueue
from repro.sched.wfq import SchedulerError


class TestTokenBucket:
    def test_burst_allows_initial_packets(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=1000)
        assert bucket.try_consume(1000, now=0.0)
        assert not bucket.try_consume(1, now=0.0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=1000)  # 1000 B/s
        bucket.try_consume(1000, now=0.0)
        assert not bucket.try_consume(500, now=0.1)  # only 100 B refilled
        assert bucket.try_consume(500, now=0.5)

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=100)
        assert bucket.tokens_at(1000.0) == 100

    def test_time_until_available(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=1000)
        bucket.try_consume(1000, now=0.0)
        assert bucket.time_until_available(1000, now=0.0) == pytest.approx(1.0)
        assert bucket.time_until_available(0, now=0.0) == 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_bps=0, burst_bytes=10)
        with pytest.raises(ValueError):
            TokenBucket(rate_bps=10, burst_bytes=0)


class TestWFQ:
    def test_service_proportional_to_weights(self):
        wfq = WeightedFairQueue()
        wfq.add_flow("heavy", weight=3.0)
        wfq.add_flow("light", weight=1.0)
        for i in range(100):
            wfq.enqueue("heavy", 100, f"h{i}")
            wfq.enqueue("light", 100, f"l{i}")
        # Dequeue half the backlog and compare service.
        for _ in range(100):
            wfq.dequeue()
        ratio = wfq.bytes_dequeued("heavy") / max(1, wfq.bytes_dequeued("light"))
        assert ratio == pytest.approx(3.0, rel=0.2)

    def test_fifo_within_flow(self):
        wfq = WeightedFairQueue()
        wfq.add_flow("f", weight=1.0)
        for i in range(5):
            wfq.enqueue("f", 10, i)
        out = [wfq.dequeue()[2] for _ in range(5)]
        assert out == [0, 1, 2, 3, 4]

    def test_empty_dequeue_returns_none(self):
        assert WeightedFairQueue().dequeue() is None

    def test_backlog_tracking(self):
        wfq = WeightedFairQueue()
        wfq.add_flow("f", weight=1.0)
        wfq.enqueue("f", 10, "x")
        assert len(wfq) == 1
        assert wfq.backlog("f") == 1
        wfq.dequeue()
        assert wfq.empty

    def test_idle_reset_prevents_starvation_bias(self):
        wfq = WeightedFairQueue()
        wfq.add_flow("a", weight=1.0)
        wfq.add_flow("b", weight=1.0)
        wfq.enqueue("a", 1_000_000, "big")
        wfq.dequeue()
        # System went idle; new arrivals must compete fresh.
        wfq.enqueue("b", 10, "x")
        wfq.enqueue("a", 10, "y")
        assert wfq.dequeue()[0] == "b"

    def test_unknown_flow_rejected(self):
        with pytest.raises(SchedulerError):
            WeightedFairQueue().enqueue("ghost", 1, None)

    def test_duplicate_flow_rejected(self):
        wfq = WeightedFairQueue()
        wfq.add_flow("f", 1.0)
        with pytest.raises(SchedulerError):
            wfq.add_flow("f", 2.0)

    def test_invalid_weight(self):
        with pytest.raises(SchedulerError):
            WeightedFairQueue().add_flow("f", 0.0)


class TestPriorityScheduler:
    def test_strict_priority_order(self):
        sched = PriorityScheduler()
        sched.add_flow("gaming", priority=0)
        sched.add_flow("bulk", priority=2)
        sched.enqueue("bulk", 100, "b")
        sched.enqueue("gaming", 100, "g")
        assert sched.dequeue()[0] == "gaming"
        assert sched.dequeue()[0] == "bulk"

    def test_wfq_within_level(self):
        sched = PriorityScheduler()
        sched.add_flow("a", priority=1, weight=2.0)
        sched.add_flow("b", priority=1, weight=1.0)
        for i in range(60):
            sched.enqueue("a", 100, i)
            sched.enqueue("b", 100, i)
        for _ in range(60):
            sched.dequeue()
        assert sched.bytes_dequeued("a") > sched.bytes_dequeued("b")

    def test_low_priority_served_when_high_empty(self):
        sched = PriorityScheduler()
        sched.add_flow("hi", priority=0)
        sched.add_flow("lo", priority=5)
        sched.enqueue("lo", 10, "x")
        assert sched.dequeue() == ("lo", 10, "x")
        assert sched.empty

    def test_duplicate_flow_rejected(self):
        sched = PriorityScheduler()
        sched.add_flow("f", priority=0)
        with pytest.raises(SchedulerError):
            sched.add_flow("f", priority=1)

    def test_unknown_flow_rejected(self):
        with pytest.raises(SchedulerError):
            PriorityScheduler().enqueue("ghost", 1, None)
