"""Unit tests for tracing and statistics helpers."""

import pytest

from repro.netsim.trace import FlowStats, PacketTrace, percentile, summarize


class TestPacketTrace:
    def test_record_and_filter(self):
        trace = PacketTrace()
        trace.record(0.0, "sn1", "rx")
        trace.record(0.1, "sn1", "tx")
        trace.record(0.2, "sn2", "rx")
        assert trace.count() == 3
        assert trace.count(event="rx") == 2
        assert trace.count(node="sn1") == 2
        assert trace.count(event="rx", node="sn2") == 1

    def test_clear(self):
        trace = PacketTrace()
        trace.record(0.0, "a", "x")
        trace.clear()
        assert trace.count() == 0


class TestPercentile:
    def test_median_odd(self):
        assert percentile([1.0, 2.0, 3.0], 50) == 2.0

    def test_median_even_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_extremes(self):
        values = [float(i) for i in range(10)]
        assert percentile(values, 0) == 0.0
        assert percentile(values, 100) == 9.0

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_pct(self):
        with pytest.raises(ValueError):
            percentile([1.0], 120)


class TestFlowStats:
    def test_latency_summary(self):
        stats = FlowStats()
        for i in range(10):
            stats.add(sent_at=0.0, received_at=0.001 * (i + 1), size=100)
        summary = stats.latency_summary()
        assert summary["count"] == 10
        assert summary["min"] == pytest.approx(0.001)
        assert summary["max"] == pytest.approx(0.010)
        assert summary["median"] == pytest.approx(0.0055)

    def test_empty_summary(self):
        assert FlowStats().latency_summary() == {"count": 0}

    def test_delivery_ratio(self):
        stats = FlowStats()
        stats.sent(4)
        stats.add(0.0, 0.1)
        stats.add(0.0, 0.1)
        assert stats.delivery_ratio == 0.5

    def test_delivery_ratio_nothing_sent(self):
        assert FlowStats().delivery_ratio == 0.0

    def test_throughput(self):
        stats = FlowStats()
        stats.add(0.0, 1.0, size=1000)
        assert stats.throughput_bps(1.0) == pytest.approx(8000.0)
        assert stats.throughput_bps(0.0) == 0.0


class TestSummarize:
    def test_basic(self):
        summary = summarize([3.0, 1.0, 2.0])
        assert summary["count"] == 3
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)

    def test_empty(self):
        assert summarize([]) == {"count": 0}
