"""Packet tracing and latency/throughput statistics.

Traces record (time, node, event, packet-ish) tuples; statistics helpers
summarize per-flow latency distributions, which the QoS and inter-domain
benchmarks report.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional


@dataclass(frozen=True)
class TraceRecord:
    time: float
    node: str
    event: str  # e.g. "tx", "rx", "drop", "cache_hit", "service"
    detail: Any = None


class PacketTrace:
    """An append-only event trace with simple query helpers."""

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def record(self, time: float, node: str, event: str, detail: Any = None) -> None:
        self.records.append(TraceRecord(time, node, event, detail))

    def events(self, event: Optional[str] = None, node: Optional[str] = None):
        for rec in self.records:
            if event is not None and rec.event != event:
                continue
            if node is not None and rec.node != node:
                continue
            yield rec

    def count(self, event: Optional[str] = None, node: Optional[str] = None) -> int:
        return sum(1 for _ in self.events(event, node))

    def clear(self) -> None:
        self.records.clear()


@dataclass
class LatencySample:
    sent_at: float
    received_at: float

    @property
    def latency(self) -> float:
        return self.received_at - self.sent_at


@dataclass
class FlowStats:
    """Aggregated delivery statistics for one logical flow."""

    samples: list[LatencySample] = field(default_factory=list)
    bytes_delivered: int = 0
    packets_sent: int = 0

    def sent(self, count: int = 1) -> None:
        """Book ``count`` packets sent on this flow (the ratio's denominator)."""
        self.packets_sent += count

    def add(self, sent_at: float, received_at: float, size: int = 0) -> None:
        self.samples.append(LatencySample(sent_at, received_at))
        self.bytes_delivered += size

    @property
    def packets_delivered(self) -> int:
        return len(self.samples)

    @property
    def delivery_ratio(self) -> float:
        if self.packets_sent == 0:
            return 0.0
        return self.packets_delivered / self.packets_sent

    def latency_summary(self) -> dict[str, float]:
        if not self.samples:
            return {"count": 0}
        lats = sorted(s.latency for s in self.samples)
        return {
            "count": len(lats),
            "min": lats[0],
            "max": lats[-1],
            "mean": statistics.fmean(lats),
            "median": percentile(lats, 50.0),
            "p99": percentile(lats, 99.0),
        }

    def throughput_bps(self, duration: float) -> float:
        if duration <= 0:
            return 0.0
        return self.bytes_delivered * 8 / duration


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        raise ValueError("empty sample")
    if not 0 <= pct <= 100:
        raise ValueError("pct must be in [0, 100]")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (pct / 100.0) * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    # Formulated as lo + frac*(hi-lo) so equal neighbors interpolate to
    # exactly themselves (no floating-point excursion past the bounds).
    return sorted_values[lo] + frac * (sorted_values[hi] - sorted_values[lo])


def summarize(values: Iterable[float]) -> dict[str, float]:
    """Generic distribution summary used in benchmark reports."""
    ordered = sorted(values)
    if not ordered:
        return {"count": 0}
    return {
        "count": len(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "mean": statistics.fmean(ordered),
        "median": percentile(ordered, 50.0),
        "p90": percentile(ordered, 90.0),
        "p99": percentile(ordered, 99.0),
    }
