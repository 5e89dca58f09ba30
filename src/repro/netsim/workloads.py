"""Traffic workload generators.

Benchmarks and integration tests need realistic offered load: constant
bit rate, Poisson arrivals, bursty on-off sources, and Zipf-skewed
content request streams (the CDN workload). Generators are deterministic
given a seed and drive any callable sink on the simulator clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from .engine import Simulator

#: A sink receives (sequence_number, size_bytes) at each generation event.
TrafficSink = Callable[[int, int], Any]


class WorkloadError(Exception):
    """Raised for invalid generator configuration."""


class CBRSource:
    """Constant bit rate: one ``packet_bytes`` packet every interval."""

    def __init__(
        self,
        sim: Simulator,
        sink: TrafficSink,
        rate_bps: float,
        packet_bytes: int = 1000,
    ) -> None:
        if rate_bps <= 0 or packet_bytes <= 0:
            raise WorkloadError("rate and packet size must be positive")
        self.sim = sim
        self.sink = sink
        self.packet_bytes = packet_bytes
        self.interval = packet_bytes * 8 / rate_bps
        self.sent = 0
        self._running = False

    def start(self, duration: Optional[float] = None) -> None:
        self._running = True
        self._stop_at = None if duration is None else self.sim.now + duration
        self.sim.schedule(self.interval, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        if self._stop_at is not None and self.sim.now > self._stop_at:
            self._running = False
            return
        self.sink(self.sent, self.packet_bytes)
        self.sent += 1
        self.sim.schedule(self.interval, self._tick)


class PoissonSource:
    """Poisson arrivals at ``rate_pps`` with fixed packet size."""

    def __init__(
        self,
        sim: Simulator,
        sink: TrafficSink,
        rate_pps: float,
        packet_bytes: int = 1000,
        seed: int = 0,
    ) -> None:
        if rate_pps <= 0:
            raise WorkloadError("rate must be positive")
        self.sim = sim
        self.sink = sink
        self.rate_pps = rate_pps
        self.packet_bytes = packet_bytes
        self._rng = random.Random(seed)
        self.sent = 0
        self._running = False
        self._stop_at: Optional[float] = None

    def start(self, duration: Optional[float] = None) -> None:
        self._running = True
        self._stop_at = None if duration is None else self.sim.now + duration
        self.sim.schedule(self._next_gap(), self._tick)

    def stop(self) -> None:
        self._running = False

    def _next_gap(self) -> float:
        return self._rng.expovariate(self.rate_pps)

    def _tick(self) -> None:
        if not self._running:
            return
        if self._stop_at is not None and self.sim.now > self._stop_at:
            self._running = False
            return
        self.sink(self.sent, self.packet_bytes)
        self.sent += 1
        self.sim.schedule(self._next_gap(), self._tick)


class OnOffSource:
    """Bursty on-off source: exponential on/off periods, CBR while on."""

    def __init__(
        self,
        sim: Simulator,
        sink: TrafficSink,
        rate_bps: float,
        mean_on: float = 0.5,
        mean_off: float = 0.5,
        packet_bytes: int = 1000,
        seed: int = 0,
    ) -> None:
        if min(rate_bps, mean_on, mean_off) <= 0:
            raise WorkloadError("all parameters must be positive")
        self.sim = sim
        self.sink = sink
        self.packet_bytes = packet_bytes
        self.interval = packet_bytes * 8 / rate_bps
        self.mean_on = mean_on
        self.mean_off = mean_off
        self._rng = random.Random(seed)
        self.sent = 0
        self.bursts = 0
        self._running = False
        self._on_until = 0.0
        self._stop_at: Optional[float] = None

    def start(self, duration: Optional[float] = None) -> None:
        self._running = True
        self._stop_at = None if duration is None else self.sim.now + duration
        self._begin_burst()

    def stop(self) -> None:
        self._running = False

    def _expired(self) -> bool:
        return self._stop_at is not None and self.sim.now > self._stop_at

    def _begin_burst(self) -> None:
        if not self._running or self._expired():
            return
        self.bursts += 1
        self._on_until = self.sim.now + self._rng.expovariate(1 / self.mean_on)
        self._tick()

    def _tick(self) -> None:
        if not self._running or self._expired():
            return
        if self.sim.now >= self._on_until:
            off = self._rng.expovariate(1 / self.mean_off)
            self.sim.schedule(off, self._begin_burst)
            return
        self.sink(self.sent, self.packet_bytes)
        self.sent += 1
        self.sim.schedule(self.interval, self._tick)


@dataclass
class ZipfRequestStream:
    """Zipf-skewed content requests over a catalog (the CDN workload).

    ``alpha`` near 0.8-1.2 matches measured CDN popularity curves; the
    stream yields object indices, hot objects first by construction.
    """

    catalog_size: int
    alpha: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.catalog_size < 1:
            raise WorkloadError("catalog must be non-empty")
        if self.alpha <= 0:
            raise WorkloadError("alpha must be positive")
        import numpy as np

        ranks = np.arange(1, self.catalog_size + 1, dtype=float)
        weights = ranks ** (-self.alpha)
        self._probs = weights / weights.sum()
        self._rng = np.random.default_rng(self.seed)

    def take(self, n: int) -> list[int]:
        """Draw ``n`` object indices (0-based, 0 = most popular)."""
        return list(
            self._rng.choice(self.catalog_size, size=n, p=self._probs)
        )

    def __iter__(self) -> Iterator[int]:
        while True:
            yield int(self._rng.choice(self.catalog_size, p=self._probs))

    def expected_hit_rate(self, cache_slots: int) -> float:
        """Idealized LFU hit rate: mass of the ``cache_slots`` hottest."""
        slots = min(cache_slots, self.catalog_size)
        return float(self._probs[:slots].sum())
