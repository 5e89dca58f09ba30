"""Federation-wide monitoring and operational metrics.

IESPs operate SNs; operating them needs observability. This module
aggregates the counters every component already keeps (terminus stats,
cache stats, PSP stats, per-service counters, enclave crossings) into
uniform snapshots — per SN, per edomain, and federation-wide — suitable
for dashboards, capacity planning (the §5 "volume and location" pricing
inputs), and the neutrality audit trail.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Optional

from ..obs import MetricsRegistry, merged_registry, to_json, to_table
from .federation import InterEdge
from .overload import BreakerState
from .service_node import ServiceNode


@dataclass(frozen=True)
class SNSnapshot:
    """One SN's health at a point in (virtual) time."""

    name: str
    address: str
    edomain: str
    taken_at: float
    packets_in: int
    packets_out: int
    fast_path: int
    punts: int
    drops: int
    cache_entries: int
    cache_hit_rate: float
    psp_peers: int
    services: int
    storage_keys: int
    associated_hosts: int
    # Pipe health (zeros when the SN runs without a health monitor).
    pipes_up: int = 0
    pipes_suspect: int = 0
    pipes_dead: int = 0
    keepalives_sent: int = 0
    keepalives_received: int = 0
    crashed: bool = False
    # Miss-queue accounting (parked is cumulative; dropped feeds `drops`).
    miss_parked: int = 0
    miss_dropped: int = 0
    # Latency percentiles from the obs histograms (seconds; zeros when the
    # SN runs without observability — see ServiceNode.enable_observability).
    lat_p50: float = 0.0
    lat_p99: float = 0.0
    lat_p999: float = 0.0
    punt_p50: float = 0.0
    punt_p99: float = 0.0
    punt_p999: float = 0.0
    # Overload-resilience surface (all zeros on an unconfigured guard).
    breakers_open: int = 0
    breakers_half_open: int = 0
    shed: int = 0
    deadline_misses: int = 0
    stale_entries: int = 0

    @property
    def fast_path_fraction(self) -> float:
        total = self.fast_path + self.punts
        return self.fast_path / total if total else 0.0

    @property
    def deadline_miss_rate(self) -> float:
        """Deadline misses per punt (0 when nothing was punted)."""
        return self.deadline_misses / self.punts if self.punts else 0.0


def snapshot_sn(sn: ServiceNode) -> SNSnapshot:
    from .resilience import PeerState

    stats = sn.terminus.stats
    miss_stats = sn.terminus.miss_queue.stats
    guard = sn.terminus.overload
    # Every drop exit the datapath has is a ``drops_*`` field of the
    # terminus ledger — summed by name prefix so a new counter cannot be
    # forgotten — plus packets discarded from the miss queue on crash.
    # Shed *followers* are already inside drops_shed, so miss_stats.shed
    # is not added again.
    drops = miss_stats.dropped + sum(
        getattr(stats, spec.name)
        for spec in fields(stats)
        if spec.name.startswith("drops_")
    )
    breaker_states = guard.state_counts()
    if sn.health is not None:
        states = sn.health.state_counts()
        pipes_up = states[PeerState.UP]
        pipes_suspect = states[PeerState.SUSPECT]
        pipes_dead = states[PeerState.DEAD]
        keepalives_sent = sn.health.stats.keepalives_sent
        keepalives_received = sn.health.stats.keepalives_received
    else:
        pipes_up = pipes_suspect = pipes_dead = 0
        keepalives_sent = keepalives_received = 0
    if sn.obs is not None:
        lat = sn.obs.terminus_latency
        punt = sn.obs.punt_latency
        lat_p50 = lat.quantile(0.50)
        lat_p99 = lat.quantile(0.99)
        lat_p999 = lat.quantile(0.999)
        punt_p50 = punt.quantile(0.50)
        punt_p99 = punt.quantile(0.99)
        punt_p999 = punt.quantile(0.999)
    else:
        lat_p50 = lat_p99 = lat_p999 = 0.0
        punt_p50 = punt_p99 = punt_p999 = 0.0
    return SNSnapshot(
        name=sn.name,
        address=sn.address,
        edomain=sn.edomain_name,
        taken_at=sn.sim.now,
        packets_in=stats.packets_in,
        packets_out=stats.packets_out,
        fast_path=stats.fast_path,
        punts=stats.punts,
        drops=drops,
        cache_entries=len(sn.cache),
        cache_hit_rate=sn.cache.stats.hit_rate,
        psp_peers=len(sn.keystore),
        services=len(sn.env.service_ids()),
        storage_keys=len(sn.env.storage),
        associated_hosts=len(sn.associated_hosts),
        pipes_up=pipes_up,
        pipes_suspect=pipes_suspect,
        pipes_dead=pipes_dead,
        keepalives_sent=keepalives_sent,
        keepalives_received=keepalives_received,
        crashed=sn.failed,
        miss_parked=miss_stats.parked,
        miss_dropped=miss_stats.dropped,
        lat_p50=lat_p50,
        lat_p99=lat_p99,
        lat_p999=lat_p999,
        punt_p50=punt_p50,
        punt_p99=punt_p99,
        punt_p999=punt_p999,
        breakers_open=breaker_states[BreakerState.OPEN],
        breakers_half_open=breaker_states[BreakerState.HALF_OPEN],
        shed=guard.stats.shed_packets,
        deadline_misses=guard.stats.deadline_misses,
        stale_entries=sn.cache.stale_count,
    )


@dataclass
class FederationReport:
    """Aggregated snapshot across every SN in a federation."""

    taken_at: float
    snapshots: list[SNSnapshot]

    @property
    def total_packets(self) -> int:
        return sum(s.packets_in for s in self.snapshots)

    @property
    def total_drops(self) -> int:
        return sum(s.drops for s in self.snapshots)

    @property
    def drop_rate(self) -> float:
        total = self.total_packets
        return self.total_drops / total if total else 0.0

    @property
    def overall_fast_path_fraction(self) -> float:
        fast = sum(s.fast_path for s in self.snapshots)
        punts = sum(s.punts for s in self.snapshots)
        total = fast + punts
        return fast / total if total else 0.0

    @property
    def dead_pipes(self) -> int:
        """Pipes currently judged dead across the federation."""
        return sum(s.pipes_dead for s in self.snapshots)

    @property
    def crashed_sns(self) -> int:
        return sum(1 for s in self.snapshots if s.crashed)

    def by_edomain(self) -> dict[str, list[SNSnapshot]]:
        grouped: dict[str, list[SNSnapshot]] = {}
        for snap in self.snapshots:
            grouped.setdefault(snap.edomain, []).append(snap)
        return grouped

    def hottest_sns(self, n: int = 5) -> list[SNSnapshot]:
        """The load-balancing input (§C: 'proactive domain management')."""
        return sorted(
            self.snapshots, key=lambda s: s.packets_in, reverse=True
        )[:n]

    def to_rows(self) -> list[dict[str, Any]]:
        """Flat rows for tabular export."""
        return [
            {
                "sn": s.name,
                "edomain": s.edomain,
                "in": s.packets_in,
                "out": s.packets_out,
                "fastpath%": round(100 * s.fast_path_fraction, 1),
                "drops": s.drops,
                "shed": s.shed,
                "cache": s.cache_entries,
                "hosts": s.associated_hosts,
                "pipes!": s.pipes_suspect + s.pipes_dead,
                "brk!": s.breakers_open + s.breakers_half_open,
                "p50(µs)": round(s.lat_p50 * 1e6, 2),
                "p99(µs)": round(s.lat_p99 * 1e6, 2),
                "p999(µs)": round(s.lat_p999 * 1e6, 2),
                "punt_p99(µs)": round(s.punt_p99 * 1e6, 2),
            }
            for s in self.snapshots
        ]


class FederationMonitor:
    """Periodic or on-demand snapshotting over an :class:`InterEdge`."""

    def __init__(self, net: InterEdge) -> None:
        self.net = net
        self.history: list[FederationReport] = []

    def collect(self) -> FederationReport:
        report = FederationReport(
            taken_at=self.net.sim.now,
            snapshots=[snapshot_sn(sn) for sn in self.net.all_sns()],
        )
        self.history.append(report)
        return report

    def start_periodic(self, interval: float) -> None:
        """Collect every ``interval`` virtual seconds until sim ends."""

        def tick() -> None:
            self.collect()
            self.net.sim.schedule(interval, tick)

        self.net.sim.schedule(interval, tick)

    # -- observability export ---------------------------------------------
    def obs_registry(self) -> Optional[MetricsRegistry]:
        """The merged metrics of every obs-armed SN (None when none are).

        Histograms merge bucket-exactly, so the federation-level
        percentiles carry the same error bound as any single SN's; the
        counters are each SN's stats ledgers as of this call.
        """
        armed = [sn.obs for sn in self.net.all_sns() if sn.obs is not None]
        if not armed:
            return None
        for obs in armed:
            obs.collect()
        return merged_registry(obs.registry for obs in armed)

    def obs_json(self) -> Optional[str]:
        """JSON snapshot of the federation-wide merged obs metrics."""
        merged = self.obs_registry()
        return to_json(merged) if merged is not None else None

    def obs_table(self) -> Optional[str]:
        """Human-readable table of the federation-wide merged obs metrics."""
        merged = self.obs_registry()
        if merged is None:
            return None
        return to_table(merged, title="federation observability")

    def deltas(self) -> Optional[dict[str, int]]:
        """Packet/drop growth between the last two reports."""
        if len(self.history) < 2:
            return None
        prev, curr = self.history[-2], self.history[-1]
        return {
            "packets": curr.total_packets - prev.total_packets,
            "drops": curr.total_drops - prev.total_drops,
            "interval": int(curr.taken_at - prev.taken_at),
        }
