"""Proactive domain management: SN load balancing (Appendix C).

Appendix C closes: "the likely bottleneck is the total traffic being
handled by any SN, which can be load-balanced by proactive domain
management." This module is that management: an edomain-level balancer
that watches per-SN load (via :mod:`repro.core.monitoring` snapshots) and
migrates host associations from overloaded SNs to underloaded ones in the
same edomain.

Migration uses only architecturally-sanctioned moves: a fresh host↔SN
association (the host keeps its old one until the new one works — make
before break) plus a lookup-service record update so future connections
resolve to the new SN. In-flight connections keep working because the old
association is never torn down mid-move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netsim.link import Link
from .edomain import Edomain
from .host import Host
from .monitoring import snapshot_sn


@dataclass
class Migration:
    """One host moved between SNs."""

    host_address: str
    from_sn: str
    to_sn: str
    at: float


@dataclass
class BalancePlan:
    """What the balancer decided in one pass."""

    overloaded: list[str] = field(default_factory=list)
    migrations: list[Migration] = field(default_factory=list)


class EdomainBalancer:
    """Watches one edomain's SNs and rebalances host associations.

    Load is measured as packets handled since the last pass; an SN is
    overloaded when its share exceeds ``imbalance_factor`` times the
    edomain mean. One host moves per overloaded SN per pass (gentle,
    convergent rebalancing).
    """

    def __init__(
        self,
        edomain: Edomain,
        hosts: dict[str, Host],
        lookup=None,
        imbalance_factor: float = 2.0,
    ) -> None:
        if imbalance_factor <= 1.0:
            raise ValueError("imbalance_factor must exceed 1.0")
        self.edomain = edomain
        self.hosts = hosts  # address -> Host, the balancer's inventory
        self.lookup = lookup
        self.imbalance_factor = imbalance_factor
        self._last_packets: dict[str, int] = {}
        self.history: list[BalancePlan] = []

    # -- measurement ----------------------------------------------------------
    def _load_since_last(self) -> dict[str, int]:
        loads = {}
        for address, sn in self.edomain.sns.items():
            total = snapshot_sn(sn).packets_in
            loads[address] = total - self._last_packets.get(address, 0)
            self._last_packets[address] = total
        return loads

    # -- planning -----------------------------------------------------------
    def plan(self, loads: dict[str, int]) -> BalancePlan:
        plan = BalancePlan()
        if len(loads) < 2:
            return plan
        mean = sum(loads.values()) / len(loads)
        if mean == 0:
            return plan
        coldest = min(loads, key=lambda a: loads[a])
        for address, load in sorted(
            loads.items(), key=lambda kv: kv[1], reverse=True
        ):
            if load < self.imbalance_factor * mean or address == coldest:
                continue
            plan.overloaded.append(address)
            sn = self.edomain.sns[address]
            candidates = [
                h for h in sorted(sn.associated_hosts) if h in self.hosts
            ]
            if candidates:
                plan.migrations.append(
                    Migration(
                        host_address=candidates[0],
                        from_sn=address,
                        to_sn=coldest,
                        at=sn.sim.now,
                    )
                )
        return plan

    # -- execution -----------------------------------------------------------
    def _migrate(self, migration: Migration) -> None:
        host = self.hosts[migration.host_address]
        target = self.edomain.sns[migration.to_sn]
        if not host.has_link_to(target):
            Link(host.sim, host, target, latency=0.001)
        target.associate_host(host)
        # Prefer the new SN for future connections: reorder first hops.
        host.prefer_first_hop(target.address)
        if self.lookup is not None:
            record = self.lookup.address_record(host.address)
            if record is not None:
                record.associated_sns.insert(0, target.address)
                while record.associated_sns.count(target.address) > 1:
                    record.associated_sns.reverse()
                    record.associated_sns.remove(target.address)
                    record.associated_sns.reverse()

    def rebalance(self) -> BalancePlan:
        """One measurement + migration pass; returns what was done."""
        loads = self._load_since_last()
        plan = self.plan(loads)
        for migration in plan.migrations:
            self._migrate(migration)
        self.history.append(plan)
        return plan

    def run_periodic(self, interval: float) -> None:
        """Rebalance every ``interval`` virtual seconds."""
        sim = next(iter(self.edomain.sns.values())).sim

        def tick() -> None:
            self.rebalance()
            sim.schedule(interval, tick)

        sim.schedule(interval, tick)
