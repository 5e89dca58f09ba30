"""SD-WAN service: enterprise overlay path selection (§1.2, §5).

§5: "When an enterprise has arranged for an SD-WAN service, the associated
SN for outgoing packets goes through the enterprise's first-hop SN". The
service picks, per destination site, the best overlay path among candidate
next-hop SNs, using operator-configured link metrics (latency/loss scores),
and fails over when a path is marked down.

Deployed either as an invocable service module or as an imposed module on
an enterprise pass-through SN (both shapes share the path selector).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.decision_cache import CacheKey, Decision
from ..core.ilp import Flags, ILPHeader, TLV
from ..core.packet import Payload
from ..core.service_module import ServiceModule, Verdict, WellKnownService
from .common import route_toward


@dataclass
class PathMetric:
    """Operator-configured quality of one candidate path."""

    via_sn: str
    latency_ms: float
    loss_pct: float = 0.0
    up: bool = True

    @property
    def score(self) -> float:
        """Lower is better; loss dominates latency (1% loss ≈ 50 ms)."""
        return self.latency_ms + self.loss_pct * 50.0


@dataclass
class SitePolicy:
    """Candidate paths for one destination site (a host prefix or SN)."""

    site: str  # destination SN address
    paths: list[PathMetric] = field(default_factory=list)

    def best(self) -> Optional[PathMetric]:
        alive = [p for p in self.paths if p.up]
        if not alive:
            return None
        return min(alive, key=lambda p: p.score)


class PathSelector:
    """The SD-WAN brain: site → best overlay path, with failover."""

    def __init__(self) -> None:
        self._sites: dict[str, SitePolicy] = {}
        self.failovers = 0

    def configure_site(self, site: str, paths: list[PathMetric]) -> None:
        self._sites[site] = SitePolicy(site=site, paths=paths)

    def select(self, site: str) -> Optional[str]:
        policy = self._sites.get(site)
        if policy is None:
            return None
        best = policy.best()
        return best.via_sn if best else None

    def mark_down(self, site: str, via_sn: str) -> None:
        policy = self._sites.get(site)
        if policy is None:
            return
        for path in policy.paths:
            if path.via_sn == via_sn and path.up:
                path.up = False
                self.failovers += 1

    def mark_up(self, site: str, via_sn: str) -> None:
        policy = self._sites.get(site)
        if policy is None:
            return
        for path in policy.paths:
            if path.via_sn == via_sn:
                path.up = True


class SDWANService(ServiceModule):
    """SD-WAN as an invocable InterEdge service."""

    SERVICE_ID = WellKnownService.SDWAN
    NAME = "sdwan"
    VERSION = "1.0"

    def __init__(self, selector: Optional[PathSelector] = None) -> None:
        super().__init__()
        self.selector = selector or PathSelector()
        self.path_decisions = 0

    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        if header.flags & Flags.LAST:
            self.ctx.invalidate_connection(header.connection_id)
            return Verdict.drop()
        dest_sn = header.get_str(TLV.DEST_SN)
        # Steering happens only at the first-hop SN of the sending host
        # (§5: the enterprise's SD-WAN applies at *its* SN); transit SNs
        # just deliver, otherwise every hop would re-steer and loop.
        from_local_host = self.ctx.peer_for_host(packet.l3.src) is not None
        via = (
            self.selector.select(dest_sn) if dest_sn and from_local_host else None
        )
        if via is not None:
            peer = self.ctx.next_hop_for_sn(via)
            self.path_decisions += 1
        else:
            # No SD-WAN policy for this site: ordinary delivery.
            peer, header = route_toward(self.ctx, header)
        if peer is None:
            return Verdict.drop()
        key = CacheKey(
            src=packet.l3.src,
            service_id=self.SERVICE_ID,
            connection_id=header.connection_id,
        )
        verdict = Verdict.forward(peer, header, packet.payload)
        verdict.installs.append((key, Decision.forward(peer)))
        return verdict

    def fail_path(self, site: str, via_sn: str) -> None:
        """Operator/probe signal: a path died. Invalidate affected flows.

        Evicting the whole cache is safe (Appendix B) and simpler than
        tracking which connections used the path; subsequent packets punt
        and re-select.
        """
        self.selector.mark_down(site, via_sn)
        assert self.ctx is not None
        self.ctx.node.cache.evict_random_fraction(1.0)


class ImposedSDWAN:
    """SD-WAN as an operator-imposed module on a pass-through SN (§3.2)."""

    NAME = "imposed-sdwan"

    def __init__(self, selector: PathSelector) -> None:
        self.selector = selector

    def impose(
        self, header: ILPHeader, payload: Payload, inbound: bool
    ) -> Optional[ILPHeader]:
        if inbound:
            return header
        dest_sn = header.get_str(TLV.DEST_SN)
        if dest_sn is None:
            return header
        via = self.selector.select(dest_sn)
        if via is None:
            return header
        # Steer by rewriting the destination SN to the chosen overlay hop;
        # that hop's delivery service completes the path.
        return header.with_tlvs({TLV.DEST_SN: via.encode()})
