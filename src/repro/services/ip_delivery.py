"""IP-like point-to-point delivery — the basic InterEdge service.

§3.2's "typical communication path": source host → source's SN →
destination's SN → destination host. This module implements that path and
is the composable base of several bundles (caching, transcoding).

Unlike :class:`NullService`, it installs decision-cache entries so that
steady-state packets ride the fast path; the module only sees connection
setup, teardown (LAST flag), and any packet whose cache entry was evicted —
per Appendix B it recomputes the identical decision in that case.
"""

from __future__ import annotations

from typing import Any

from ..core.decision_cache import CacheKey, Decision
from ..core.ilp import Flags, ILPHeader
from ..core.service_module import ServiceModule, Verdict, WellKnownService
from .common import deliver_toward, route_toward


class IPDeliveryService(ServiceModule):
    """Standardized point-to-point delivery over the InterEdge."""

    SERVICE_ID = WellKnownService.IP_DELIVERY
    NAME = "ip-delivery"
    VERSION = "1.0"

    def __init__(self) -> None:
        super().__init__()
        self.connections_seen = 0
        self.recomputes = 0

    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        if header.flags & Flags.LAST:
            self.ctx.invalidate_connection(header.connection_id)
            return deliver_toward(self.ctx, header, packet.payload)

        if header.is_first:
            self.connections_seen += 1
        else:
            self.recomputes += 1

        peer, header = route_toward(self.ctx, header)
        if peer is None:
            return Verdict.drop()
        key = CacheKey(
            src=packet.l3.src,
            service_id=header.service_id,
            connection_id=header.connection_id,
        )
        verdict = Verdict.forward(peer, header, packet.payload)
        verdict.installs.append((key, Decision.forward(peer)))
        return verdict

    def checkpoint(self) -> dict[str, Any]:
        return {
            "connections_seen": self.connections_seen,
            "recomputes": self.recomputes,
        }

    def restore(self, state: dict[str, Any]) -> None:
        self.connections_seen = state.get("connections_seen", 0)
        self.recomputes = state.get("recomputes", 0)
