"""Tunnel mesh manager: many simultaneous tunnels on one node.

This is the object the C-PEER benchmark drives: create N tunnels, advance
virtual time, and report (i) maintenance bandwidth in Mbps and (ii) real
CPU seconds consumed per virtual second — the "fraction of a core" number
from Appendix C.

Maintenance is scheduled with a single due-time heap over all tunnels, so
advancing time is O(events log N) rather than O(N) per tick; a commodity
node does the analogous thing with kernel timers.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from .tunnel import (
    DEFAULT_KEEPALIVE_INTERVAL,
    DEFAULT_REKEY_INTERVAL,
    WireGuardTunnel,
)

_REKEY = 0
_KEEPALIVE = 1


@dataclass
class MeshReport:
    """Maintenance costs over one measured window."""

    tunnels: int
    virtual_duration: float
    cpu_seconds: float
    control_bytes: int
    rekeys: int
    keepalives: int

    @property
    def bandwidth_mbps(self) -> float:
        if self.virtual_duration <= 0:
            return 0.0
        return self.control_bytes * 8 / self.virtual_duration / 1e6

    @property
    def core_equivalents(self) -> float:
        """Real CPU seconds per virtual second — 'fraction of a core'."""
        if self.virtual_duration <= 0:
            return 0.0
        return self.cpu_seconds / self.virtual_duration


class TunnelMesh:
    """All tunnels maintained by one node (e.g. an edomain border SN)."""

    def __init__(
        self,
        local_id: str,
        rekey_interval: float = DEFAULT_REKEY_INTERVAL,
        keepalive_interval: float = DEFAULT_KEEPALIVE_INTERVAL,
        keepalives_enabled: bool = True,
    ) -> None:
        self.local_id = local_id
        self.rekey_interval = rekey_interval
        self.keepalive_interval = keepalive_interval
        self.keepalives_enabled = keepalives_enabled
        self.tunnels: dict[str, WireGuardTunnel] = {}
        self._due: list[tuple[float, int, str]] = []  # (when, kind, peer)
        self.now = 0.0

    def __len__(self) -> int:
        return len(self.tunnels)

    def add_peer(self, peer_id: str) -> WireGuardTunnel:
        if peer_id in self.tunnels:
            raise ValueError(f"tunnel to {peer_id} already exists")
        tunnel = WireGuardTunnel(
            self.local_id,
            peer_id,
            rekey_interval=self.rekey_interval,
            keepalive_interval=self.keepalive_interval,
        )
        tunnel.handshake(self.now)
        self.tunnels[peer_id] = tunnel
        heapq.heappush(self._due, (tunnel.next_rekey_at, _REKEY, peer_id))
        if self.keepalives_enabled:
            heapq.heappush(
                self._due, (tunnel.next_keepalive_at, _KEEPALIVE, peer_id)
            )
        return tunnel

    def add_peers(self, count: int, prefix: str = "peer") -> None:
        for i in range(count):
            self.add_peer(f"{prefix}-{i}")

    def remove_peer(self, peer_id: str) -> bool:
        # Stale heap entries are skipped lazily at pop time.
        return self.tunnels.pop(peer_id, None) is not None

    def advance(self, until: float) -> MeshReport:
        """Run all maintenance due in (now, until]; returns the window report.

        CPU time is measured with ``time.process_time`` around the actual
        maintenance work (key derivations, bookkeeping).
        """
        start_control = sum(t.stats.control_bytes for t in self.tunnels.values())
        start_rekeys = sum(t.stats.rekeys for t in self.tunnels.values())
        start_keepalives = sum(
            t.stats.keepalives_sent for t in self.tunnels.values()
        )
        window = until - self.now
        cpu_start = time.process_time()
        while self._due and self._due[0][0] <= until:
            when, kind, peer = heapq.heappop(self._due)
            tunnel = self.tunnels.get(peer)
            if tunnel is None:
                continue  # removed peer; stale entry
            if kind == _REKEY:
                if when < tunnel.next_rekey_at:
                    # Superseded by a newer handshake: track the new due time.
                    heapq.heappush(self._due, (tunnel.next_rekey_at, _REKEY, peer))
                    continue
                tunnel.rekey(when)
                heapq.heappush(self._due, (tunnel.next_rekey_at, _REKEY, peer))
            else:
                if when < tunnel.next_keepalive_at:
                    heapq.heappush(
                        self._due, (tunnel.next_keepalive_at, _KEEPALIVE, peer)
                    )
                    continue
                tunnel.keepalive(when)
                heapq.heappush(
                    self._due, (tunnel.next_keepalive_at, _KEEPALIVE, peer)
                )
        cpu_seconds = time.process_time() - cpu_start
        self.now = until
        return MeshReport(
            tunnels=len(self.tunnels),
            virtual_duration=window,
            cpu_seconds=cpu_seconds,
            control_bytes=sum(t.stats.control_bytes for t in self.tunnels.values())
            - start_control,
            rekeys=sum(t.stats.rekeys for t in self.tunnels.values()) - start_rekeys,
            keepalives=sum(t.stats.keepalives_sent for t in self.tunnels.values())
            - start_keepalives,
        )
