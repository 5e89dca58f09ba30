"""Time-ordered message delivery (§6.2 specialty services).

If SNs carry GPS receivers, the InterEdge can offer ordered (but not
atomic) message delivery: senders' first-hop SNs stamp messages with GPS
time; receivers' first-hop SNs buffer and release messages in timestamp
order after a configurable *release delay* that dominates network jitter.
The paper notes this is high-latency / low-throughput but that ordering
without atomicity still cuts coordination overheads (Spanner/CloudEx
lineage).

Ordering guarantee (asserted by property tests): if the release delay
exceeds max network delay + 2·(clock error bound), then delivery order at
every receiver matches global stamp order.
"""

from __future__ import annotations

import heapq
import itertools
import struct
from dataclasses import dataclass
from typing import Any, Optional

from ..core.ilp import ILPHeader, TLV
from ..core.packet import Payload
from ..core.service_module import ServiceModule, Verdict, WellKnownService
from .common import deliver_toward


@dataclass
class GPSClock:
    """A GPS-disciplined clock with bounded error.

    ``read(true_time)`` returns true time plus a fixed per-node offset in
    [-error_bound, +error_bound] (GPS error is dominated by a stable bias
    at this timescale).
    """

    error_bound: float = 50e-6  # 50 µs, generous for GPS-disciplined clocks
    offset: float = 0.0

    def __post_init__(self) -> None:
        if abs(self.offset) > self.error_bound:
            raise ValueError("offset exceeds the advertised error bound")

    def read(self, true_time: float) -> float:
        return true_time + self.offset


class TimeOrderedService(ServiceModule):
    """GPS-stamped, buffer-and-release ordered delivery."""

    SERVICE_ID = WellKnownService.TIME_ORDERED
    NAME = "time-ordered"
    VERSION = "1.0"

    def __init__(
        self,
        clock: Optional[GPSClock] = None,
        release_delay: float = 0.050,
    ) -> None:
        super().__init__()
        self.clock = clock or GPSClock()
        self.release_delay = release_delay
        self._seq = itertools.count()
        #: per destination host: heap of (stamp, seq, header, payload)
        self._buffers: dict[str, list[tuple[float, int, ILPHeader, Payload]]] = {}
        self.stamped = 0
        self.released = 0

    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        dest = header.get_str(TLV.DEST_ADDR)
        if dest is None:
            return Verdict.drop()
        stamp = header.get_f64(TLV.TIMESTAMP)
        if stamp is None:
            # Sender-side SN: stamp with our GPS clock and forward.
            stamp = self.clock.read(self.ctx.now())
            out = header.with_tlvs({TLV.TIMESTAMP: struct.pack(">d", stamp)})
            self.stamped += 1
            return deliver_toward(self.ctx, out, packet.payload)
        if self.ctx.peer_for_host(dest) is None:
            # Mid-path SN: already stamped, keep forwarding.
            return deliver_toward(self.ctx, header, packet.payload)
        # Receiver-side SN: buffer until stamp + release_delay (our clock).
        buffer = self._buffers.setdefault(dest, [])
        heapq.heappush(buffer, (stamp, next(self._seq), header, packet.payload))
        release_at_local = stamp + self.release_delay
        wait = max(0.0, release_at_local - self.clock.read(self.ctx.now()))
        self.ctx.schedule(wait, self._release_due, dest)
        return Verdict(dropped=False)

    def _release_due(self, dest: str) -> None:
        """Release every buffered message whose release time has passed."""
        assert self.ctx is not None
        buffer = self._buffers.get(dest)
        if not buffer:
            return
        now_local = self.clock.read(self.ctx.now())
        while buffer and buffer[0][0] + self.release_delay <= now_local + 1e-12:
            stamp, _seq, header, payload = heapq.heappop(buffer)
            peer = self.ctx.peer_for_host(dest)
            if peer is not None:
                self.ctx.send_ilp(peer, header, payload)
                self.released += 1

    def pending(self, dest: str) -> int:
        return len(self._buffers.get(dest, ()))

    def checkpoint(self) -> dict[str, Any]:
        return {"released": self.released, "stamped": self.stamped}

    def restore(self, state: dict[str, Any]) -> None:
        self.released = state.get("released", 0)
        self.stamped = state.get("stamped", 0)
