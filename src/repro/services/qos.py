"""Last-hop QoS (§6.2).

A receiver tells its first-hop SN — which sits on the far side of the
congested access link — the total bandwidth of that link plus a set of
weights and/or priorities for traffic streams identified by source
prefixes. The SN then schedules everything it sends toward that host with
strict priority between levels and WFQ within a level, shaped to the
access-link rate, so the congestion point moves from the dumb access link
into a scheduler the user controls.

Invocation is out-of-band (§3.2's second mode): a CONTROL message carrying
the QoS spec installs an :class:`EgressShaper` on the SN's pipe to the
host; thereafter it applies to that host's *entire* incoming traffic, not
just one connection.
"""

from __future__ import annotations

import ipaddress
import json
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..core.ilp import Flags, ILPHeader, TLV
from ..core.packet import ILPPacket, Payload
from ..core.service_module import Emit, ServiceModule, Verdict, WellKnownService
from ..sched import PriorityScheduler

OP_CONFIGURE = b"configure"
OP_CLEAR = b"clear"
OP_ACK = b"ok"

DEFAULT_CLASS = "__default__"


@dataclass(frozen=True)
class StreamClass:
    """One traffic class: match by source prefix, schedule by these knobs."""

    name: str
    src_prefix: str  # e.g. "10.1.0.0/16"
    priority: int = 1  # 0 = highest (latency-sensitive)
    weight: float = 1.0


@dataclass
class QoSSpec:
    """The receiver's complete QoS request."""

    link_bps: float
    classes: list[StreamClass]

    def to_json(self) -> bytes:
        return json.dumps(
            {
                "link_bps": self.link_bps,
                "classes": [
                    {
                        "name": c.name,
                        "src_prefix": c.src_prefix,
                        "priority": c.priority,
                        "weight": c.weight,
                    }
                    for c in self.classes
                ],
            }
        ).encode()

    @staticmethod
    def from_json(raw: bytes) -> "QoSSpec":
        data = json.loads(raw.decode())
        return QoSSpec(
            link_bps=float(data["link_bps"]),
            classes=[
                StreamClass(
                    name=c["name"],
                    src_prefix=c["src_prefix"],
                    priority=int(c.get("priority", 1)),
                    weight=float(c.get("weight", 1.0)),
                )
                for c in data["classes"]
            ],
        )


class EgressShaper:
    """Schedules one host's incoming traffic onto its access link.

    ``submit(packet, transmit)`` enqueues; a drain loop (driven by the
    simulator) releases packets at the configured link rate, in
    priority/WFQ order. Classification matches the *inner* source host
    (SRC_HOST would require decrypting the header again, so the SN passes
    the already-known outer source; here we classify on the packet's outer
    L3 source, which for host-destined traffic is the upstream SN — tests
    therefore classify on the recorded original source carried in
    ``packet.qos_class`` when present, falling back to prefix matching).
    """

    def __init__(self, sim, spec: QoSSpec) -> None:
        self.sim = sim
        self.spec = spec
        self.scheduler = PriorityScheduler()
        self._networks: list[tuple[ipaddress.IPv4Network, str]] = []
        for cls in spec.classes:
            self.scheduler.add_flow(cls.name, cls.priority, cls.weight)
            self._networks.append((ipaddress.IPv4Network(cls.src_prefix), cls.name))
        self.scheduler.add_flow(DEFAULT_CLASS, priority=9, weight=1.0)
        self._draining = False
        self.enqueued = 0
        self.transmitted = 0

    def classify(self, packet: ILPPacket) -> str:
        marked = getattr(packet, "qos_class", None)
        if marked is not None:
            return marked if marked in self.scheduler.flows() else DEFAULT_CLASS
        source = packet.qos_src or packet.l3.src
        try:
            addr = ipaddress.IPv4Address(source)
        except ValueError:
            return DEFAULT_CLASS
        for network, name in self._networks:
            if addr in network:
                return name
        return DEFAULT_CLASS

    def submit(self, packet: ILPPacket, transmit: Callable[[ILPPacket], Any]) -> None:
        flow = self.classify(packet)
        self.scheduler.enqueue(flow, packet.wire_size, (packet, transmit))
        self.enqueued += 1
        if not self._draining:
            self._draining = True
            self.sim.schedule(0.0, self._drain)

    def _drain(self) -> None:
        popped = self.scheduler.dequeue()
        if popped is None:
            self._draining = False
            return
        _flow, size, (packet, transmit) = popped
        transmit(packet)
        self.transmitted += 1
        # Next packet leaves after this one's serialization time.
        self.sim.schedule(size * 8 / self.spec.link_bps, self._drain)

    def bytes_delivered(self, class_name: str) -> int:
        return self.scheduler.bytes_dequeued(class_name)


class LastHopQoSService(ServiceModule):
    """The standardized last-hop QoS service module."""

    SERVICE_ID = WellKnownService.LAST_HOP_QOS
    NAME = "last-hop-qos"
    VERSION = "1.0"

    def __init__(self) -> None:
        super().__init__()
        self.shapers: dict[str, EgressShaper] = {}

    def handle_control(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        op = header.tlvs.get(TLV.SERVICE_OPTS, b"")
        host = header.get_str(TLV.SRC_HOST)
        if host is None:
            return Verdict.drop()
        if op == OP_CONFIGURE:
            raw = header.tlvs.get(TLV.SERVICE_PRIVATE)
            if raw is None:
                return Verdict.drop()
            spec = QoSSpec.from_json(raw)
            shaper = EgressShaper(self.ctx.node.sim, spec)
            self.shapers[host] = shaper
            self.ctx.node.set_egress_shaper(host, shaper)
        elif op == OP_CLEAR:
            self.shapers.pop(host, None)
            self.ctx.node.clear_egress_shaper(host)
        else:
            return Verdict.drop()
        ack = ILPHeader(
            service_id=self.SERVICE_ID,
            connection_id=header.connection_id,
            flags=Flags.CONTROL,
            tlvs={TLV.SERVICE_OPTS: OP_ACK},
        )
        return Verdict(emits=[Emit(host, ack, Payload(l4=None))])

    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        # QoS is imposed on traffic of *other* services via the egress
        # shaper; data packets addressed to the QoS service itself are not
        # meaningful.
        return Verdict.drop()

    def shaper_for(self, host: str) -> Optional[EgressShaper]:
        return self.shapers.get(host)


def request_qos(host, spec: QoSSpec) -> bool:
    """Host-side helper: ask the first-hop SN for last-hop QoS (§3.2 OOB)."""
    return host.send_control(
        LastHopQoSService.SERVICE_ID,
        {TLV.SERVICE_OPTS: OP_CONFIGURE, TLV.SERVICE_PRIVATE: spec.to_json()},
    )


def clear_qos(host) -> bool:
    return host.send_control(
        LastHopQoSService.SERVICE_ID, {TLV.SERVICE_OPTS: OP_CLEAR}
    )
