"""Geo-distributed message queue service (§6.2 specialty services).

The Cloudflare-Queues/Kafka-at-the-edge analog: named queues live at a
*home SN* (chosen by consistent hashing over queue names so any SN can
locate a queue without coordination), producers append from anywhere, and
consumers receive with at-least-once semantics (explicit acks, redelivery
of unacked messages). Each queue keeps a bounded log plus per-consumer
cursors, and replicates appends to a standby SN for failover (§3.3).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.ilp import ILPHeader, TLV
from ..core.packet import make_payload
from ..core.service_module import Emit, ServiceModule, Verdict, WellKnownService
from .common import deliver_toward

OP_APPEND = b"append"
OP_SUBSCRIBE = b"subscribe"
OP_ACK = b"ack"
OP_DELIVER = b"deliver"
OP_REPLICATE = b"replicate"

TLV_QUEUE = TLV.TOPIC
TLV_OFFSET = TLV.SEQUENCE


def queue_home(queue: str, sn_addresses: list[str]) -> str:
    """Rendezvous (highest-random-weight) hash: queue -> home SN."""
    if not sn_addresses:
        raise ValueError("no SNs to home queues on")
    return max(
        sn_addresses,
        key=lambda sn: hashlib.sha256(f"{queue}|{sn}".encode()).digest(),
    )


@dataclass
class QueueState:
    """One queue's log and consumer cursors at its home SN."""

    name: str
    log: list[bytes] = field(default_factory=list)
    #: consumer host -> next offset to deliver
    cursors: dict[str, int] = field(default_factory=dict)
    #: consumer host -> offsets delivered but not yet acked
    unacked: dict[str, set[int]] = field(default_factory=dict)
    max_log: int = 4096

    def append(self, message: bytes) -> int:
        self.log.append(message)
        if len(self.log) > self.max_log:
            # Bounded log: drop oldest; cursors below the floor clamp up.
            overflow = len(self.log) - self.max_log
            del self.log[:overflow]
            for consumer in self.cursors:
                self.cursors[consumer] = max(0, self.cursors[consumer] - overflow)
        return len(self.log) - 1


class MessageQueueService(ServiceModule):
    """The queue service module; every SN runs it, queues home by hash."""

    SERVICE_ID = WellKnownService.MSG_QUEUE
    NAME = "msgqueue"
    VERSION = "1.0"

    def __init__(self, standby_sn: Optional[str] = None) -> None:
        super().__init__()
        self.queues: dict[str, QueueState] = {}
        self.standby_sn = standby_sn
        self.appends = 0
        self.deliveries = 0
        self.redeliveries = 0

    # -- routing helpers -------------------------------------------------
    def _home_for(self, queue: str) -> str:
        assert self.ctx is not None
        control = self.ctx.control_plane()
        sn_addresses = sorted(control.lookup.service_nodes("msgqueue"))
        if not sn_addresses:
            return self.ctx.node_address
        return queue_home(queue, sn_addresses)

    def on_attach(self) -> None:
        assert self.ctx is not None
        control = self.ctx.control_plane()
        control.lookup.register_service_node("msgqueue", self.ctx.node_address)

    def _forward_to_home(self, header: ILPHeader, packet: Any, home: str) -> Verdict:
        out = header.with_tlvs({TLV.DEST_SN: home.encode(), TLV.DEST_ADDR: home.encode()})
        assert self.ctx is not None
        return deliver_toward(self.ctx, out, packet.payload)

    # -- datapath ------------------------------------------------------------
    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        queue = header.get_str(TLV_QUEUE)
        op = header.tlvs.get(TLV.SERVICE_OPTS, OP_APPEND)
        if queue is None:
            return Verdict.drop()
        if op == OP_DELIVER:
            # A delivery in transit from a queue home to a consumer: plain
            # forwarding, never re-homed.
            return deliver_toward(self.ctx, header, packet.payload)
        home = self._home_for(queue)
        if op == OP_REPLICATE:
            # Standby copy of an append.
            state = self.queues.setdefault(queue, QueueState(queue))
            state.append(packet.payload.data)
            return Verdict(dropped=False)
        if home != self.ctx.node_address:
            return self._forward_to_home(header, packet, home)
        if op == OP_APPEND:
            return self._handle_append(queue, header, packet)
        if op == OP_ACK:
            return self._handle_ack(queue, header)
        return Verdict.drop()

    def handle_control(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        queue = header.get_str(TLV_QUEUE)
        op = header.tlvs.get(TLV.SERVICE_OPTS, b"")
        consumer = header.get_str(TLV.SRC_HOST)
        if queue is None or consumer is None:
            return Verdict.drop()
        home = self._home_for(queue)
        if home != self.ctx.node_address:
            return self._forward_to_home(header, packet, home)
        if op == OP_SUBSCRIBE:
            state = self.queues.setdefault(queue, QueueState(queue))
            state.cursors.setdefault(consumer, 0)
            state.unacked.setdefault(consumer, set())
            return self._drain_to(queue, consumer)
        return Verdict.drop()

    # -- queue operations --------------------------------------------------
    def _handle_append(self, queue: str, header: ILPHeader, packet: Any) -> Verdict:
        state = self.queues.setdefault(queue, QueueState(queue))
        state.append(packet.payload.data)
        self.appends += 1
        verdict = Verdict(dropped=False)
        # Replicate to standby before delivering (§3.3 standby replication).
        if self.standby_sn is not None and self.standby_sn != self.ctx.node_address:
            standby = self.standby_sn.encode()
            rep = ILPHeader(
                service_id=self.SERVICE_ID,
                connection_id=header.connection_id,
                tlvs={
                    TLV_QUEUE: queue.encode(),
                    TLV.SERVICE_OPTS: OP_REPLICATE,
                    TLV.DEST_SN: standby,
                    TLV.DEST_ADDR: standby,
                },
            )
            rep_verdict = deliver_toward(self.ctx, rep, packet.payload)
            verdict.emits.extend(rep_verdict.emits)
        for consumer in list(state.cursors):
            drained = self._drain_to(queue, consumer)
            verdict.emits.extend(drained.emits)
        return verdict

    def _handle_ack(self, queue: str, header: ILPHeader) -> Verdict:
        state = self.queues.get(queue)
        consumer = header.get_str(TLV.SRC_HOST)
        offset = header.get_u64(TLV_OFFSET)
        if state is None or consumer is None or offset is None:
            return Verdict.drop()
        state.unacked.get(consumer, set()).discard(offset)
        return Verdict(dropped=False)

    def _drain_to(self, queue: str, consumer: str) -> Verdict:
        """Deliver every message from the consumer's cursor onward."""
        assert self.ctx is not None
        state = self.queues[queue]
        emits: list[Emit] = []
        cursor = state.cursors.get(consumer, 0)
        while cursor < len(state.log):
            emits.extend(self._delivery_emits(queue, consumer, cursor))
            state.unacked.setdefault(consumer, set()).add(cursor)
            cursor += 1
            self.deliveries += 1
        state.cursors[consumer] = cursor
        return Verdict(emits=emits)

    def start_redelivery_timer(self, queue: str, interval: float = 5.0) -> None:
        """At-least-once enforcement: re-send unacked messages periodically."""
        assert self.ctx is not None

        def tick() -> None:
            if queue in self.queues:
                self.redeliver_unacked(queue)
            self.ctx.schedule(interval, tick)

        self.ctx.schedule(interval, tick)

    def redeliver_unacked(self, queue: str) -> int:
        """Timer-driven redelivery of unacked messages (at-least-once)."""
        assert self.ctx is not None
        state = self.queues.get(queue)
        if state is None:
            return 0
        count = 0
        for consumer, offsets in state.unacked.items():
            for offset in sorted(offsets):
                if offset < len(state.log):
                    for emit in self._delivery_emits(queue, consumer, offset):
                        self.ctx.send_ilp(emit.peer, emit.header, emit.payload)
                    count += 1
                    self.redeliveries += 1
        return count

    def _delivery_emits(self, queue: str, consumer: str, offset: int) -> list[Emit]:
        assert self.ctx is not None
        state = self.queues[queue]
        out = ILPHeader(
            service_id=self.SERVICE_ID,
            connection_id=0,
            tlvs={
                TLV_QUEUE: queue.encode(),
                TLV.SERVICE_OPTS: OP_DELIVER,
                TLV_OFFSET: struct.pack(">Q", offset),
                TLV.DEST_ADDR: consumer.encode(),
            },
        )
        verdict = deliver_toward(self.ctx, out, make_payload(state.log[offset]))
        return verdict.emits

    # -- fault tolerance -------------------------------------------------
    def checkpoint(self) -> dict[str, Any]:
        return {
            "queues": {
                name: {
                    "log": list(state.log),
                    "cursors": dict(state.cursors),
                    "unacked": {c: sorted(o) for c, o in state.unacked.items()},
                }
                for name, state in self.queues.items()
            }
        }

    def restore(self, state: dict[str, Any]) -> None:
        self.queues = {}
        for name, q in state.get("queues", {}).items():
            restored = QueueState(name)
            restored.log = list(q.get("log", []))
            restored.cursors = dict(q.get("cursors", {}))
            restored.unacked = {
                c: set(o) for c, o in q.get("unacked", {}).items()
            }
            self.queues[name] = restored


# -- host-side helpers ------------------------------------------------------

def produce(host, queue: str, message: bytes):
    conn = host.connect(
        WellKnownService.MSG_QUEUE,
        tlvs={TLV_QUEUE: queue.encode(), TLV.SERVICE_OPTS: OP_APPEND},
        allow_direct=False,
    )
    host.send(conn, message)
    return conn


def subscribe(host, queue: str) -> bool:
    return host.send_control(
        WellKnownService.MSG_QUEUE,
        {TLV_QUEUE: queue.encode(), TLV.SERVICE_OPTS: OP_SUBSCRIBE},
    )


def ack(host, queue: str, offset: int) -> bool:
    conn = host.connect(
        WellKnownService.MSG_QUEUE,
        tlvs={
            TLV_QUEUE: queue.encode(),
            TLV.SERVICE_OPTS: OP_ACK,
            TLV_OFFSET: offset.to_bytes(8, "big"),
        },
        allow_direct=False,
    )
    return host.send(conn, b"")
