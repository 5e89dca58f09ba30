"""Multipoint delivery services: multicast, anycast, pub/sub (§6.2).

All three share the membership machinery of
:mod:`repro.control.membership` (joins authorized against the lookup
service, sender registration, SN→core→lookup propagation with watches) and
a staged forwarding scheme:

* ``host`` stage — a packet fresh from a registered sender's host. The
  first-hop SN fans out: local member hosts, other member SNs in its
  edomain (``intra`` stage), and member edomains (``inter`` stage).
* ``intra`` stage — SN→SN within one edomain; the receiver delivers to its
  local member hosts only (no re-fanout, preventing duplicates).
* ``inter`` stage — carries a destination edomain; border SNs relay it
  until the entry SN of that edomain expands it into local+intra fanout.

Multipoint services are content-routing (group-addressed), so they do not
install decision-cache entries: membership can change between any two
packets, and the slow path recomputes the fanout each time. (A fast-path
variant with invalidation is a known optimization; see DESIGN.md §6.)

Pub/sub additionally retains the last N messages per topic and supports
host-driven replay — the paper's host-driven state-reconstruction story
for stateful services (§3.3).
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Any, Optional

from ..core.ilp import Flags, ILPHeader, TLV
from ..core.packet import Payload, make_payload
from ..core.service_module import Emit, ServiceModule, Verdict, WellKnownService

# Service-private TLVs shared by the multipoint family.
TLV_STAGE = TLV.SERVICE_PRIVATE  # b"intra" | b"inter" (absent = host stage)
TLV_DEST_EDOMAIN = TLV.SERVICE_PRIVATE + 1

STAGE_INTRA = b"intra"
STAGE_INTER = b"inter"
#: ``with_tlvs`` updates that strip the staging TLVs before host delivery.
_UNSTAGED = {TLV_STAGE: None, TLV_DEST_EDOMAIN: None}

# Control verbs (in SERVICE_OPTS).
OP_JOIN = b"join"
OP_LEAVE = b"leave"
OP_REGISTER_SENDER = b"register-sender"
OP_UNREGISTER_SENDER = b"unregister-sender"
OP_REPLAY = b"replay"
OP_ACK = b"ok"
OP_DENIED = b"denied"


class MultipointService(ServiceModule):
    """Shared control plane + staged fanout for the multipoint family."""

    #: deliver to all local members (multicast/pubsub) or exactly one (anycast)
    DELIVER_ALL = True

    # -- control plane ----------------------------------------------------
    def handle_control(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        op = header.tlvs.get(TLV.SERVICE_OPTS, b"")
        group = header.get_str(TLV.TOPIC)
        host = header.get_str(TLV.SRC_HOST)
        if group is None or host is None:
            return Verdict.drop()
        agent = self.ctx.control_plane().membership
        ok = False
        if op == OP_JOIN:
            signature = header.tlvs.get(TLV.SIGNATURE, b"")
            ok = agent.join(self._group_key(group), host, signature)
        elif op == OP_LEAVE:
            ok = agent.leave(self._group_key(group), host)
        elif op == OP_REGISTER_SENDER:
            agent.register_sender(self._group_key(group), host)
            ok = True
        elif op == OP_UNREGISTER_SENDER:
            agent.unregister_sender(self._group_key(group), host)
            ok = True
        elif op == OP_REPLAY:
            return self._handle_replay(header, group, host)
        ack = ILPHeader(
            service_id=self.SERVICE_ID,
            connection_id=header.connection_id,
            flags=Flags.CONTROL,
            tlvs={
                TLV.TOPIC: group.encode(),
                TLV.SERVICE_OPTS: OP_ACK if ok else OP_DENIED,
            },
        )
        return Verdict(emits=[Emit(host, ack, Payload(l4=None))])

    def _handle_replay(self, header: ILPHeader, group: str, host: str) -> Verdict:
        """Pub/sub overrides; others deny replay."""
        return Verdict.drop()

    def _group_key(self, group: str) -> str:
        """Namespace groups per service so topics ≠ multicast groups."""
        return f"{self.NAME}:{group}"

    # -- staged data path ---------------------------------------------------
    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        group = header.get_str(TLV.TOPIC)
        if group is None:
            return Verdict.drop()
        stage = header.tlvs.get(TLV_STAGE)
        if stage is None:
            return self._handle_host_stage(header, packet, group)
        if stage == STAGE_INTRA:
            return self._deliver_local(header, packet, group, exclude=None)
        if stage == STAGE_INTER:
            return self._handle_inter_stage(header, packet, group)
        return Verdict.drop()

    def _handle_host_stage(
        self, header: ILPHeader, packet: Any, group: str
    ) -> Verdict:
        assert self.ctx is not None
        agent = self.ctx.control_plane().membership
        sender = header.get_str(TLV.SRC_HOST)
        key = self._group_key(group)
        if sender is None or not agent.is_sender(key, sender):
            # §6.2: hosts must register as senders before sending.
            return Verdict.drop()
        self._on_publish(group, packet.payload)
        if self.DELIVER_ALL:
            return self._fanout_all(header, packet, group, exclude=sender)
        return self._fanout_one(header, packet, group, exclude=sender)

    def _handle_inter_stage(
        self, header: ILPHeader, packet: Any, group: str
    ) -> Verdict:
        assert self.ctx is not None
        dest_edomain = header.get_str(TLV_DEST_EDOMAIN)
        if dest_edomain is None:
            return Verdict.drop()
        if dest_edomain != self.ctx.edomain_name:
            peer = self.ctx.node.border_peer_for(dest_edomain)
            if peer is None:
                return Verdict.drop()
            return Verdict.forward(peer, header, packet.payload)
        # We are the entry SN of the destination edomain: expand.
        entry_header = header.with_tlvs(_UNSTAGED)
        if self.DELIVER_ALL:
            verdict = self._deliver_local(entry_header, packet, group, exclude=None)
            verdict.emits.extend(
                self._intra_emits(entry_header, packet, group)
            )
            return verdict
        return self._fanout_one(
            entry_header, packet, group, exclude=None, local_edomain_only=True
        )

    # -- fanout helpers ------------------------------------------------------
    def _deliver_local(
        self, header: ILPHeader, packet: Any, group: str, exclude: Optional[str]
    ) -> Verdict:
        assert self.ctx is not None
        agent = self.ctx.control_plane().membership
        members = agent.members_of(self._group_key(group))
        emits = []
        for host in sorted(members):
            if host == exclude:
                continue
            emits.append(Emit(host, header.with_tlvs(_UNSTAGED), packet.payload))
        return Verdict(emits=emits)

    def _intra_emits(
        self, header: ILPHeader, packet: Any, group: str
    ) -> list[Emit]:
        assert self.ctx is not None
        agent = self.ctx.control_plane().membership
        emits = []
        for sn_addr in sorted(agent.member_sns_in_edomain(self._group_key(group))):
            if sn_addr == self.ctx.node_address:
                continue
            peer = self.ctx.next_hop_for_sn(sn_addr)
            if peer is None:
                continue
            out = header.with_tlvs({TLV_STAGE: STAGE_INTRA, TLV_DEST_EDOMAIN: None})
            emits.append(Emit(peer, out, packet.payload))
        return emits

    def _inter_emits(
        self, header: ILPHeader, packet: Any, group: str
    ) -> list[Emit]:
        assert self.ctx is not None
        agent = self.ctx.control_plane().membership
        emits = []
        for edomain in sorted(agent.member_edomains(self._group_key(group))):
            peer = self.ctx.node.border_peer_for(edomain)
            if peer is None:
                continue
            out = header.with_tlvs(
                {TLV_STAGE: STAGE_INTER, TLV_DEST_EDOMAIN: edomain.encode()}
            )
            emits.append(Emit(peer, out, packet.payload))
        return emits

    def _fanout_all(
        self, header: ILPHeader, packet: Any, group: str, exclude: Optional[str]
    ) -> Verdict:
        verdict = self._deliver_local(header, packet, group, exclude=exclude)
        verdict.emits.extend(self._intra_emits(header, packet, group))
        verdict.emits.extend(self._inter_emits(header, packet, group))
        return verdict

    def _fanout_one(
        self,
        header: ILPHeader,
        packet: Any,
        group: str,
        exclude: Optional[str],
        local_edomain_only: bool = False,
    ) -> Verdict:
        """Anycast: deliver to exactly one member, nearest first."""
        assert self.ctx is not None
        agent = self.ctx.control_plane().membership
        key = self._group_key(group)
        local = sorted(host for host in agent.members_of(key) if host != exclude)
        if local:
            out = header.with_tlvs(_UNSTAGED)
            return Verdict(emits=[Emit(local[0], out, packet.payload)])
        member_sns = sorted(
            sn for sn in agent.member_sns_in_edomain(key)
            if sn != self.ctx.node_address
        )
        if member_sns:
            peer = self.ctx.next_hop_for_sn(member_sns[0])
            if peer is not None:
                out = header.with_tlvs({TLV_STAGE: STAGE_INTRA})
                return Verdict(emits=[Emit(peer, out, packet.payload)])
        if local_edomain_only:
            return Verdict.drop()
        edomains = sorted(agent.member_edomains(key))
        if edomains:
            peer = self.ctx.node.border_peer_for(edomains[0])
            if peer is not None:
                out = header.with_tlvs(
                    {TLV_STAGE: STAGE_INTER, TLV_DEST_EDOMAIN: edomains[0].encode()}
                )
                return Verdict(emits=[Emit(peer, out, packet.payload)])
        return Verdict.drop()

    # -- hooks --------------------------------------------------------------
    def _on_publish(self, group: str, payload: Payload) -> None:
        """Called at the sender's first-hop SN for each published message."""


class MulticastService(MultipointService):
    """Group-addressed packet fanout to every member."""

    SERVICE_ID = WellKnownService.MULTICAST
    NAME = "multicast"
    VERSION = "1.0"
    DELIVER_ALL = True


class AnycastService(MultipointService):
    """Group-addressed delivery to the nearest single member.

    For anycast, an ``intra``-stage packet should reach one host only, so
    the local-delivery override picks the first member.
    """

    SERVICE_ID = WellKnownService.ANYCAST
    NAME = "anycast"
    VERSION = "1.0"
    DELIVER_ALL = False

    def _deliver_local(
        self, header: ILPHeader, packet: Any, group: str, exclude: Optional[str]
    ) -> Verdict:
        assert self.ctx is not None
        agent = self.ctx.control_plane().membership
        members = sorted(
            host
            for host in agent.members_of(self._group_key(group))
            if host != exclude
        )
        if not members:
            return Verdict.drop()
        out = header.with_tlvs(_UNSTAGED)
        return Verdict(emits=[Emit(members[0], out, packet.payload)])


class PubSubService(MultipointService):
    """Topic-based message delivery with bounded retention + replay.

    Retention lives at the *publisher's first-hop SN* (where messages enter
    the system). A subscriber that lost state (§3.3 host-driven state
    reconstruction) sends an ``OP_REPLAY`` control message; any SN that
    retains messages for the topic answers with the retained backlog.
    """

    SERVICE_ID = WellKnownService.PUBSUB
    NAME = "pubsub"
    VERSION = "1.0"
    DELIVER_ALL = True

    def __init__(self, retention: int = 64) -> None:
        super().__init__()
        self.retention = retention
        self._retained: dict[str, deque[bytes]] = {}
        self.published = 0

    def _on_publish(self, group: str, payload: Payload) -> None:
        buffer = self._retained.setdefault(
            group, deque(maxlen=self.retention)
        )
        buffer.append(payload.data)
        self.published += 1

    def _handle_replay(self, header: ILPHeader, group: str, host: str) -> Verdict:
        assert self.ctx is not None
        emits = []
        for i, message in enumerate(self._retained.get(group, ())):
            out = ILPHeader(
                service_id=self.SERVICE_ID,
                connection_id=header.connection_id,
                tlvs={TLV.TOPIC: group.encode(), TLV.SEQUENCE: struct.pack(">Q", i)},
            )
            peer = self.ctx.peer_for_host(host)
            target = peer if peer is not None else host
            emits.append(Emit(target, out, make_payload(message)))
        return Verdict(emits=emits)

    def retained(self, group: str) -> list[bytes]:
        """The currently retained messages for a topic, oldest first."""
        return list(self._retained.get(group, ()))

    def retain(self, group: str, message: bytes) -> None:
        """Append a message to a topic's retention buffer directly.

        Tests and state-seeding paths use this; the data path goes through
        ``_on_publish``.
        """
        self._retained.setdefault(group, deque(maxlen=self.retention)).append(
            message
        )

    def set_retention(self, retention: int) -> None:
        """Change the per-topic retention bound, trimming oldest first."""
        self.retention = retention
        self._retained = {
            group: deque(buffer, maxlen=retention)
            for group, buffer in self._retained.items()
        }

    def checkpoint(self) -> dict[str, Any]:
        return {
            "retained": {k: list(v) for k, v in self._retained.items()},
            "published": self.published,
        }

    def restore(self, state: dict[str, Any]) -> None:
        self._retained = {
            k: deque(v, maxlen=self.retention)
            for k, v in state.get("retained", {}).items()
        }
        self.published = state.get("published", 0)


# -- host-side helpers (the client logic of §3.1 "Host support") -------------

def join_group(host, service_id: int, group: str, signature: bytes = b"") -> bool:
    """Send a join for ``group`` to the host's first-hop SN."""
    tlvs = {TLV.SERVICE_OPTS: OP_JOIN, TLV.TOPIC: group.encode()}
    if signature:
        tlvs[TLV.SIGNATURE] = signature
    return host.send_control(service_id, tlvs)


def leave_group(host, service_id: int, group: str) -> bool:
    return host.send_control(
        service_id, {TLV.SERVICE_OPTS: OP_LEAVE, TLV.TOPIC: group.encode()}
    )


def register_sender(host, service_id: int, group: str) -> bool:
    return host.send_control(
        service_id,
        {TLV.SERVICE_OPTS: OP_REGISTER_SENDER, TLV.TOPIC: group.encode()},
    )


def request_replay(host, service_id: int, group: str) -> bool:
    return host.send_control(
        service_id, {TLV.SERVICE_OPTS: OP_REPLAY, TLV.TOPIC: group.encode()}
    )


def publish(host, service_id: int, group: str, data: bytes):
    """Open (or reuse) a connection to the group and publish one message."""
    conn = host.connect(
        service_id, tlvs={TLV.TOPIC: group.encode()}, allow_direct=False
    )
    host.send(conn, data)
    return conn
