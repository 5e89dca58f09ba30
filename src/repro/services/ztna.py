"""Zero-trust network access (ZTNA) service.

The paper uses ZTNA twice: as a marquee edge service (§1.2) and as the
Appendix B example of a service whose connection-establishment information
is too large for a single ILP header ("ZTNA security services that check
software version information when establishing a connection").

Protocol:

* The client opens a connection whose setup spans one or more FIRST/
  MORE_HEADER packets carrying IDENTITY and SETUP_FRAG TLVs (device
  posture: OS build, patch level, agent attestation), fragmented because
  the posture report can exceed what fits beside the payload (§B.2).
* The service reassembles the posture, checks identity authorization for
  the requested resource and posture against policy, then admits the
  connection: it records it in an **internal connection table** (the
  domain-specific cache §B.2 requires) and installs a decision-cache entry.
* Mid-connection packets whose cache entry was evicted are re-admitted
  from the internal table without re-running authentication.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.decision_cache import Action, CacheKey, Decision, ForwardTarget
from ..core.ilp import Flags, ILPHeader, TLV
from ..core.service_module import ServiceModule, Verdict, WellKnownService
from .common import deliver_toward, route_toward

#: Marks traffic already admitted by the enforcement SN. Only honored when
#: the packet arrived over an SN pipe (never directly from a host), so a
#: client cannot self-admit.
TLV_ADMITTED = TLV.SERVICE_PRIVATE + 4


@dataclass
class PosturePolicy:
    """What device posture is acceptable."""

    min_os_build: int = 0
    require_agent: bool = False
    max_posture_age: float = 3600.0

    def acceptable(self, posture: dict[str, Any]) -> bool:
        if int(posture.get("os_build", -1)) < self.min_os_build:
            return False
        if self.require_agent and not posture.get("agent", False):
            return False
        return True


@dataclass
class ZTNAPolicy:
    """Which identities may reach which resources, under what posture."""

    #: resource (dest host address) -> allowed identity tokens
    allowed: dict[str, set[str]] = field(default_factory=dict)
    posture: PosturePolicy = field(default_factory=PosturePolicy)

    def grant(self, resource: str, identity: str) -> None:
        self.allowed.setdefault(resource, set()).add(identity)

    def permits(self, resource: str, identity: str) -> bool:
        return identity in self.allowed.get(resource, set())


@dataclass
class _PendingSetup:
    fragments: dict[int, bytes] = field(default_factory=dict)
    identity: Optional[str] = None
    dest: Optional[str] = None


@dataclass
class _AdmittedConnection:
    identity: str
    dest: str
    peer: str
    admitted_at: float


class ZTNAService(ServiceModule):
    """Identity- and posture-gated access to protected resources."""

    SERVICE_ID = WellKnownService.ZTNA
    NAME = "ztna"
    VERSION = "1.0"

    def __init__(self, policy: Optional[ZTNAPolicy] = None) -> None:
        super().__init__()
        self.policy = policy or ZTNAPolicy()
        self._pending: dict[int, _PendingSetup] = {}
        self._admitted: dict[int, _AdmittedConnection] = {}
        self.denials = 0
        self.readmissions = 0

    # -- setup reassembly (§B.2 oversized setup info) ------------------------
    def _collect_setup(self, header: ILPHeader, conn_id: int) -> _PendingSetup:
        pending = self._pending.setdefault(conn_id, _PendingSetup())
        identity = header.tlvs.get(TLV.IDENTITY)
        if identity is not None:
            pending.identity = identity.decode()
        dest = header.get_str(TLV.DEST_ADDR)
        if dest is not None:
            pending.dest = dest
        frag = header.tlvs.get(TLV.SETUP_FRAG)
        if frag is not None:
            seq = header.get_u64(TLV.SEQUENCE) or 0
            pending.fragments[seq] = frag
        return pending

    def _assemble_posture(self, pending: _PendingSetup) -> Optional[dict[str, Any]]:
        if not pending.fragments:
            return None
        blob = b"".join(
            pending.fragments[i] for i in sorted(pending.fragments)
        )
        try:
            return json.loads(blob.decode())
        except (ValueError, UnicodeDecodeError):
            return None

    # -- datapath ----------------------------------------------------------
    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        conn_id = header.connection_id

        # Downstream of the enforcement point: trust the admission mark if
        # (and only if) the packet came over an SN pipe.
        if (
            TLV_ADMITTED in header.tlvs
            and self.ctx.peer_for_host(packet.l3.src) is None
        ):
            return deliver_toward(self.ctx, header, packet.payload)

        if header.flags & Flags.LAST:
            self._admitted.pop(conn_id, None)
            self._pending.pop(conn_id, None)
            self.ctx.invalidate_connection(conn_id)
            return Verdict.drop()

        admitted = self._admitted.get(conn_id)
        if admitted is not None:
            # Cache entry was evicted (or multi-path): re-admit from the
            # internal table — no re-authentication (§B.2).
            self.readmissions += 1
            return self._admit(header, packet, admitted, packet.l3.src)

        is_setup = (
            header.is_first
            or (header.flags & Flags.MORE_HEADER)
            or TLV.SETUP_FRAG in header.tlvs
            or TLV.IDENTITY in header.tlvs
        )
        if is_setup:
            pending = self._collect_setup(header, conn_id)
            if header.flags & Flags.MORE_HEADER:
                # Setup continues in later packets; hold (drop the carrier —
                # setup packets carry no app payload by convention).
                return Verdict(dropped=False)
            return self._try_admit(header, packet, pending)

        # Data packet for a connection we never admitted: zero trust says no.
        self.denials += 1
        return Verdict.drop()

    def _try_admit(
        self, header: ILPHeader, packet: Any, pending: _PendingSetup
    ) -> Verdict:
        assert self.ctx is not None
        conn_id = header.connection_id
        posture = self._assemble_posture(pending)
        if (
            pending.identity is None
            or pending.dest is None
            or posture is None
            or not self.policy.posture.acceptable(posture)
            or not self.policy.permits(pending.dest, pending.identity)
        ):
            self.denials += 1
            self._pending.pop(conn_id, None)
            return Verdict.drop()
        peer, header = route_toward(self.ctx, header)
        if peer is None:
            self._pending.pop(conn_id, None)
            return Verdict.drop()
        admitted = _AdmittedConnection(
            identity=pending.identity,
            dest=pending.dest,
            peer=peer,
            admitted_at=self.ctx.now(),
        )
        self._admitted[conn_id] = admitted
        self._pending.pop(conn_id, None)
        return self._admit(header, packet, admitted, packet.l3.src)

    def _admit(
        self,
        header: ILPHeader,
        packet: Any,
        admitted: _AdmittedConnection,
        src: str,
    ) -> Verdict:
        key = CacheKey(
            src=src, service_id=self.SERVICE_ID, connection_id=header.connection_id
        )
        # Recompute the peer in case topology moved since admission.
        assert self.ctx is not None
        peer, header = route_toward(self.ctx, header)
        peer = peer or admitted.peer
        out = header.with_tlvs(
            {
                TLV.IDENTITY: None,
                TLV.SETUP_FRAG: None,
                TLV.SEQUENCE: None,
                TLV_ADMITTED: self.ctx.node_address.encode(),
            }
        )
        verdict = Verdict.forward(peer, out, packet.payload)
        # The fast-path copy must carry the admission mark too.
        target = ForwardTarget(
            peer,
            tlv_updates=((TLV_ADMITTED, self.ctx.node_address.encode()),),
        )
        verdict.installs.append(
            (key, Decision(action=Action.FORWARD, targets=(target,)))
        )
        return verdict

    # -- fault tolerance ------------------------------------------------------
    def checkpoint(self) -> dict[str, Any]:
        return {
            "admitted": {
                conn_id: (a.identity, a.dest, a.peer, a.admitted_at)
                for conn_id, a in self._admitted.items()
            }
        }

    def restore(self, state: dict[str, Any]) -> None:
        self._admitted = {
            int(conn_id): _AdmittedConnection(*vals)
            for conn_id, vals in state.get("admitted", {}).items()
        }


def make_setup_packets(
    identity: str, posture: dict[str, Any], fragment_size: int = 64
) -> list[dict[int, bytes]]:
    """Client-side helper: TLV dicts for a (possibly fragmented) ZTNA setup.

    Returns one TLV dict per setup packet; all but the last should be sent
    with the MORE_HEADER flag.
    """
    blob = json.dumps(posture).encode()
    fragments = [
        blob[i : i + fragment_size] for i in range(0, len(blob), fragment_size)
    ] or [b"{}"]
    packets = []
    for seq, frag in enumerate(fragments):
        tlvs: dict[int, bytes] = {
            TLV.SETUP_FRAG: frag,
            TLV.SEQUENCE: seq.to_bytes(8, "big"),
        }
        if seq == 0:
            tlvs[TLV.IDENTITY] = identity.encode()
        packets.append(tlvs)
    return packets
