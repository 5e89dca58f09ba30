"""Mobility lookup service (§6.3 — one of the paper's prototype services).

Hosts move: a phone walks from one access network (and first-hop SN) to
another. The mobility service keeps a *stable identifier* usable by
correspondents while the host's attachment point changes:

* the mobile host registers a stable name with the service;
* on every re-association it sends a binding update (authenticated with
  its lookup-service key) to its new first-hop SN, which records the new
  (address, SN) binding in the global lookup service;
* correspondents address traffic to the stable name; each SN's mobility
  module resolves the *current* binding on the slow path, and binding
  updates invalidate stale decision-cache entries so in-flight connections
  re-route within one slow-path hit (the §B.2 eviction contract doing
  useful work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..core.ilp import ILPHeader, TLV
from ..core.service_module import ServiceModule, Verdict
from .common import deliver_toward

from ..core.service_module import WellKnownService as _WKS
SERVICE_ID_MOBILITY = _WKS.MOBILITY

OP_BIND = b"bind"
TLV_STABLE_NAME = TLV.TOPIC


@dataclass(frozen=True)
class Binding:
    stable_name: str
    address: str
    sn_address: str
    sequence: int


class MobilityService(ServiceModule):
    """Stable-name indirection with authenticated binding updates."""

    SERVICE_ID = SERVICE_ID_MOBILITY
    NAME = "mobility"
    VERSION = "1.0"

    def __init__(self) -> None:
        super().__init__()
        self.binding_updates = 0
        self.reroutes = 0
        self.rejected_updates = 0

    # -- binding updates (control plane) -----------------------------------
    def handle_control(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        if header.tlvs.get(TLV.SERVICE_OPTS, b"") != OP_BIND:
            return Verdict.drop()
        stable = header.get_str(TLV_STABLE_NAME)
        host = header.get_str(TLV.SRC_HOST)
        signature = header.tlvs.get(TLV.SIGNATURE, b"")
        sequence = header.get_u64(TLV.SEQUENCE) or 0
        if stable is None or host is None:
            return Verdict.drop()
        control = self.ctx.control_plane()
        lookup = control.lookup
        # Authenticate: the update must be signed by the key that owns the
        # host address in the lookup service (prevents binding hijacks).
        record = lookup.address_record(host)
        if record is None or not lookup.registry.verify(
            record.owner_public, self._bind_message(stable, host, sequence), signature
        ):
            self.rejected_updates += 1
            return Verdict.drop()
        current = lookup.address_record(f"mobility:{stable}")
        if current is not None and current.owner_public != record.owner_public:
            # The stable name is anchored to its first binder's key: a
            # different identity cannot take it over (anti-hijack).
            self.rejected_updates += 1
            return Verdict.drop()
        current_seq = (current.metadata.get("sequence", -1) if current else -1)
        if sequence <= current_seq:
            self.rejected_updates += 1  # replayed/stale update
            return Verdict.drop()
        lookup.upsert_alias(
            f"mobility:{stable}",
            record.owner_public,
            [self.ctx.node_address],
            address=host,
            sequence=sequence,
        )
        self.binding_updates += 1
        # New attachment point: stale fast-path routes must re-resolve.
        self.invalidate_stale_routes()
        return Verdict(dropped=False)

    @staticmethod
    def _bind_message(stable: str, host: str, sequence: int) -> bytes:
        return f"mobility-bind|{stable}|{host}|{sequence}".encode()

    # -- data path -----------------------------------------------------------
    def resolve(self, stable: str) -> Optional[Binding]:
        assert self.ctx is not None
        record = self.ctx.control_plane().lookup.address_record(
            f"mobility:{stable}"
        )
        if record is None:
            return None
        return Binding(
            stable_name=stable,
            address=record.metadata["address"],
            sn_address=record.associated_sns[0],
            sequence=record.metadata["sequence"],
        )

    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        stable = header.get_str(TLV_STABLE_NAME)
        if stable is None:
            # No stable name: behave like plain delivery.
            return deliver_toward(self.ctx, header, packet.payload)
        binding = self.resolve(stable)
        if binding is None:
            return Verdict.drop()
        out = header.with_tlvs(
            {
                TLV.DEST_ADDR: binding.address.encode(),
                TLV.DEST_SN: binding.sn_address.encode(),
            }
        )
        verdict = deliver_toward(self.ctx, out, packet.payload)
        if verdict.emits:
            self.reroutes += 1
        # Deliberately no decision-cache install: a binding can change
        # between any two packets, and the binding update only reaches the
        # mobile's current SN — per-packet resolution keeps every SN on the
        # path correct without an invalidation protocol.
        return verdict

    def invalidate_stale_routes(self) -> int:
        """Called after a binding update: flush fast-path state so traffic
        re-resolves (Appendix B: eviction is always safe)."""
        assert self.ctx is not None
        return self.ctx.node.cache.evict_random_fraction(1.0)


# -- host-side agent -----------------------------------------------------------

def send_binding_update(
    host, stable_name: str, sequence: int, via: str = None
) -> bool:
    """Register/refresh the mobile host's binding at its current SN.

    After a move, pass ``via`` = the new SN's address (the mobile knows
    which attachment it just made; the default first-hop choice may still
    point at the old one).
    """
    signature = host.keypair.sign(
        MobilityService._bind_message(stable_name, host.address, sequence)
    )
    return host.send_control(
        SERVICE_ID_MOBILITY,
        {
            TLV.SERVICE_OPTS: OP_BIND,
            TLV_STABLE_NAME: stable_name.encode(),
            TLV.SEQUENCE: sequence.to_bytes(8, "big"),
            TLV.SIGNATURE: signature,
        },
        via=via,
    )


def connect_to_mobile(host, stable_name: str):
    """Correspondent-side: open a connection addressed by stable name."""
    return host.connect(
        SERVICE_ID_MOBILITY,
        tlvs={TLV_STABLE_NAME: stable_name.encode()},
        allow_direct=False,
    )
