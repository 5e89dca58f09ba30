"""Private relay (§6.2) — the two-hop split-trust proxy.

Trust split (as in Apple's iCloud Private Relay):

* the **ingress** relay (client's first-hop SN, enclave) sees the client's
  address but only an encrypted inner blob — it learns the egress SN, not
  the destination;
* the **egress** relay (another SN, enclave) sees the destination but not
  the client: packets arrive from the ingress SN with identity stripped.

The client onion-wraps each outbound message with keys shared with the two
relays (obtained from the relays' published metadata; the key exchange
itself is out of band, as in the real service). Responses retrace the
connection-id mappings held at each relay.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from ..core.ilp import ILPHeader, TLV
from ..core.packet import make_payload
from ..core.service_module import ServiceModule, Verdict, WellKnownService
from ..libs.cryptolib import CryptoLibrary
from .common import deliver_toward

OP_OUT = b"out"  # client -> ingress -> egress -> destination
OP_BACK = b"back"  # destination -> egress -> ingress -> client


def relay_key(sn_address: str) -> bytes:
    """The relay's published wrapping key (deterministic for simulation)."""
    from ..core import crypto

    return crypto.derive_key(
        crypto.derive_key(b"private-relay-root".ljust(16, b"\x00"), "relay"),
        "key",
        sn_address.encode(),
    )


def wrap_for_relay(
    crypto_lib: CryptoLibrary,
    ingress_sn: str,
    egress_sn: str,
    dest_host: str,
    data: bytes,
) -> bytes:
    """Client-side onion construction."""
    inner = crypto_lib.encrypt(
        relay_key(egress_sn),
        json.dumps({"dest": dest_host, "data": data.hex()}).encode(),
    )
    outer = crypto_lib.encrypt(
        relay_key(ingress_sn),
        json.dumps({"egress": egress_sn, "blob": inner.hex()}).encode(),
    )
    return outer


class PrivateRelayService(ServiceModule):
    """Both relay roles in one module; the packet's stage selects the role."""

    SERVICE_ID = WellKnownService.PRIVATE_RELAY
    NAME = "private-relay"
    VERSION = "1.0"
    REQUIRES_ENCLAVE = True

    def __init__(self) -> None:
        super().__init__()
        self._crypto = CryptoLibrary()
        #: ingress role: connection -> client address
        self._ingress_clients: dict[int, str] = {}
        #: egress role: connection -> ingress SN address
        self._egress_ingress: dict[int, str] = {}
        self.relayed_out = 0
        self.relayed_back = 0

    def _my_key(self) -> bytes:
        assert self.ctx is not None
        return relay_key(self.ctx.node_address)

    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        op = header.tlvs.get(TLV.SERVICE_OPTS, OP_OUT)
        if op == OP_BACK:
            return self._handle_back(header, packet)
        return self._handle_out(header, packet)

    # -- outbound ----------------------------------------------------------
    def _handle_out(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        # Try to peel a layer with our key; if it names an egress we are the
        # ingress, if it names a destination we are the egress, and if it
        # does not decrypt we are just a relay hop on the SN path.
        try:
            peeled = json.loads(
                self._crypto.decrypt(self._my_key(), packet.payload.data).decode()
            )
        except Exception:
            # Not a layer for us: plain relay (border hop or final host hop).
            return deliver_toward(self.ctx, header, packet.payload)

        if "egress" in peeled:  # ingress role
            client = header.get_str(TLV.SRC_HOST)
            if client is None or self.ctx.peer_for_host(client) is None:
                return Verdict.drop()
            self._ingress_clients[header.connection_id] = client
            egress = peeled["egress"].encode()
            out = ILPHeader(
                service_id=self.SERVICE_ID,
                connection_id=header.connection_id,
                tlvs={
                    TLV.SERVICE_OPTS: OP_OUT,
                    TLV.DEST_SN: egress,
                    TLV.DEST_ADDR: egress,
                    TLV.RETURN_PATH: self.ctx.node_address.encode(),
                },
            )
            self.relayed_out += 1
            return deliver_toward(
                self.ctx, out, make_payload(bytes.fromhex(peeled["blob"]))
            )

        if "dest" in peeled:  # egress role
            ingress = header.get_str(TLV.RETURN_PATH)
            if ingress is None:
                return Verdict.drop()
            self._egress_ingress[header.connection_id] = ingress
            # Note: no SRC_HOST, no RETURN_PATH — the destination sees only
            # the egress SN.
            out = ILPHeader(
                service_id=self.SERVICE_ID,
                connection_id=header.connection_id,
                tlvs={TLV.SERVICE_OPTS: OP_OUT, TLV.DEST_ADDR: peeled["dest"].encode()},
            )
            self.relayed_out += 1
            return deliver_toward(
                self.ctx, out, make_payload(bytes.fromhex(peeled["data"]))
            )
        return Verdict.drop()

    # -- return path ----------------------------------------------------------
    def _handle_back(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        conn_id = header.connection_id
        client = self._ingress_clients.get(conn_id)
        if client is not None:  # ingress role: last hop to the client
            out = ILPHeader(
                service_id=self.SERVICE_ID,
                connection_id=conn_id,
                tlvs={TLV.SERVICE_OPTS: OP_BACK, TLV.DEST_ADDR: client.encode()},
            )
            self.relayed_back += 1
            return deliver_toward(self.ctx, out, packet.payload)
        ingress = self._egress_ingress.get(conn_id)
        if ingress is not None:  # egress role: send back toward ingress
            back = ingress.encode()
            out = ILPHeader(
                service_id=self.SERVICE_ID,
                connection_id=conn_id,
                tlvs={TLV.SERVICE_OPTS: OP_BACK, TLV.DEST_SN: back, TLV.DEST_ADDR: back},
            )
            self.relayed_back += 1
            return deliver_toward(self.ctx, out, packet.payload)
        return deliver_toward(self.ctx, header, packet.payload)


def send_via_relay(
    host,
    ingress_sn: str,
    egress_sn: str,
    dest_host: str,
    data: bytes,
    crypto_lib: Optional[CryptoLibrary] = None,
):
    """Client-side helper: open a relayed connection and send one message."""
    lib = crypto_lib or CryptoLibrary()
    blob = wrap_for_relay(lib, ingress_sn, egress_sn, dest_host, data)
    conn = host.connect(WellKnownService.PRIVATE_RELAY, allow_direct=False)
    host.send(conn, blob)
    return conn


def reply_via_relay(host, conn_id: int, egress_sn: str, data: bytes) -> None:
    """Destination-side helper: answer a relayed connection."""
    conn = host.connect(
        WellKnownService.PRIVATE_RELAY, dest_sn=egress_sn, allow_direct=False
    )
    host.adopt_connection(conn, conn_id)
    host.send(
        conn,
        data,
        extra_tlvs={
            TLV.SERVICE_OPTS: OP_BACK,
            TLV.DEST_SN: egress_sn.encode(),
            TLV.DEST_ADDR: egress_sn.encode(),
        },
        first=False,
    )
