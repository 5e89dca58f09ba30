"""Generic VPN service (§6.2).

"The InterEdge could easily support a generic VPN service that provides a
customer with a publicly reachable address, redirects incoming traffic to
a customer-specified authentication service, and only allows in traffic
that has been duly authenticated."

Implementation: the customer registers a *public address* with the VPN
service at an SN; unauthenticated connections to that address are
redirected to the configured authenticator (another host), which — on
success — mints an HMAC token bound to the source. Traffic carrying a
valid token in its AUTH TLV is admitted and forwarded to the customer's
real (inner) host.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
from dataclasses import dataclass
from typing import Any

from ..core.ilp import ILPHeader, TLV
from ..core.service_module import ServiceModule, Verdict, WellKnownService
from .common import deliver_toward

TLV_AUTH_TOKEN = TLV.SERVICE_PRIVATE + 3
OP_REGISTER = b"register"
OP_REDIRECTED = b"redirected"


@dataclass
class VPNEndpoint:
    public_address: str
    inner_host: str
    authenticator: str  # host address of the auth service
    token_key: bytes


def mint_token(token_key: bytes, source: str) -> bytes:
    """The authenticator's token for an approved source."""
    return hmac_mod.new(token_key, b"vpn|" + source.encode(), hashlib.sha256).digest()


class VPNService(ServiceModule):
    """Authentication-gated public ingress."""

    SERVICE_ID = WellKnownService.VPN
    NAME = "vpn"
    VERSION = "1.0"

    def __init__(self) -> None:
        super().__init__()
        self.endpoints: dict[str, VPNEndpoint] = {}
        self.redirected = 0
        self.admitted = 0
        self.rejected = 0

    def register_endpoint(self, endpoint: VPNEndpoint) -> None:
        self.endpoints[endpoint.public_address] = endpoint

    def handle_control(self, header: ILPHeader, packet: Any) -> Verdict:
        # Customer registers a public endpoint out of band.
        op = header.tlvs.get(TLV.SERVICE_OPTS, b"")
        if op != OP_REGISTER:
            return Verdict.drop()
        owner = header.get_str(TLV.SRC_HOST)
        public = header.get_str(TLV.DEST_ADDR)
        authenticator = header.get_str(TLV.RETURN_PATH)
        key = header.tlvs.get(TLV.IDENTITY)
        if None in (owner, public, authenticator) or key is None:
            return Verdict.drop()
        self.register_endpoint(
            VPNEndpoint(
                public_address=public,
                inner_host=owner,
                authenticator=authenticator,
                token_key=key,
            )
        )
        return Verdict(dropped=False)

    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        dest = header.get_str(TLV.DEST_ADDR)
        source = header.get_str(TLV.SRC_HOST)
        if dest is None:
            return Verdict.drop()
        endpoint = self.endpoints.get(dest)
        if endpoint is None:
            # Not one of our public addresses: plain delivery.
            return deliver_toward(self.ctx, header, packet.payload)
        if source is None:
            self.rejected += 1
            return Verdict.drop()
        token = header.tlvs.get(TLV_AUTH_TOKEN)
        if token is not None and hmac_mod.compare_digest(
            token, mint_token(endpoint.token_key, source)
        ):
            # Authenticated: rewrite toward the inner host.
            self.admitted += 1
            out = header.with_tlvs(
                {TLV.DEST_ADDR: endpoint.inner_host.encode(), TLV.DEST_SN: None}
            )
            return deliver_toward(self.ctx, out, packet.payload)
        # Unauthenticated: redirect to the authenticator.
        self.redirected += 1
        out = header.with_tlvs(
            {
                TLV.DEST_ADDR: endpoint.authenticator.encode(),
                TLV.DEST_SN: None,
                TLV.SERVICE_OPTS: OP_REDIRECTED,
                TLV.RETURN_PATH: dest.encode(),  # so the authenticator knows why
            }
        )
        return deliver_toward(self.ctx, out, packet.payload)


@dataclass
class VPNAuthenticator:
    """Host-side authentication service: approves sources by credential."""

    host: Any
    token_key: bytes
    credentials: set[str]  # accepted passwords
    approved: list[str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.approved is None:
            self.approved = []

    def install(self) -> None:
        self.host.on_service_data(WellKnownService.VPN, self._on_packet)

    def _on_packet(self, conn_id: int, header: ILPHeader, payload: Any) -> None:
        if header.tlvs.get(TLV.SERVICE_OPTS) != OP_REDIRECTED:
            return
        source = header.get_str(TLV.SRC_HOST)
        credential = payload.data.decode(errors="replace")
        if source is None or credential not in self.credentials:
            return
        self.approved.append(source)
        token = mint_token(self.token_key, source)
        conn = self.host.connect(
            WellKnownService.IP_DELIVERY, dest_addr=source, allow_direct=False
        )
        self.host.send(conn, b"VPN-TOKEN:" + token.hex().encode())


def register_vpn_endpoint(
    host, public_address: str, authenticator: str, token_key: bytes
) -> bool:
    """Customer-side: claim a public address gated by an authenticator."""
    return host.send_control(
        WellKnownService.VPN,
        {
            TLV.SERVICE_OPTS: OP_REGISTER,
            TLV.DEST_ADDR: public_address.encode(),
            TLV.RETURN_PATH: authenticator.encode(),
            TLV.IDENTITY: token_key,
        },
    )
