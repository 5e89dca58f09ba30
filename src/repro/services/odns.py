"""Oblivious DNS (§6.2 privacy services).

The oDNS split decouples *who is asking* from *what is asked*:

* the client encrypts its query under a key shared with the resolver, so
  the oblivious proxy (a service module in an **enclave** at the client's
  first-hop SN) can route it but never read it;
* the proxy strips the client's identity and forwards the query under its
  own address, so the resolver sees the question but never the asker;
* answers retrace the path via the proxy's connection-id mapping.

Tests assert both halves of the privacy property: the resolver's observed
sources never include the client, and the proxy never holds query
plaintext.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..core.ilp import ILPHeader, TLV
from ..core.packet import Payload
from ..core.service_module import ServiceModule, Verdict, WellKnownService
from .common import deliver_toward

OP_QUERY = b"query"
OP_ANSWER = b"answer"


class ODNSProxyService(ServiceModule):
    """The oblivious proxy. Runs in an enclave (REQUIRES_ENCLAVE)."""

    SERVICE_ID = WellKnownService.ODNS
    NAME = "odns-proxy"
    VERSION = "1.0"
    REQUIRES_ENCLAVE = True

    def __init__(self) -> None:
        super().__init__()
        #: connection id -> querying client address (the only linkage state)
        self._pending: dict[int, str] = {}
        self.queries_proxied = 0
        self.answers_returned = 0

    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        op = header.tlvs.get(TLV.SERVICE_OPTS, b"")
        if op == OP_ANSWER:
            client = self._pending.pop(header.connection_id, None)
            if client is None:
                # Not our mapping: we are a relay SN on the answer's path.
                return deliver_toward(self.ctx, header, packet.payload)
            out = ILPHeader(
                service_id=self.SERVICE_ID,
                connection_id=header.connection_id,
                tlvs={TLV.SERVICE_OPTS: OP_ANSWER, TLV.DEST_ADDR: client.encode()},
            )
            self.answers_returned += 1
            return deliver_toward(self.ctx, out, packet.payload)

        # A query from a local client: strip identity, forward obliviously.
        client = header.get_str(TLV.SRC_HOST)
        resolver = header.get_str(TLV.DEST_ADDR)
        if resolver is None:
            return Verdict.drop()
        if client is None or self.ctx.peer_for_host(client) is None:
            # Already proxied (identity stripped) — we are a relay hop or
            # the resolver's own SN: plain delivery toward the resolver.
            return deliver_toward(self.ctx, header, packet.payload)
        self._pending[header.connection_id] = client
        out = header.with_tlvs(
            {
                TLV.SRC_HOST: None,  # the point of oDNS
                TLV.RETURN_PATH: self.ctx.node_address.encode(),
                TLV.SERVICE_OPTS: OP_QUERY,
            }
        )
        self.queries_proxied += 1
        return deliver_toward(self.ctx, out, packet.payload)

    def checkpoint(self) -> dict[str, Any]:
        return {"pending": dict(self._pending)}

    def restore(self, state: dict[str, Any]) -> None:
        self._pending = {int(k): v for k, v in state.get("pending", {}).items()}


@dataclass
class ODNSResolver:
    """Host-side recursive resolver agent.

    Attach to a host with :meth:`install`; answers arrive at clients via
    their :class:`ODNSClient`.
    """

    host: Any
    zone: dict[str, str]
    shared_key: bytes
    observed_sources: list[Optional[str]] = field(default_factory=list)
    queries_served: int = 0

    def install(self) -> None:
        self.host.on_service_data(WellKnownService.ODNS, self._on_packet)

    def _on_packet(self, conn_id: int, header: ILPHeader, payload: Payload) -> None:
        if header.tlvs.get(TLV.SERVICE_OPTS) != OP_QUERY:
            return
        self.observed_sources.append(header.get_str(TLV.SRC_HOST))
        crypto = self.host_crypto()
        try:
            name = crypto.decrypt(self.shared_key, payload.data).decode()
        except Exception:
            return
        answer = self.zone.get(name, "0.0.0.0")
        blob = crypto.encrypt(self.shared_key, f"{name}={answer}".encode())
        self.queries_served += 1
        proxy_sn = header.get_str(TLV.RETURN_PATH)
        if proxy_sn is None:
            return
        reply = {
            TLV.SERVICE_OPTS: OP_ANSWER,
            TLV.DEST_SN: proxy_sn.encode(),
            # Address the proxy SN itself; its module intercepts by op.
            TLV.DEST_ADDR: proxy_sn.encode(),
        }
        conn = self.host.connect(
            WellKnownService.ODNS, dest_sn=proxy_sn, allow_direct=False
        )
        self.host.adopt_connection(conn, conn_id)  # keep the proxy's correlator
        self.host.send(conn, blob, extra_tlvs=reply, first=False)

    def host_crypto(self):
        from ..libs.cryptolib import CryptoLibrary

        if not hasattr(self, "_crypto"):
            self._crypto = CryptoLibrary()
        return self._crypto


@dataclass
class ODNSClient:
    """Host-side stub resolver agent."""

    host: Any
    resolver_addr: str
    shared_key: bytes
    answers: dict[str, str] = field(default_factory=dict)
    on_answer: Optional[Callable[[str, str], None]] = None

    def install(self) -> None:
        self.host.on_service_data(WellKnownService.ODNS, self._on_packet)

    def query(self, name: str) -> int:
        crypto = self._crypto_lib()
        blob = crypto.encrypt(self.shared_key, name.encode())
        conn = self.host.connect(
            WellKnownService.ODNS, dest_addr=self.resolver_addr, allow_direct=False
        )
        self.host.send(conn, blob)
        return conn.connection_id

    def _on_packet(self, conn_id: int, header: ILPHeader, payload: Payload) -> None:
        if header.tlvs.get(TLV.SERVICE_OPTS) != OP_ANSWER:
            return
        crypto = self._crypto_lib()
        try:
            text = crypto.decrypt(self.shared_key, payload.data).decode()
        except Exception:
            return
        name, _, answer = text.partition("=")
        self.answers[name] = answer
        if self.on_answer is not None:
            self.on_answer(name, answer)

    def _crypto_lib(self):
        from ..libs.cryptolib import CryptoLibrary

        if not hasattr(self, "_crypto"):
            self._crypto = CryptoLibrary()
        return self._crypto
