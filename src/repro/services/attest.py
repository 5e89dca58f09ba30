"""Attestation service (§3.3 "basic primitives (such as pub/sub or
attestation)", §6.3).

Lets a client verify what software stack its first-hop SN is running
before trusting it with a privacy-sensitive service: the client sends a
nonce, the SN's service module returns a TPM quote over the PCRs covering
the boot chain, execution environment, loaded services, and enclaves,
plus the extend log needed for verification.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..core.attestation import N_PCRS, AttestationError, AttestationVerifier, Quote
from ..core.ilp import Flags, ILPHeader, TLV
from ..core.packet import Payload, make_payload
from ..core.service_module import Emit, ServiceModule, Verdict, WellKnownService

OP_CHALLENGE = b"challenge"
OP_QUOTE = b"quote"

_LOG_ENTRY = 33  # u8 PCR index + 32 B measurement


def encode_quote_reply(quote: Quote, extend_log: list[tuple[int, bytes]]) -> bytes:
    """Quote reply wire form: the four :class:`Quote` fields, each behind a
    u16 length, then a u16 count of ``(u8 pcr, 32 B digest)`` log entries."""
    fields = (quote.tpm_public, quote.nonce, quote.pcr_digest, quote.signature)
    parts = [struct.pack("!H", len(value)) + value for value in fields]
    parts.append(struct.pack("!H", len(extend_log)))
    parts.extend(bytes((pcr,)) + digest for pcr, digest in extend_log)
    return b"".join(parts)


def decode_quote_reply(data: bytes) -> tuple[Quote, list[tuple[int, bytes]]]:
    """Inverse of :func:`encode_quote_reply` for bytes off the network.

    Raises :class:`AttestationError` on short or trailing input and on a
    PCR index no TPM has.
    """
    fields: list[bytes] = []
    pos = 0
    try:
        for _ in range(4):
            (size,) = struct.unpack_from("!H", data, pos)
            pos += 2
            if pos + size > len(data):
                raise AttestationError("quote reply truncated")
            fields.append(data[pos : pos + size])
            pos += size
        (count,) = struct.unpack_from("!H", data, pos)
    except struct.error:
        raise AttestationError("quote reply truncated") from None
    pos += 2
    if len(data) - pos != count * _LOG_ENTRY:
        raise AttestationError("quote reply length disagrees with its log count")
    extend_log = [
        (data[at], data[at + 1 : at + _LOG_ENTRY])
        for at in range(pos, len(data), _LOG_ENTRY)
    ]
    if any(pcr >= N_PCRS for pcr, _ in extend_log):
        raise AttestationError("quote reply names a PCR no TPM has")
    return Quote(*fields), extend_log


class AttestationService(ServiceModule):
    """Quote-on-demand for the local SN."""

    SERVICE_ID = WellKnownService.ATTESTATION
    NAME = "attestation"
    VERSION = "1.0"

    def __init__(self) -> None:
        super().__init__()
        self.quotes_issued = 0

    def handle_control(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        if header.tlvs.get(TLV.SERVICE_OPTS, b"") != OP_CHALLENGE:
            return Verdict.drop()
        nonce = header.tlvs.get(TLV.SERVICE_PRIVATE)
        client = header.get_str(TLV.SRC_HOST)
        if nonce is None or client is None:
            return Verdict.drop()
        tpm = self.ctx.node.env.tpm
        quote = tpm.quote(nonce)
        blob = encode_quote_reply(quote, tpm.extend_log)
        self.quotes_issued += 1
        reply = ILPHeader(
            service_id=self.SERVICE_ID,
            connection_id=header.connection_id,
            flags=Flags.CONTROL,
            tlvs={TLV.SERVICE_OPTS: OP_QUOTE},
        )
        return Verdict(emits=[Emit(client, reply, make_payload(blob))])

    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        return Verdict.drop()


@dataclass
class AttestationClient:
    """Host-side agent: challenge the first-hop SN and verify its quote."""

    host: Any
    verifier: AttestationVerifier
    results: list[bool] = field(default_factory=list)
    on_result: Optional[Callable[[bool], None]] = None
    _nonce: bytes = b""

    @property
    def challenge_nonce(self) -> bytes:
        """The nonce of the outstanding challenge (empty when none)."""
        return self._nonce

    @challenge_nonce.setter
    def challenge_nonce(self, nonce: bytes) -> None:
        self._nonce = nonce

    def install(self) -> None:
        self.host.on_service_control(
            WellKnownService.ATTESTATION, self._on_packet
        )

    def challenge(self, nonce: bytes) -> bool:
        self._nonce = nonce
        return self.host.send_control(
            WellKnownService.ATTESTATION,
            {TLV.SERVICE_OPTS: OP_CHALLENGE, TLV.SERVICE_PRIVATE: nonce},
        )

    def _on_packet(self, conn_id: int, header: ILPHeader, payload: Payload) -> None:
        if header.tlvs.get(TLV.SERVICE_OPTS) != OP_QUOTE:
            return
        try:
            quote, extend_log = decode_quote_reply(payload.data)
        except AttestationError:
            self._record(False)
            return
        self._record(
            self.verifier.verify(quote, self._nonce, extend_log)
        )

    def _record(self, ok: bool) -> None:
        self.results.append(ok)
        if self.on_result is not None:
            self.on_result(ok)
