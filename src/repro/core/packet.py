"""Packet and header model.

Per Figure 2 of the paper, an ILP packet on the wire is::

    | L2/L3 header | encrypted ILP header | L4 header + data (opaque) |

The outer L2/L3 headers are plaintext (the underlay routes on them), the
ILP header is encrypted hop-by-hop with the pairwise PSP key, and the
payload (the endpoints' L4 header plus application data) is opaque to SNs
unless a service legitimately operates on it.

Addresses use the stdlib :mod:`ipaddress` types, stored here as strings for
hashability and cheap equality.
"""

from __future__ import annotations

import functools
import ipaddress
import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

L2_HEADER_SIZE = 14
L3_HEADER_SIZE = 20
L4_HEADER_SIZE = 8

# IP protocol number we pretend IANA assigned to ILP-over-UDP encap.
PROTO_ILP = 0x99
PROTO_UDP = 17
PROTO_TCP = 6

_packet_ids = itertools.count(1)


class PacketError(Exception):
    """Raised for malformed packets or invalid header fields."""


@functools.lru_cache(maxsize=4096)
def normalize_address(address: str) -> str:
    """Validate and canonicalize an IPv4 address string.

    Memoised (bounded): every ``L3Header`` normalises two addresses, and a
    federation speaks through a small set of them. A raise is never cached,
    so invalid input is rejected on every call.
    """
    try:
        return str(ipaddress.IPv4Address(address))
    except (ipaddress.AddressValueError, ValueError) as exc:
        raise PacketError(f"invalid address {address!r}") from exc


@dataclass(frozen=True, slots=True)
class L3Header:
    """Outer IP header (the only part the legacy underlay looks at)."""

    src: str
    dst: str
    proto: int = PROTO_ILP
    ttl: int = 64

    def __post_init__(self) -> None:
        object.__setattr__(self, "src", normalize_address(self.src))
        object.__setattr__(self, "dst", normalize_address(self.dst))
        if not 0 < self.ttl <= 255:
            raise PacketError(f"invalid ttl {self.ttl}")

    def decrement_ttl(self) -> "L3Header":
        if self.ttl <= 1:
            raise PacketError("TTL expired")
        return replace(self, ttl=self.ttl - 1)

    def reversed(self) -> "L3Header":
        return replace(self, src=self.dst, dst=self.src)


@dataclass(frozen=True, slots=True)
class L4Header:
    """Endpoint transport header; opaque to SNs, modeled for end hosts."""

    sport: int
    dport: int
    proto: int = PROTO_UDP

    def __post_init__(self) -> None:
        for port in (self.sport, self.dport):
            if not 0 <= port <= 65535:
                raise PacketError(f"invalid port {port}")


@dataclass(slots=True)
class Payload:
    """The end-to-end portion: L4 header + application bytes.

    End hosts build and consume this; SNs treat :attr:`data` as opaque unless
    a service module (with endpoint consent, e.g. caching) parses it.
    """

    l4: Optional[L4Header]
    data: bytes = b""

    @property
    def wire_size(self) -> int:
        return (L4_HEADER_SIZE if self.l4 is not None else 0) + len(self.data)


@dataclass(slots=True)
class ILPPacket:
    """A packet traveling between ILP speakers (host↔SN or SN↔SN).

    ``ilp_wire`` is the PSP-encrypted ILP header as produced by
    :mod:`repro.core.psp`; decrypted forms live only transiently inside the
    pipe-terminus (mirroring how a real SN never forwards plaintext ILP).
    """

    l3: L3Header
    ilp_wire: bytes
    payload: Payload
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    created_at: float = 0.0
    #: Classification hint for egress QoS shapers: the original sending
    #: host, known to the SN post-decrypt (SRC_HOST TLV) but opaque on the
    #: wire. Set by the pipe-terminus on egress; None elsewhere.
    qos_src: Optional[str] = None

    @property
    def wire_size(self) -> int:
        return (
            L2_HEADER_SIZE
            + L3_HEADER_SIZE
            + len(self.ilp_wire)
            + self.payload.wire_size
        )


@dataclass(slots=True)
class RawIPPacket:
    """A legacy (non-ILP) packet for backwards-compatibility tests.

    The paper requires InterEdge-unaware endpoints to keep working; these
    packets traverse the same links but bypass every SN service path.
    """

    l3: L3Header
    payload: Payload
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    @property
    def wire_size(self) -> int:
        return L2_HEADER_SIZE + L3_HEADER_SIZE + self.payload.wire_size


def make_payload(data: bytes, sport: int = 40000, dport: int = 443) -> Payload:
    """Convenience constructor used widely in tests and examples."""
    return Payload(l4=L4Header(sport=sport, dport=dport), data=data)
