"""The Interposition-Layer Protocol (ILP) header.

Per §4, the only mandatory structure is that the initial portion of the ILP
header carries a *service ID* and a *connection ID*; beyond that, services
may put arbitrary-length, arbitrary-content, per-packet-varying information
in the header (subject to MTU). We encode that as a fixed prefix followed
by TLVs::

    | version (1B) | service_id (2B) | flags (1B) | connection_id (8B) |
    | TLV* : type (1B) | length (2B) | value (length B) |

Connection IDs are chosen by the initiating host and scope the decision
cache; they are not related to L4 ports.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

ILP_VERSION = 1
_FIXED_FMT = ">BHBQ"
_FIXED_SIZE = struct.calcsize(_FIXED_FMT)
_TLV_FMT = ">BH"
_TLV_HEADER = struct.calcsize(_TLV_FMT)

#: Byte offset of the flags field in an encoded header (after version and
#: service ID). The terminus burst-sharding stage peeks at this byte to
#: spot slow-path packets without decoding the whole header.
FLAGS_WIRE_OFFSET = struct.calcsize(">BH")

#: Slot writes that bypass the frozen ``__setattr__`` (construction, memo).
_set = object.__setattr__


class ILPError(Exception):
    """Raised on malformed ILP headers."""


class Flags:
    """Bit flags in the fixed ILP prefix."""

    NONE = 0x00
    CONTROL = 0x01  # control-plane message, not data
    FIRST = 0x02  # first packet of a connection (services may expect setup TLVs)
    LAST = 0x04  # sender believes the connection is finished
    MORE_HEADER = 0x08  # setup info continues in subsequent packets (§B.2)

    #: Mask of flags that force the slow path: CONTROL is not data, and the
    #: service must see LAST to tear down state (a fast-path hit would hide
    #: it). The terminus tests this once per packet / per flow run.
    SLOW_PATH = CONTROL | LAST


class TLV:
    """Well-known TLV types. Services may define their own ≥ 0x80."""

    DEST_ADDR = 0x01  # ultimate destination host address (str)
    DEST_SN = 0x02  # destination's associated SN address (str)
    SRC_HOST = 0x03  # originating host address (str)
    SERVICE_OPTS = 0x04  # option bytes interpreted by the service
    BUNDLE = 0x05  # bundle member toggles
    TOPIC = 0x06  # pub/sub topic / group name (str)
    SIGNATURE = 0x07  # authorization signature (join messages etc.)
    IDENTITY = 0x08  # public key / identity token
    SEQUENCE = 0x09  # service-level sequence number (u64)
    TIMESTAMP = 0x0A  # GPS-clock timestamp (f64 seconds)
    SETUP_FRAG = 0x0B  # fragment of oversized setup info (§B.2)
    RETURN_PATH = 0x0C  # reverse-path SN list
    SERVICE_PRIVATE = 0x80  # first service-private type


@dataclass(frozen=True, slots=True, init=False)
class ILPHeader:
    """Decoded ILP header: an immutable value.

    No field can be assigned and ``tlvs`` is a read-only mapping. A rewrite
    returns a new header: :meth:`with_tlvs` for TLVs,
    ``dataclasses.replace`` for the fixed-prefix fields. Because nothing a
    header is built from can change, ``encode()`` memoizes its wire form
    for good, and a header decoded from canonical bytes keeps them as that
    memo: the decode → re-encode fast path never serializes.
    """

    service_id: int
    connection_id: int
    flags: int
    tlvs: Mapping[int, bytes]
    _wire: Optional[bytes] = field(default=None, init=False, compare=False, repr=False)

    def __init__(
        self,
        service_id: int,
        connection_id: int,
        flags: int = Flags.NONE,
        tlvs: Optional[Mapping[int, bytes]] = None,
    ) -> None:
        if not 0 <= service_id <= 0xFFFF:
            raise ILPError(f"service_id out of range: {service_id}")
        if not 0 <= connection_id < 2**64:
            raise ILPError(f"connection_id out of range: {connection_id}")
        _set(self, "service_id", service_id)
        _set(self, "connection_id", connection_id)
        _set(self, "flags", flags)
        _set(self, "tlvs", MappingProxyType(dict(tlvs) if tlvs else {}))
        _set(self, "_wire", None)

    def __reduce__(self) -> tuple[type, tuple[int, int, int, dict[int, bytes]]]:
        # Pickle, copy and deepcopy rebuild through __init__ (a read-only
        # mapping does not pickle); the memo is re-derived on demand.
        return (ILPHeader, (self.service_id, self.connection_id, self.flags, dict(self.tlvs)))

    def with_tlvs(self, updates: Mapping[int, Optional[bytes]]) -> "ILPHeader":
        """A copy with ``updates`` applied: a ``None`` value removes the TLV."""
        tlvs = dict(self.tlvs)
        for tlv_type, value in updates.items():
            if value is None:
                tlvs.pop(tlv_type, None)
            else:
                tlvs[tlv_type] = value
        return ILPHeader(self.service_id, self.connection_id, self.flags, tlvs)

    # -- TLV convenience accessors ------------------------------------
    def get_str(self, tlv_type: int) -> Optional[str]:
        raw = self.tlvs.get(tlv_type)
        return raw.decode() if raw is not None else None

    def get_u64(self, tlv_type: int) -> Optional[int]:
        raw = self.tlvs.get(tlv_type)
        return struct.unpack(">Q", raw)[0] if raw is not None else None

    def get_f64(self, tlv_type: int) -> Optional[float]:
        raw = self.tlvs.get(tlv_type)
        return struct.unpack(">d", raw)[0] if raw is not None else None

    @property
    def is_control(self) -> bool:
        return bool(self.flags & Flags.CONTROL)

    @property
    def is_first(self) -> bool:
        return bool(self.flags & Flags.FIRST)

    # -- wire format ----------------------------------------------------
    def encode(self) -> bytes:
        wire = self._wire
        if wire is not None:
            return wire
        tlvs = self.tlvs
        try:
            parts = [
                struct.pack(
                    _FIXED_FMT,
                    ILP_VERSION,
                    self.service_id,
                    self.flags,
                    self.connection_id,
                )
            ]
            for tlv_type in sorted(tlvs):
                value = tlvs[tlv_type]
                parts.append(struct.pack(_TLV_FMT, tlv_type, len(value)))
                parts.append(value)
        except struct.error as exc:
            # Flags or a TLV type outside one byte, a value over 64 KiB.
            raise ILPError(f"header field out of range: {exc}") from None
        wire = b"".join(parts)
        _set(self, "_wire", wire)
        return wire

    @staticmethod
    def decode(raw: bytes) -> "ILPHeader":
        if len(raw) < _FIXED_SIZE:
            raise ILPError("ILP header truncated")
        version, service_id, flags, connection_id = struct.unpack_from(
            _FIXED_FMT, raw
        )
        if version != ILP_VERSION:
            raise ILPError(f"unsupported ILP version {version}")
        tlvs: dict[int, bytes] = {}
        offset = _FIXED_SIZE
        canonical = True
        prev_type = -1
        while offset < len(raw):
            if offset + _TLV_HEADER > len(raw):
                raise ILPError("truncated TLV header")
            tlv_type, length = struct.unpack_from(_TLV_FMT, raw, offset)
            offset += _TLV_HEADER
            if offset + length > len(raw):
                raise ILPError("truncated TLV value")
            tlvs[tlv_type] = raw[offset : offset + length]
            offset += length
            if tlv_type <= prev_type:
                canonical = False
            prev_type = tlv_type
        header = ILPHeader(service_id, connection_id, flags, tlvs)
        if canonical:
            # ``raw`` is already what encode() would produce (TLVs in
            # canonical sorted order, no duplicates).
            _set(header, "_wire", raw)
        return header

    @property
    def encoded_size(self) -> int:
        return len(self.encode())


def new_connection_id() -> int:
    """A fresh random 64-bit connection ID (chosen by the initiating host)."""
    # repro: allow(DET001) entropy boundary: connection IDs must be unguessable
    return struct.unpack(">Q", os.urandom(8))[0]
