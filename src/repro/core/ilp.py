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
from typing import Optional

ILP_VERSION = 1
_FIXED_FMT = ">BHBQ"
_FIXED_SIZE = struct.calcsize(_FIXED_FMT)
_TLV_FMT = ">BH"
_TLV_HEADER = struct.calcsize(_TLV_FMT)

#: Byte offset of the flags field in an encoded header (after version and
#: service ID). The terminus burst-sharding stage peeks at this byte to
#: spot slow-path packets without decoding the whole header.
FLAGS_WIRE_OFFSET = struct.calcsize(">BH")


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


class _TLVMap(dict):
    """A TLV dict that counts its mutations.

    :meth:`ILPHeader.encode` memoizes the wire form against this version
    counter, so arbitrary in-place TLV edits (the service modules mutate
    ``header.tlvs`` directly all over) transparently invalidate the cache
    without the header wrapping every access.
    """

    __slots__ = ("_v",)

    def __init__(self, *args, **kwargs) -> None:
        dict.__init__(self, *args, **kwargs)
        self._v = 0

    def __reduce__(self):
        # Rebuild through __init__ (default dict-subclass pickling restores
        # items before slot state, hitting __setitem__ with no _v yet).
        return (self.__class__, (dict(self),))

    def __setitem__(self, key, value) -> None:
        self._v += 1
        dict.__setitem__(self, key, value)

    def __delitem__(self, key) -> None:
        self._v += 1
        dict.__delitem__(self, key)

    def pop(self, *args):
        self._v += 1
        return dict.pop(self, *args)

    def popitem(self):
        self._v += 1
        return dict.popitem(self)

    def clear(self) -> None:
        self._v += 1
        dict.clear(self)

    def update(self, *args, **kwargs) -> None:
        self._v += 1
        dict.update(self, *args, **kwargs)

    def setdefault(self, key, default=None):
        self._v += 1
        return dict.setdefault(self, key, default)


#: Fields whose assignment invalidates a header's cached wire form.
_WIRE_FIELDS = frozenset(("service_id", "connection_id", "flags", "tlvs"))


@dataclass
# dict-backed by design: the encode() memo lives in __dict__ (see
# __setattr__/__getstate__); slots would break the wire cache (the one
# exception in tests/test_ilp_packet.py::TestWireClassLayout).
class ILPHeader:
    """Decoded ILP header.

    ``encode()`` is memoized: the wire form is cached and invalidated on any
    field assignment or TLV mutation, so the fast path (N forwarding
    targets, no TLV rewrites) encodes once and seals N times.
    """

    service_id: int
    connection_id: int
    flags: int = Flags.NONE
    tlvs: dict[int, bytes] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.service_id <= 0xFFFF:
            raise ILPError(f"service_id out of range: {self.service_id}")
        if not 0 <= self.connection_id < 2**64:
            raise ILPError(f"connection_id out of range: {self.connection_id}")

    def __setattr__(self, name: str, value) -> None:
        d = self.__dict__
        if name in _WIRE_FIELDS:
            d["_wire"] = None
            if name == "tlvs" and value.__class__ is not _TLVMap:
                value = _TLVMap(value)
        d[name] = value

    def __getstate__(self):
        # The wire memo never crosses pickle/copy: the TLV map's version
        # counter restarts at 0 on the other side, so a carried-over
        # (_wire, _wire_v) pair could later alias a mutated map.
        state = dict(self.__dict__)
        state.pop("_wire", None)
        state.pop("_wire_v", None)
        return state

    # -- TLV convenience accessors ------------------------------------
    def set_str(self, tlv_type: int, value: str) -> None:
        self.tlvs[tlv_type] = value.encode()

    def get_str(self, tlv_type: int) -> Optional[str]:
        raw = self.tlvs.get(tlv_type)
        return raw.decode() if raw is not None else None

    def set_u64(self, tlv_type: int, value: int) -> None:
        self.tlvs[tlv_type] = struct.pack(">Q", value)

    def get_u64(self, tlv_type: int) -> Optional[int]:
        raw = self.tlvs.get(tlv_type)
        return struct.unpack(">Q", raw)[0] if raw is not None else None

    def set_f64(self, tlv_type: int, value: float) -> None:
        self.tlvs[tlv_type] = struct.pack(">d", value)

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
        tlvs = self.tlvs
        d = self.__dict__
        wire = d.get("_wire")
        if wire is not None and d.get("_wire_v") == tlvs._v:
            return wire
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
            if len(value) > 0xFFFF:
                raise ILPError(f"TLV {tlv_type} too long ({len(value)}B)")
            parts.append(struct.pack(_TLV_FMT, tlv_type, len(value)))
            parts.append(value)
        wire = b"".join(parts)
        d["_wire"] = wire
        d["_wire_v"] = tlvs._v
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
        header = ILPHeader(
            service_id=service_id,
            connection_id=connection_id,
            flags=flags,
            tlvs=tlvs,
        )
        if canonical:
            # ``raw`` is already what encode() would produce (TLVs in
            # canonical sorted order, no duplicates): pre-seed the memo so
            # the decode -> re-encode fast path never serializes.
            d = header.__dict__
            d["_wire"] = raw
            d["_wire_v"] = header.tlvs._v
        return header

    @property
    def encoded_size(self) -> int:
        d = self.__dict__
        wire = d.get("_wire")
        if wire is not None and d.get("_wire_v") == self.tlvs._v:
            return len(wire)
        return _FIXED_SIZE + sum(
            _TLV_HEADER + len(value) for value in self.tlvs.values()
        )

    def copy(self) -> "ILPHeader":
        dup = ILPHeader(
            service_id=self.service_id,
            connection_id=self.connection_id,
            flags=self.flags,
            tlvs=dict(self.tlvs),
        )
        d = self.__dict__
        wire = d.get("_wire")
        if wire is not None and d.get("_wire_v") == self.tlvs._v:
            dup.__dict__["_wire"] = wire
            dup.__dict__["_wire_v"] = dup.tlvs._v
        return dup


def new_connection_id() -> int:
    """A fresh random 64-bit connection ID (chosen by the initiating host)."""
    # repro: allow(DET001) entropy boundary: connection IDs must be unguessable
    return struct.unpack(">Q", os.urandom(8))[0]
