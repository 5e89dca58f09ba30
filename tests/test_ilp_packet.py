"""Unit tests for ILP headers and the packet model."""

import dataclasses
import enum
import importlib
import inspect
import struct
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.core.ilp import Flags, ILPError, ILPHeader, TLV, new_connection_id
from repro.core.packet import (
    ILPPacket,
    L3Header,
    L4Header,
    PacketError,
    Payload,
    RawIPPacket,
    make_payload,
)


class TestILPHeader:
    def test_roundtrip_minimal(self):
        header = ILPHeader(service_id=7, connection_id=123456789)
        decoded = ILPHeader.decode(header.encode())
        assert decoded.service_id == 7
        assert decoded.connection_id == 123456789
        assert decoded.tlvs == {}

    def test_roundtrip_with_tlvs(self):
        header = ILPHeader(
            service_id=1,
            connection_id=2,
            flags=Flags.FIRST,
            tlvs={
                TLV.DEST_ADDR: b"192.168.1.5",
                TLV.SEQUENCE: struct.pack(">Q", 42),
                TLV.TIMESTAMP: struct.pack(">d", 3.14),
                TLV.SERVICE_OPTS: b"\x00\x01\x02",
            },
        )
        decoded = ILPHeader.decode(header.encode())
        assert decoded.get_str(TLV.DEST_ADDR) == "192.168.1.5"
        assert decoded.get_u64(TLV.SEQUENCE) == 42
        assert decoded.get_f64(TLV.TIMESTAMP) == pytest.approx(3.14)
        assert decoded.tlvs[TLV.SERVICE_OPTS] == b"\x00\x01\x02"
        assert decoded.is_first

    def test_arbitrary_tlv_content_and_length(self):
        """§4: no limits on header contents beyond MTU."""
        header = ILPHeader(service_id=1, connection_id=2, tlvs={0x90: bytes(range(256)) * 4})
        decoded = ILPHeader.decode(header.encode())
        assert decoded.tlvs[0x90] == bytes(range(256)) * 4

    def test_headers_vary_per_packet_same_connection(self):
        """§4: services may require different headers per packet."""
        base = ILPHeader(service_id=1, connection_id=99)
        pkt1 = base.with_tlvs({TLV.SEQUENCE: struct.pack(">Q", 1)})
        pkt2 = base.with_tlvs({TLV.SETUP_FRAG: b"extra-setup"})
        d1 = ILPHeader.decode(pkt1.encode())
        d2 = ILPHeader.decode(pkt2.encode())
        assert d1.connection_id == d2.connection_id == 99
        assert d1.tlvs != d2.tlvs

    def test_encoded_size_accurate(self):
        header = ILPHeader(service_id=1, connection_id=2, tlvs={TLV.DEST_ADDR: b"10.0.0.1"})
        assert len(header.encode()) == header.encoded_size

    def test_truncated_rejected(self):
        header = ILPHeader(service_id=1, connection_id=2, tlvs={TLV.DEST_ADDR: b"10.0.0.1"})
        raw = header.encode()
        with pytest.raises(ILPError):
            ILPHeader.decode(raw[:-3])
        with pytest.raises(ILPError):
            ILPHeader.decode(raw[:5])

    def test_bad_version_rejected(self):
        raw = bytearray(ILPHeader(service_id=1, connection_id=2).encode())
        raw[0] = 99
        with pytest.raises(ILPError):
            ILPHeader.decode(bytes(raw))

    def test_out_of_range_fields_rejected(self):
        with pytest.raises(ILPError):
            ILPHeader(service_id=-1, connection_id=0)
        with pytest.raises(ILPError):
            ILPHeader(service_id=0x10000, connection_id=0)
        with pytest.raises(ILPError):
            ILPHeader(service_id=0, connection_id=2**64)

    def test_out_of_range_wire_fields_raise_ilp_error(self):
        """Flags and TLV types are one byte on the wire: anything else is a
        typed error, never a bare ``struct.error``."""
        for header in (
            ILPHeader(service_id=1, connection_id=2, flags=0x100),
            ILPHeader(service_id=1, connection_id=2, flags=-1),
            ILPHeader(service_id=1, connection_id=2, tlvs={0x100: b"x"}),
            ILPHeader(service_id=1, connection_id=2, tlvs={-1: b"x"}),
        ):
            with pytest.raises(ILPError):
                header.encode()

    def test_copy_is_deep_for_tlvs(self):
        """A rewrite is a new header; the original and its caller's dict
        are untouched."""
        tlvs = {TLV.TOPIC: b"news"}
        header = ILPHeader(service_id=1, connection_id=2, tlvs=tlvs)
        tlvs[TLV.TOPIC] = b"weather"
        dup = header.with_tlvs({TLV.TOPIC: b"sports", TLV.SEQUENCE: None})
        assert header.get_str(TLV.TOPIC) == "news"
        assert dup.get_str(TLV.TOPIC) == "sports"
        assert replace(header, flags=Flags.LAST).tlvs == header.tlvs

    def test_header_is_immutable(self):
        header = ILPHeader(service_id=1, connection_id=2, tlvs={TLV.TOPIC: b"news"})
        wire = header.encode()
        with pytest.raises(FrozenInstanceError):
            header.flags = Flags.LAST
        with pytest.raises(TypeError):
            header.tlvs[TLV.TOPIC] = b"sports"
        assert header.encode() == wire

    def test_control_flag(self):
        header = ILPHeader(service_id=1, connection_id=2, flags=Flags.CONTROL)
        assert ILPHeader.decode(header.encode()).is_control

    def test_connection_ids_unique(self):
        ids = {new_connection_id() for _ in range(100)}
        assert len(ids) == 100


class TestPacketModel:
    def test_l3_validates_addresses(self):
        header = L3Header(src="10.0.0.1", dst="10.0.0.2")
        assert header.src == "10.0.0.1"
        with pytest.raises(PacketError):
            L3Header(src="010.0.0.1", dst="10.0.0.2")  # leading zero rejected

    def test_invalid_address_rejected(self):
        with pytest.raises(PacketError):
            L3Header(src="not-an-ip", dst="10.0.0.1")

    def test_ttl_decrement_and_expiry(self):
        header = L3Header(src="10.0.0.1", dst="10.0.0.2", ttl=2)
        header = header.decrement_ttl()
        with pytest.raises(PacketError):
            header.decrement_ttl()

    def test_reversed(self):
        header = L3Header(src="10.0.0.1", dst="10.0.0.2")
        rev = header.reversed()
        assert (rev.src, rev.dst) == ("10.0.0.2", "10.0.0.1")

    def test_invalid_port_rejected(self):
        with pytest.raises(PacketError):
            L4Header(sport=70000, dport=80)

    def test_wire_size_accounts_for_all_parts(self):
        payload = make_payload(b"x" * 100)
        packet = ILPPacket(
            l3=L3Header(src="10.0.0.1", dst="10.0.0.2"),
            ilp_wire=b"y" * 40,
            payload=payload,
        )
        # L2(14) + L3(20) + ILP(40) + L4(8) + data(100)
        assert packet.wire_size == 14 + 20 + 40 + 8 + 100

    def test_payload_without_l4(self):
        payload = Payload(l4=None, data=b"abc")
        assert payload.wire_size == 3

    def test_raw_ip_packet_size(self):
        packet = RawIPPacket(
            l3=L3Header(src="10.0.0.1", dst="10.0.0.2"),
            payload=make_payload(b"zz"),
        )
        assert packet.wire_size == 14 + 20 + 8 + 2

    def test_packet_ids_unique(self):
        p1 = RawIPPacket(
            l3=L3Header(src="10.0.0.1", dst="10.0.0.2"), payload=make_payload(b"")
        )
        p2 = RawIPPacket(
            l3=L3Header(src="10.0.0.1", dst="10.0.0.2"), payload=make_payload(b"")
        )
        assert p1.packet_id != p2.packet_id


class TestWireClassLayout:
    WIRE_MODULES = ("ilp", "packet", "crypto", "psp", "decision_cache", "pipe_terminus")
    def test_wire_classes_have_fixed_layout_and_two_way_codecs(self):
        """Checked on the imported classes, so it is exact: every class in
        the six wire modules that holds per-instance state (a dataclass, or
        one with its own ``__init__``) declares ``__slots__`` /
        ``slots=True``, and ``encode`` never comes without ``decode``."""
        unslotted = []
        codecs = []
        for name in self.WIRE_MODULES:
            module = importlib.import_module(f"repro.core.{name}")
            for _, cls in inspect.getmembers(module, inspect.isclass):
                if cls.__module__ != module.__name__ or issubclass(
                    cls, (Exception, enum.Enum)
                ):
                    continue
                own = vars(cls)
                stateful = dataclasses.is_dataclass(cls) or "__init__" in own
                if stateful and "__slots__" not in own:
                    unslotted.append(cls.__name__)
                if "encode" in own or "decode" in own:
                    codecs.append(cls)
                    assert "encode" in own and "decode" in own, cls.__name__
        assert unslotted == []
        assert ILPHeader in codecs
