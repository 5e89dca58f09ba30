"""Unit tests for invocation channels and the enclave model."""

from dataclasses import FrozenInstanceError, replace

import pytest

from repro.core.attestation import PCR_ENCLAVE, SoftwareTPM
from repro.core.enclave import Enclave, EnclaveError, module_image
from repro.core.decision_cache import CacheKey, Decision
from repro.core.ilp import ILPHeader
from repro.core.ipc import CostModel, InvocationChannel, InvocationMode, IPCError
from repro.core.packet import ILPPacket, L3Header, L4Header, Payload, make_payload
from repro.core.service_module import Emit, Verdict


def _packet(data: bytes = b"data") -> ILPPacket:
    return ILPPacket(
        l3=L3Header(src="10.0.0.2", dst="10.0.0.1"),
        ilp_wire=b"\x00" * 48,
        payload=make_payload(data),
    )


def _forward(header, packet) -> Verdict:
    return Verdict.forward("10.0.0.3", header, packet.payload)


class TestInvocationChannel:
    def _header(self):
        return ILPHeader(service_id=1, connection_id=5)

    def test_ipc_roundtrip_preserves_values(self):
        channel = InvocationChannel(InvocationMode.IPC)
        header, packet = self._header(), _packet()
        seen = []

        def handler(rx_header, rx_packet):
            seen.append((rx_header, rx_packet))
            key = CacheKey(rx_packet.l3.src, 1, rx_header.connection_id)
            verdict = _forward(rx_header, rx_packet)
            verdict.installs.append((key, Decision.forward("10.0.0.3")))
            return verdict

        result = channel.invoke(handler, header, packet)
        assert seen == [(header, packet)]
        assert result == Verdict(
            emits=[Emit("10.0.0.3", header, packet.payload)],
            installs=[(CacheKey("10.0.0.2", 1, 5), Decision.forward("10.0.0.3"))],
        )

    def test_ipc_marshals_bytes(self):
        channel = InvocationChannel(InvocationMode.IPC)
        channel.invoke(lambda h, p: None, self._header(), _packet(b"x" * 100))
        assert channel.stats.invocations == 1
        assert channel.stats.bytes_marshalled > 100

    def test_shm_passes_references(self):
        channel = InvocationChannel(InvocationMode.SHARED_MEMORY)
        marker = object()
        received = []
        channel.invoke(lambda h, p: received.append(p), self._header(), marker)
        assert received[0] is marker

    def test_ipc_copies_not_references(self):
        """The IPC hop crosses a process boundary: objects are copied."""
        channel = InvocationChannel(InvocationMode.IPC)
        header, packet = self._header(), _packet()
        received = []
        channel.invoke(lambda h, p: received.append((h, p)), header, packet)
        rx_header, rx_packet = received[0]
        assert (rx_header, rx_packet) == (header, packet)
        assert rx_header is not header
        assert rx_packet is not packet
        assert rx_packet.payload is not packet.payload

    def test_ipc_rejects_non_packets(self):
        """The boundary carries (ILPHeader, ILPPacket) -> Verdict, nothing else."""
        channel = InvocationChannel(InvocationMode.IPC)
        with pytest.raises(IPCError):
            channel.invoke(lambda h, p: None, self._header(), "pkt")
        with pytest.raises(IPCError):
            channel.invoke_batch(lambda ps: [None], [("hdr", _packet())])
        with pytest.raises(IPCError):
            channel.invoke(lambda h, p: "verdict", self._header(), _packet())


class TestInvokeBatch:
    def _punts(self, n):
        return [
            (ILPHeader(service_id=1, connection_id=i), _packet(b"pkt-%d" % i))
            for i in range(n)
        ]

    def test_ipc_batch_roundtrip_preserves_order(self):
        channel = InvocationChannel(InvocationMode.IPC)
        seen = []

        def handler(punts):
            seen.extend(h.connection_id for h, _p in punts)
            return [_forward(h, p) for h, p in punts]

        punts = self._punts(5)
        results = channel.invoke_batch(handler, punts)
        assert seen == [0, 1, 2, 3, 4]
        assert [v.emits[0].header.connection_id for v in results] == seen
        assert [v.emits[0].payload.data for v in results] == [
            p.payload.data for _h, p in punts
        ]

    def test_ipc_batch_copies_not_references(self):
        channel = InvocationChannel(InvocationMode.IPC)
        marker = _packet()
        received = []
        channel.invoke_batch(
            lambda punts: [received.append(p) for _h, p in punts],
            [(ILPHeader(service_id=1, connection_id=0), marker)],
        )
        assert received[0] == marker
        assert received[0] is not marker

    def test_shm_batch_passes_references(self):
        channel = InvocationChannel(InvocationMode.SHARED_MEMORY)
        marker = object()
        received = []
        channel.invoke_batch(
            lambda punts: [received.append(p) for _h, p in punts],
            [(ILPHeader(service_id=1, connection_id=0), marker)],
        )
        assert received[0] is marker

    def test_batch_counters(self):
        channel = InvocationChannel(InvocationMode.IPC)
        channel.invoke_batch(lambda punts: [None] * len(punts), self._punts(7))
        channel.invoke_batch(lambda punts: [None] * len(punts), self._punts(3))
        stats = channel.stats
        assert stats.invocations == 10
        assert stats.batches == 2
        assert stats.max_batch == 7

    def test_ipc_batch_amortizes_marshalling(self):
        """One batch round trip costs fewer bytes than n scalar ones, and a
        batch of one costs exactly the bytes of a scalar invoke."""
        scalar = InvocationChannel(InvocationMode.IPC)
        for header, pkt in self._punts(16):
            scalar.invoke(_forward, header, pkt)
        batched = InvocationChannel(InvocationMode.IPC)
        batched.invoke_batch(
            lambda punts: [_forward(h, p) for h, p in punts], self._punts(16)
        )
        assert batched.stats.ipc_bytes < scalar.stats.ipc_bytes
        one = InvocationChannel(InvocationMode.IPC)
        one.invoke_batch(lambda punts: [_forward(*punts[0])], self._punts(1))
        same = InvocationChannel(InvocationMode.IPC)
        same.invoke(_forward, *self._punts(1)[0])
        assert one.stats.ipc_bytes == same.stats.ipc_bytes

    def test_per_mode_byte_accounting(self):
        header = ILPHeader(service_id=1, connection_id=5)
        ipc = InvocationChannel(InvocationMode.IPC)
        ipc.invoke(lambda h, p: None, header, _packet(b"p"))
        assert ipc.stats.ipc_bytes == ipc.stats.bytes_marshalled > 0
        assert ipc.stats.shm_bytes == 0
        shm = InvocationChannel(InvocationMode.SHARED_MEMORY)
        shm.invoke(lambda h, p: None, header, "p")
        # shm mode counts the header copy its ring write makes
        assert shm.stats.shm_bytes == shm.stats.bytes_marshalled
        assert shm.stats.shm_bytes == len(bytes(header.encode()))
        assert shm.stats.ipc_bytes == 0

    def test_shm_batch_counts_one_ring_write_per_punt(self):
        channel = InvocationChannel(InvocationMode.SHARED_MEMORY)
        punts = self._punts(4)
        channel.invoke_batch(lambda ps: [None] * len(ps), punts)
        expected = sum(len(bytes(h.encode())) for h, _p in punts)
        assert channel.stats.shm_bytes == expected


class TestDescriptorReturn:
    """What a service left untouched comes back as a reference to the
    terminus' own objects; whatever it changed crosses in full."""

    def _punt(self):
        header = ILPHeader(service_id=1, connection_id=5, tlvs={1: b"10.9.9.9"})
        return header, _packet(b"d" * 1000)

    def _invoke(self, handler, header, packet):
        channel = InvocationChannel(InvocationMode.IPC)
        return channel, channel.invoke(handler, header, packet)

    def test_untouched_emit_is_the_terminus_own_objects(self):
        header, packet = self._punt()
        wire = header.encode()
        channel, verdict = self._invoke(_forward, header, packet)
        emit = verdict.emits[0]
        assert emit.header is header
        assert emit.payload is packet.payload
        assert emit.header.encode() is wire  # encode memo intact
        # The 1000 B payload crossed once (request), never echoed back.
        assert 1000 < channel.stats.ipc_bytes < 1200

    def test_mutating_received_copies_touches_nothing_unless_emitted(self):
        header, packet = self._punt()

        def handler(rx_header, rx_packet):
            # A rewrite builds a new header; the one received is a value.
            replace(rx_header.with_tlvs({9: b"scribble"}), flags=0x02)
            with pytest.raises(FrozenInstanceError):
                rx_header.flags = 0x02
            rx_packet.payload.data = b"scribble"
            return Verdict.drop()

        _channel, verdict = self._invoke(handler, header, packet)
        assert verdict == Verdict.drop()
        assert header == ILPHeader(1, 5, tlvs={1: b"10.9.9.9"})
        assert packet.payload.data == b"d" * 1000

    def test_rewritten_header_crosses_byte_exact(self):
        header, packet = self._punt()
        expected = ILPHeader(1, 5, flags=0x04, tlvs={1: b"10.9.9.9", 2: b"10.7.7.7"})

        def handler(rx_header, rx_packet):
            out = rx_header.with_tlvs({2: b"10.7.7.7"})
            return _forward(replace(out, flags=out.flags | 0x04), rx_packet)

        _channel, verdict = self._invoke(handler, header, packet)
        emit = verdict.emits[0]
        assert emit.header is not header
        assert emit.header.encode() == expected.encode()
        assert emit.payload is packet.payload  # still a reference
        assert header.encode() == ILPHeader(1, 5, tlvs={1: b"10.9.9.9"}).encode()

    def test_payload_data_swapped_in_place_crosses(self):
        header, packet = self._punt()

        def handler(rx_header, rx_packet):
            rx_packet.payload.data = b"transcoded"
            return _forward(rx_header, rx_packet)

        _channel, verdict = self._invoke(handler, header, packet)
        emit = verdict.emits[0]
        assert emit.header is header
        assert emit.payload == Payload(packet.payload.l4, b"transcoded")
        assert packet.payload.data == b"d" * 1000

    def test_l4_swapped_in_place_crosses(self):
        header, packet = self._punt()

        def handler(rx_header, rx_packet):
            rx_packet.payload.l4 = L4Header(sport=1, dport=2)
            return _forward(rx_header, rx_packet)

        _channel, verdict = self._invoke(handler, header, packet)
        assert verdict.emits[0].payload == Payload(L4Header(1, 2), b"d" * 1000)
        assert packet.payload.l4 == L4Header(40000, 443)

    def test_fresh_payload_crosses(self):
        header, packet = self._punt()
        _channel, verdict = self._invoke(
            lambda h, p: Verdict(emits=[Emit("10.0.0.3", h, Payload(l4=None))]),
            header,
            packet,
        )
        assert verdict.emits[0].payload == Payload(l4=None)
        assert verdict.emits[0].payload is not packet.payload

    def test_batch_references_resolve_per_punt(self):
        """Verdict *i* may only reference punt *i*: another punt's payload
        crosses in full (equal bytes, not that punt's object)."""
        channel = InvocationChannel(InvocationMode.IPC)
        punts = [
            (ILPHeader(service_id=1, connection_id=i), _packet(b"pkt-%d" % i))
            for i in range(3)
        ]

        def handler(rx_punts):
            (h0, p0), (h1, p1), (h2, p2) = rx_punts
            return [
                Verdict(emits=[Emit("10.0.0.3", h0, p0.payload)] * 2),
                Verdict.forward("10.0.0.3", h1, p2.payload),
                None,
            ]

        first, crossed, failed = channel.invoke_batch(handler, punts)
        assert [e.payload for e in first.emits] == [punts[0][1].payload] * 2
        assert all(e.payload is punts[0][1].payload for e in first.emits)
        assert crossed.emits[0].header is punts[1][0]
        assert crossed.emits[0].payload == punts[2][1].payload
        assert crossed.emits[0].payload is not punts[2][1].payload
        assert failed is None


class TestCostModel:
    def test_ipc_slower_than_shm(self):
        cost = CostModel()
        assert cost.invocation_latency(
            InvocationMode.IPC, enclave=False
        ) > cost.invocation_latency(InvocationMode.SHARED_MEMORY, enclave=False)

    def test_enclave_adds_two_crossings(self):
        cost = CostModel()
        plain = cost.invocation_latency(InvocationMode.IPC, enclave=False)
        enclaved = cost.invocation_latency(InvocationMode.IPC, enclave=True)
        assert enclaved == pytest.approx(plain + 2 * cost.enclave_io)

    def test_single_punt_batch_latency_equals_scalar(self):
        """A batch of one non-enclaved punt costs exactly one invocation."""
        cost = CostModel()
        for mode in (InvocationMode.IPC, InvocationMode.SHARED_MEMORY):
            assert cost.batch_invocation_latency(
                mode, enclave_services=0
            ) == pytest.approx(cost.invocation_latency(mode, enclave=False))

    def test_batch_latency_charges_per_enclave_service(self):
        cost = CostModel()
        base = cost.batch_invocation_latency(InvocationMode.IPC, 0)
        assert cost.batch_invocation_latency(InvocationMode.IPC, 3) == (
            pytest.approx(base + 3 * 2 * cost.enclave_io)
        )

    def test_failed_invocations_always_bill(self):
        """The ``bill_failed_invocations`` knob is gone: a failed punt
        crossed the boundary and always bills (behaviour pinned in
        tests/test_overload.py::TestOneBillingRule)."""
        with pytest.raises(TypeError):
            CostModel(bill_failed_invocations=False)

    def test_table1_shape(self):
        """The defaults reproduce Table 1's ratios."""
        cost = CostModel()
        no_service = cost.terminus_latency
        null_service = (
            cost.terminus_latency
            + cost.invocation_latency(InvocationMode.IPC, enclave=False)
            + cost.service_packet
        )
        assert null_service / no_service == pytest.approx(33.0 / 12.4, rel=0.15)


class TestEnclave:
    def test_call_passes_through(self):
        enclave = Enclave("svc", b"image-bytes")
        assert enclave.call(lambda a, b: a + b, 2, 3) == 5

    def test_crossings_counted(self):
        enclave = Enclave("svc", b"image")
        enclave.call(lambda x: x, 1)
        assert enclave.stats.crossings == 2  # in + out
        assert enclave.stats.bytes_crossed > 0

    def test_arguments_are_copied_across_boundary(self):
        enclave = Enclave("svc", b"image")
        payload = {"a": [1]}
        received = []
        enclave.call(lambda p: received.append(p) or p, payload)
        assert received[0] == payload
        assert received[0] is not payload

    def test_tpm_measured_on_creation(self):
        tpm = SoftwareTPM()
        before = tpm.pcr(PCR_ENCLAVE)
        Enclave("svc", b"image", tpm=tpm)
        assert tpm.pcr(PCR_ENCLAVE) != before

    def test_quote_requires_tpm(self):
        with pytest.raises(EnclaveError):
            Enclave("svc", b"image").quote(b"nonce")

    def test_quote_with_tpm(self):
        tpm = SoftwareTPM()
        enclave = Enclave("svc", b"image", tpm=tpm)
        quote = enclave.quote(b"nonce-1")
        assert quote.nonce == b"nonce-1"


class TestModuleImage:
    def test_deterministic(self):
        class Fake:
            VERSION = "1.0"

        assert module_image(Fake) == module_image(Fake)

    def test_version_changes_image(self):
        class V1:
            VERSION = "1.0"

        class V2:
            VERSION = "2.0"

        V2.__qualname__ = V1.__qualname__
        V2.__module__ = V1.__module__
        assert module_image(V1) != module_image(V2)
