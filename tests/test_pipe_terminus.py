"""Unit tests for the pipe-terminus fast/slow path (Figure 2)."""

from types import SimpleNamespace
from typing import Any

import pytest

from repro import sanitize
from repro.core.decision_cache import Action, CacheKey, Decision, ForwardTarget
from repro.core.ilp import Flags, ILPHeader, TLV
from repro.core.packet import ILPPacket, L3Header, make_payload
from repro.core.psp import PSPContext, pairwise_secret
from repro.core.service_module import ServiceModule, Verdict
from repro.econ.peering import PeeringLedger
from repro.netsim import Link, SinkNode, Simulator
from repro.core.service_node import ServiceNode

SN_ADDR = "10.0.0.1"
PEER_A = "10.0.0.2"
PEER_B = "10.0.0.3"


class _RecordingService(ServiceModule):
    SERVICE_ID = 42
    NAME = "recording"

    def __init__(self, verdict_fn=None) -> None:
        super().__init__()
        self.seen: list[ILPHeader] = []
        self.control_seen: list[ILPHeader] = []
        self.verdict_fn = verdict_fn or (lambda h, p: Verdict.drop())

    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        self.seen.append(header)
        return self.verdict_fn(header, packet)

    def handle_control(self, header: ILPHeader, packet: Any) -> Verdict:
        self.control_seen.append(header)
        return Verdict.drop()


class _Fixture:
    def __init__(self, service=None):
        self.sim = Simulator()
        # A real ServiceNode supplies env wiring; we drive its terminus directly.
        self.node = ServiceNode(self.sim, "sn", SN_ADDR)
        self.terminus = self.node.terminus
        self.sent: list[tuple[str, ILPPacket]] = []
        self.terminus.set_transmit(
            lambda peer, pkts: self.sent.extend((peer, p) for p in pkts) or len(pkts)
        )
        self.peers = {}
        for peer in (PEER_A, PEER_B):
            secret = pairwise_secret(SN_ADDR, peer)
            self.node.keystore.establish(peer, secret)
            self.peers[peer] = PSPContext(secret)
        self.service = service or _RecordingService()
        self.node.env.load(self.service)

    def packet(self, peer=PEER_A, service_id=42, conn=7, flags=0, tlvs=None, data=b"d"):
        header = ILPHeader(service_id=service_id, connection_id=conn, flags=flags, tlvs=tlvs)
        wire = self.peers[peer].seal(header.encode())
        return ILPPacket(
            l3=L3Header(src=peer, dst=SN_ADDR),
            ilp_wire=wire,
            payload=make_payload(data),
        )


class TestIngressValidation:
    def test_unknown_peer_dropped(self):
        fx = _Fixture()
        pkt = fx.packet()
        pkt.l3 = L3Header(src="9.9.9.9", dst=SN_ADDR)
        fx.terminus.receive(pkt)
        assert fx.terminus.stats.drops_no_peer == 1
        assert fx.service.seen == []

    def test_bad_auth_dropped(self):
        fx = _Fixture()
        pkt = fx.packet()
        pkt.ilp_wire = pkt.ilp_wire[:-1] + bytes([pkt.ilp_wire[-1] ^ 1])
        fx.terminus.receive(pkt)
        assert fx.terminus.stats.drops_auth == 1

    def test_malformed_header_dropped(self):
        fx = _Fixture()
        ctx = fx.peers[PEER_A]
        pkt = ILPPacket(
            l3=L3Header(src=PEER_A, dst=SN_ADDR),
            ilp_wire=ctx.seal(b"\x01\x02"),  # too short for an ILP header
            payload=make_payload(b""),
        )
        fx.terminus.receive(pkt)
        assert fx.terminus.stats.drops_malformed == 1

    def test_malformed_barrier_run_drops_every_packet(self):
        """A run of one CONTROL plaintext whose TLV is truncated is decoded
        once, and each of its packets is a malformed drop."""
        fx = _Fixture()
        plain = ILPHeader(42, 7, Flags.CONTROL, {TLV.SRC_HOST: b"x"}).encode()[:-1]
        ctx = fx.peers[PEER_A]
        run = [
            ILPPacket(
                l3=L3Header(src=PEER_A, dst=SN_ADDR),
                ilp_wire=ctx.seal(plain),
                payload=make_payload(b""),
            )
            for _ in range(3)
        ]
        fx.terminus.receive_batch(run)
        assert fx.terminus.stats.drops_malformed == 3
        assert fx.terminus.stats.punts == 0

    def test_unknown_service_dropped(self):
        fx = _Fixture()
        fx.terminus.receive(fx.packet(service_id=999))
        assert fx.terminus.stats.drops_no_service == 1


class TestSlowPath:
    def test_miss_punts_to_service(self):
        fx = _Fixture()
        fx.terminus.receive(fx.packet())
        assert len(fx.service.seen) == 1
        assert fx.terminus.stats.punts == 1

    def test_control_always_punts_to_control_handler(self):
        fx = _Fixture()
        # Install a cache entry that would match if this were a data packet.
        key = CacheKey(PEER_A, 42, 7)
        fx.terminus.cache.install(key, Decision.forward(PEER_B))
        fx.terminus.receive(fx.packet(flags=Flags.CONTROL))
        assert len(fx.service.control_seen) == 1
        assert fx.sent == []

    def test_verdict_installs_and_emits(self):
        def verdict(header, packet):
            v = Verdict.forward(PEER_B, header, packet.payload)
            v.installs.append(
                (CacheKey(PEER_A, 42, header.connection_id), Decision.forward(PEER_B))
            )
            return v

        fx = _Fixture(_RecordingService(verdict))
        fx.terminus.receive(fx.packet())
        assert len(fx.sent) == 1
        assert fx.sent[0][0] == PEER_B
        # Second packet: fast path, service not consulted again.
        fx.terminus.receive(fx.packet())
        assert len(fx.service.seen) == 1
        assert fx.terminus.stats.fast_path == 1


class TestFastPath:
    def test_hit_forwards_without_service(self):
        fx = _Fixture()
        fx.terminus.cache.install(CacheKey(PEER_A, 42, 7), Decision.forward(PEER_B))
        fx.terminus.receive(fx.packet())
        assert fx.service.seen == []
        assert len(fx.sent) == 1

    def test_multi_destination_fanout(self):
        """Figure 2: a decision can specify multiple destinations."""
        fx = _Fixture()
        fx.terminus.cache.install(
            CacheKey(PEER_A, 42, 7), Decision.forward(PEER_A, PEER_B)
        )
        fx.terminus.receive(fx.packet())
        assert sorted(peer for peer, _ in fx.sent) == [PEER_A, PEER_B]

    def test_drop_decision(self):
        fx = _Fixture()
        fx.terminus.cache.install(CacheKey(PEER_A, 42, 7), Decision.drop())
        fx.terminus.receive(fx.packet())
        assert fx.sent == []
        assert fx.terminus.stats.drops_by_decision == 1

    def test_tlv_rewrite_on_fast_path(self):
        fx = _Fixture()
        target = ForwardTarget(
            PEER_B, tlv_updates=((TLV.DEST_SN, b"10.0.9.9"),)
        )
        fx.terminus.cache.install(
            CacheKey(PEER_A, 42, 7),
            Decision(action=Action.FORWARD, targets=(target,)),
        )
        fx.terminus.receive(fx.packet())
        peer, out = fx.sent[0]
        opened = fx.peers[PEER_B].open(out.ilp_wire)
        decoded = ILPHeader.decode(opened)
        assert decoded.get_str(TLV.DEST_SN) == "10.0.9.9"

    def test_output_resealed_per_peer(self):
        """Egress headers must decrypt with the *destination's* context."""
        fx = _Fixture()
        fx.terminus.cache.install(CacheKey(PEER_A, 42, 7), Decision.forward(PEER_B))
        fx.terminus.receive(fx.packet())
        _, out = fx.sent[0]
        assert out.l3.src == SN_ADDR
        assert out.l3.dst == PEER_B
        decoded = ILPHeader.decode(fx.peers[PEER_B].open(out.ilp_wire))
        assert decoded.connection_id == 7
        # The sender's context must NOT decrypt it (fresh encryption).
        with pytest.raises(Exception):
            fx.peers[PEER_A].open(out.ilp_wire)

    def test_send_to_unknown_peer_fails(self):
        fx = _Fixture()
        header = ILPHeader(service_id=42, connection_id=1)
        assert not fx.terminus.send("9.9.9.9", header, make_payload(b""))
        # An egress miss is not an ingress drop: it has its own counter.
        assert fx.terminus.stats.drops_no_route == 1
        assert fx.terminus.stats.drops_no_peer == 0


class TestEvictionCorrectness:
    def test_eviction_mid_connection_recomputes(self):
        """Appendix B: evicting an active connection's entry must not break it."""
        def verdict(header, packet):
            v = Verdict.forward(PEER_B, header, packet.payload)
            v.installs.append(
                (CacheKey(PEER_A, 42, header.connection_id), Decision.forward(PEER_B))
            )
            return v

        fx = _Fixture(_RecordingService(verdict))
        fx.terminus.receive(fx.packet())
        fx.terminus.cache.evict_random_fraction(1.0)
        fx.terminus.receive(fx.packet())
        assert len(fx.sent) == 2  # both packets forwarded
        assert len(fx.service.seen) == 2  # service recomputed after eviction


class TestBatchIngress:
    """receive_batch: amortized clock/stats/delay bookkeeping, same semantics."""

    def _install_forward(self, fx, conn=7):
        fx.terminus.cache.install(CacheKey(PEER_A, 42, conn), Decision.forward(PEER_B))

    def test_batch_equals_per_packet_receive(self):
        fx_one = _Fixture()
        fx_batch = _Fixture()
        for fx in (fx_one, fx_batch):
            self._install_forward(fx)
        packets_one = [fx_one.packet() for _ in range(10)]
        packets_batch = [fx_batch.packet() for _ in range(10)]

        for pkt in packets_one:
            fx_one.terminus.receive(pkt)
        assert fx_batch.terminus.receive_batch(packets_batch) == 10

        assert len(fx_batch.sent) == len(fx_one.sent) == 10
        for (peer_a, out_a), (peer_b, out_b) in zip(fx_one.sent, fx_batch.sent):
            assert peer_a == peer_b == PEER_B
            assert out_a.payload.data == out_b.payload.data
        s1, s2 = fx_one.terminus.stats, fx_batch.terminus.stats
        assert (s1.packets_in, s1.fast_path, s1.packets_out) == (
            s2.packets_in,
            s2.fast_path,
            s2.packets_out,
        ) == (10, 10, 10)

    def test_batch_mixes_fast_and_slow_paths(self):
        fx = _Fixture()
        self._install_forward(fx, conn=7)
        batch = [
            fx.packet(conn=7),        # fast path
            fx.packet(conn=8),        # miss -> punt (service drops)
            fx.packet(flags=Flags.CONTROL),  # control -> punt
            fx.packet(conn=7),        # fast path again
        ]
        assert fx.terminus.receive_batch(batch) == 4
        stats = fx.terminus.stats
        assert stats.packets_in == 4
        assert stats.fast_path == 2
        assert stats.punts == 2
        assert len(fx.sent) == 2

    def test_batch_charges_terminus_delay_once(self):
        fx = _Fixture()
        self._install_forward(fx)
        fx.terminus.receive_batch([fx.packet() for _ in range(5)])
        assert fx.terminus.pending_delay == fx.terminus.cost_model.terminus_latency

    def test_empty_batch(self):
        fx = _Fixture()
        assert fx.terminus.receive_batch([]) == 0
        assert fx.terminus.stats.packets_in == 0


class TestFanoutObservability:
    """Regression: the batched multi-target fan-out used to seal in a
    private loop that skipped the latency sketch, the flight recorder and
    the armed header check. Fan-out now leaves through the one egress."""

    N = 5

    def _rig(self):
        fx = _Fixture()
        obs = fx.node.enable_observability(capacity=4096)
        fx.terminus.cache.install(
            CacheKey(PEER_A, 42, 7),
            Decision(
                action=Action.FORWARD,
                targets=(
                    ForwardTarget(PEER_B),
                    ForwardTarget(
                        PEER_A, tlv_updates=((TLV.DEST_SN, b"10.0.9.9"),)
                    ),
                ),
            ),
        )
        return fx, obs

    @pytest.mark.parametrize("burst", [False, True])
    def test_fanout_packets_reach_sketch_and_recorder(self, burst):
        fx, obs = self._rig()
        packets = [fx.packet() for _ in range(self.N)]
        if burst:
            fx.terminus.receive_batch(packets)
        else:
            for packet in packets:
                fx.terminus.receive(packet)
        assert len(fx.sent) == 2 * self.N
        assert obs.terminus_latency.count == 2 * self.N
        for name in ("terminus.seal", "terminus.send"):
            events = obs.recorder.spans(name=name)
            assert sum(e.attrs["n"] for e in events) == 2 * self.N
        # Packet-major per next hop: each egress association saw the
        # flow's packets in arrival order.
        assert [peer for peer, _ in fx.sent] == [PEER_B, PEER_A] * self.N


def _installing_verdict(header, packet):
    verdict = Verdict.forward(PEER_B, header, packet.payload)
    verdict.installs.append(
        (
            CacheKey(packet.l3.src, 42, header.connection_id),
            Decision.forward(PEER_B),
        )
    )
    return verdict


class TestMissCoalescing:
    """Cold groups punt once per flow and drain off the fresh install."""

    FLOWS = 8
    DEPTH = 6

    def _cold_storm(self, fx):
        """Interleaved all-miss burst: FLOWS flows, DEPTH packets each."""
        return [
            fx.packet(conn=flow)
            for _ in range(self.DEPTH)
            for flow in range(self.FLOWS)
        ]

    def test_installing_service_punts_once_per_flow(self):
        fx = _Fixture(_RecordingService(_installing_verdict))
        fx.terminus.receive_batch(self._cold_storm(fx))
        stats = fx.terminus.stats
        assert stats.punts == self.FLOWS
        assert len(fx.service.seen) == self.FLOWS
        # Every packet still egresses: one verdict emit per lead, the
        # followers through the installed decision.
        assert len(fx.sent) == self.FLOWS * self.DEPTH
        assert stats.fast_path == self.FLOWS * (self.DEPTH - 1)

    def test_leads_cross_boundary_in_one_batch(self):
        fx = _Fixture(_RecordingService(_installing_verdict))
        fx.terminus.receive_batch(self._cold_storm(fx))
        ch = fx.terminus.channel.stats
        assert ch.invocations == self.FLOWS
        assert ch.batches == 1
        assert ch.max_batch == self.FLOWS
        shard = fx.terminus.shard_stats
        assert shard.cold_spans == 1
        assert shard.cold_groups == self.FLOWS

    def test_miss_queue_ledger_balances(self):
        fx = _Fixture(_RecordingService(_installing_verdict))
        fx.terminus.receive_batch(self._cold_storm(fx))
        queue = fx.terminus.miss_queue
        assert queue.live == 0
        expected_parked = self.FLOWS * (self.DEPTH - 1)
        assert queue.stats.parked == expected_parked
        assert queue.stats.drained_fast == expected_parked
        assert queue.stats.replayed == queue.stats.dropped == 0

    def test_non_installing_service_replays_per_packet(self):
        fx = _Fixture()  # default verdict: drop, no install
        fx.terminus.receive_batch(self._cold_storm(fx))
        # Followers find no install and re-punt individually, exactly
        # like the per-packet slow path.
        assert fx.terminus.stats.punts == self.FLOWS * self.DEPTH
        assert len(fx.service.seen) == self.FLOWS * self.DEPTH
        queue = fx.terminus.miss_queue
        assert queue.live == 0
        assert queue.stats.replayed == queue.stats.parked

    def test_barriers_flush_spans_and_punt_individually(self):
        fx = _Fixture(_RecordingService(_installing_verdict))
        batch = [
            fx.packet(conn=1),
            fx.packet(conn=2),
            fx.packet(conn=1, flags=Flags.CONTROL),
            fx.packet(conn=1),
            fx.packet(conn=2),
        ]
        fx.terminus.receive_batch(batch)
        # The barrier splits the burst into two segments: conns 1 and 2
        # punt cold in the first, hit their installs in the second.
        assert len(fx.service.control_seen) == 1
        assert fx.terminus.stats.punts == 3  # 2 cold leads + the control
        assert fx.terminus.stats.fast_path == 2
        assert fx.terminus.miss_queue.live == 0

    def test_crash_discards_parked_packets_as_dropped(self):
        fx = _Fixture()
        queue = fx.terminus.miss_queue
        queue.park((PEER_A, b"flow"), [fx.packet(), fx.packet()])
        assert queue.live == 2
        fx.node.crash()
        assert queue.live == 0
        assert queue.stats.dropped == 2
        # Ledger still balances after the wipe.
        st = queue.stats
        assert st.parked == st.drained_fast + st.replayed + st.dropped

    def test_miss_queue_drain_preserves_arrival_order(self):
        fx = _Fixture()
        queue = fx.terminus.miss_queue
        first, second = fx.packet(data=b"1"), fx.packet(data=b"2")
        queue.park((PEER_A, b"flow"), [first])
        queue.park((PEER_A, b"flow"), [second])
        drained = queue.drain((PEER_A, b"flow"), fast=True)
        assert [p.payload.data for p in drained] == [b"1", b"2"]
        assert queue.drain((PEER_A, b"flow"), fast=True) == []


class TestPreEncodedSend:
    def test_send_with_precomputed_encoding(self):
        fx = _Fixture()
        header = ILPHeader(service_id=42, connection_id=7, tlvs={TLV.SRC_HOST: b"192.168.0.5"})
        encoded = header.encode()
        assert fx.terminus.send(PEER_B, header, make_payload(b"d"), encoded=encoded)
        peer, out = fx.sent[0]
        assert peer == PEER_B
        # The receiver opens to exactly the provided encoding.
        rx = PSPContext(pairwise_secret(SN_ADDR, PEER_B))
        assert rx.open(out.ilp_wire) == encoded

    def test_qos_src_is_a_declared_field(self):
        fx = _Fixture()
        header = ILPHeader(service_id=42, connection_id=7, tlvs={TLV.SRC_HOST: b"192.168.0.5"})
        fx.terminus.send(PEER_B, header, make_payload(b"d"))
        _, out = fx.sent[0]
        assert out.qos_src == "192.168.0.5"
        # And defaults to None on freshly built packets.
        assert fx.packet().qos_src is None

    def test_fanout_encodes_once(self):
        fx = _Fixture()
        encode_calls = 0
        original_encode = ILPHeader.encode

        fx.terminus.cache.install(
            CacheKey(PEER_A, 42, 7),
            Decision(
                action=Action.FORWARD,
                targets=(ForwardTarget(PEER_A), ForwardTarget(PEER_B)),
            ),
        )
        pkt = fx.packet()

        def counting_encode(self):
            nonlocal encode_calls
            encode_calls += 1
            return original_encode(self)

        # The sanitizer's scratch re-encode would inflate the count; this
        # test measures the production fast path, so pin it off.
        was_sanitizing = sanitize.set_enabled(False)
        ILPHeader.encode = counting_encode
        try:
            fx.terminus.receive(pkt)
        finally:
            ILPHeader.encode = original_encode
            sanitize.set_enabled(was_sanitizing)
        assert [p for p, _ in fx.sent] == [PEER_A, PEER_B]
        # apply_decision encodes once; send() reuses the provided bytes.
        assert encode_calls == 1


class _CountingShaper:
    """A pass-through egress shaper that records what it was handed."""

    def __init__(self) -> None:
        self.submitted: list[Any] = []

    def submit(self, packet, send) -> None:
        self.submitted.append(packet)
        send(packet)


class TestEgressStaysABurst:
    """The de-batching gate: a warm burst leaves a real ``ServiceNode`` over
    real ``Link``s as one transmit event plus one link delivery per next
    hop — never one of either per frame."""

    NEXT_HOPS = ("10.0.1.1", "10.0.1.2", "10.0.1.3")
    BURST = 64

    def _rig(self, next_hops):
        sim = Simulator()
        sn = ServiceNode(sim, "sn", SN_ADDR, edomain_name="west")
        sn.keystore.establish(PEER_A, pairwise_secret(SN_ADDR, PEER_A))
        sinks = {}
        for conn, addr in enumerate(next_hops, start=1):
            sinks[addr] = SinkNode(sim, addr)
            Link(sim, sn, sinks[addr], latency=0.001)
            sn.register_peer_node(addr, sinks[addr])
            sn.keystore.establish(addr, pairwise_secret(SN_ADDR, addr))
            sn.cache.install(CacheKey(PEER_A, 42, conn), Decision.forward(addr))
        return sim, sn, sinks

    def _burst(self, n_conns):
        """BURST warm packets round-robined over connections 1..n_conns."""
        tx = PSPContext(pairwise_secret(SN_ADDR, PEER_A))
        return [
            ILPPacket(
                l3=L3Header(src=PEER_A, dst=SN_ADDR),
                ilp_wire=tx.seal(
                    ILPHeader(service_id=42, connection_id=1 + i % n_conns).encode()
                ),
                payload=make_payload(bytes([i])),
            )
            for i in range(self.BURST)
        ]

    @pytest.mark.parametrize("n_hops", [1, 3])
    def test_one_egress_event_and_one_link_delivery_per_next_hop(self, n_hops):
        sim, sn, sinks = self._rig(self.NEXT_HOPS[:n_hops])
        assert sn.terminus.receive_batch(self._burst(n_hops)) == self.BURST
        assert sn.terminus.stats.fast_path == self.BURST
        before = sim.events_processed
        sim.run()
        assert sim.events_processed - before == 2 * n_hops
        assert sum(len(s.received) for s in sinks.values()) == self.BURST
        assert sn.frames_sent == self.BURST
        for addr, sink in sinks.items():
            # Each next hop got its flow's packets, in arrival order.
            assert [p.l3.dst for p in sink.received] == [addr] * len(sink.received)
            data = [p.payload.data[0] for p in sink.received]
            assert data == sorted(data)

    def test_shaped_pipe_still_submits_per_packet(self):
        sim, sn, sinks = self._rig(self.NEXT_HOPS[:1])
        shaper = _CountingShaper()
        sn.set_egress_shaper(self.NEXT_HOPS[0], shaper)
        sn.terminus.receive_batch(self._burst(1))
        sim.run()
        assert len(shaper.submitted) == self.BURST
        assert all(isinstance(p, ILPPacket) for p in shaper.submitted)
        assert len(sinks[self.NEXT_HOPS[0]].received) == self.BURST

    def test_border_ledger_totals_match_scalar_sends(self):
        totals = []
        for as_burst in (True, False):
            sim, sn, sinks = self._rig(self.NEXT_HOPS[:1])
            sn.ledger = PeeringLedger()
            sn.directory = SimpleNamespace(edomain_of=lambda addr: "east")
            burst = self._burst(1)
            if as_burst:
                sn.terminus.receive_batch(burst)
            else:
                for pkt in burst:
                    sn.terminus.receive(pkt)
            sim.run()
            record = sn.ledger.traffic("west", "east")
            wire = sum(p.wire_size for p in sinks[self.NEXT_HOPS[0]].received)
            assert (record.bytes_sent, record.packets_sent) == (wire, self.BURST)
            totals.append((record.bytes_sent, record.packets_sent))
        assert totals[0] == totals[1]
