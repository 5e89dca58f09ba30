"""Tests for the pipe-terminus offload engine (Appendix B.1)."""

import pytest

from repro.core.decision_cache import CacheKey, Decision
from repro.core.ilp import Flags, ILPHeader, TLV
from repro.core.offload import (
    ActionKind,
    Match,
    MatchField,
    OffloadAction,
    OffloadError,
    OffloadQuota,
    TerminusOffloadEngine,
)
from repro.core.packet import ILPPacket, L3Header, make_payload
from repro.core.psp import PSPContext, pairwise_secret
from repro.core.service_module import ServiceModule, Verdict
from repro.core.service_node import ServiceNode
from repro.netsim import Simulator


DROP = Decision.drop()


def header(service_id=5, conn=1, flags=0, tlvs=None) -> ILPHeader:
    return ILPHeader(service_id=service_id, connection_id=conn, flags=flags, tlvs=tlvs)


class TestMatching:
    def test_connection_id_match(self):
        engine = TerminusOffloadEngine()
        engine.install_rule(
            5,
            (Match(MatchField.CONNECTION_ID, 42),),
            OffloadAction(ActionKind.DROP),
        )
        assert engine.process("10.0.0.2", header(conn=42), 100, 0.0) == DROP
        assert engine.process("10.0.0.2", header(conn=43), 100, 0.0) is None

    def test_tlv_present_and_equals(self):
        engine = TerminusOffloadEngine()
        engine.install_rule(
            5,
            (Match(MatchField.TLV_PRESENT, TLV.TOPIC),),
            OffloadAction(ActionKind.FORWARD, "10.0.0.3"),
        )
        result = engine.process(
            "10.0.0.2", header(tlvs={TLV.TOPIC: b"t"}), 100, 0.0
        )
        assert result == Decision.forward("10.0.0.3")
        engine2 = TerminusOffloadEngine()
        engine2.install_rule(
            5,
            (Match(MatchField.TLV_EQUALS, (TLV.TOPIC, b"hot")),),
            OffloadAction(ActionKind.DROP),
        )
        assert (
            engine2.process("s", header(tlvs={TLV.TOPIC: b"hot"}), 1, 0.0)
            == DROP
        )
        assert engine2.process("s", header(tlvs={TLV.TOPIC: b"cold"}), 1, 0.0) is None

    def test_payload_len_and_src(self):
        engine = TerminusOffloadEngine()
        engine.install_rule(
            5,
            (
                Match(MatchField.SRC_ADDR, "6.6.6.6"),
                Match(MatchField.PAYLOAD_LEN_GT, 500),
            ),
            OffloadAction(ActionKind.DROP),
        )
        assert engine.process("6.6.6.6", header(), 501, 0.0) == DROP
        assert engine.process("6.6.6.6", header(), 499, 0.0) is None
        assert engine.process("1.1.1.1", header(), 501, 0.0) is None

    def test_flags_match(self):
        engine = TerminusOffloadEngine()
        engine.install_rule(
            5,
            (Match(MatchField.FLAGS, Flags.FIRST),),
            OffloadAction(ActionKind.COUNT, "firsts"),
        )
        engine.process("s", header(flags=Flags.FIRST), 1, 0.0)
        engine.process("s", header(flags=0), 1, 0.0)
        assert engine.program_for(5).counters["firsts"] == 1

    def test_rules_first_match_wins(self):
        engine = TerminusOffloadEngine()
        engine.install_rule(
            5, (Match(MatchField.PAYLOAD_LEN_GT, 10),), OffloadAction(ActionKind.DROP)
        )
        engine.install_rule(
            5,
            (Match(MatchField.PAYLOAD_LEN_GT, 0),),
            OffloadAction(ActionKind.FORWARD, "10.0.0.9"),
        )
        assert engine.process("s", header(), 50, 0.0) == DROP
        assert engine.process("s", header(), 5, 0.0) == Decision.forward("10.0.0.9")


class TestIsolation:
    """The Menshen requirement: services cannot see or affect each other."""

    def test_program_applies_only_to_own_service(self):
        engine = TerminusOffloadEngine()
        engine.install_rule(
            5, (Match(MatchField.PAYLOAD_LEN_GT, 0),), OffloadAction(ActionKind.DROP)
        )
        # Service 6's identical-looking packet is untouched.
        assert engine.process("s", header(service_id=6), 100, 0.0) is None

    def test_rule_quota_enforced(self):
        engine = TerminusOffloadEngine(OffloadQuota(max_rules=2))
        for _ in range(2):
            engine.install_rule(
                5, (Match(MatchField.PAYLOAD_LEN_GT, 0),), OffloadAction(ActionKind.DROP)
            )
        with pytest.raises(OffloadError):
            engine.install_rule(
                5, (Match(MatchField.PAYLOAD_LEN_GT, 0),), OffloadAction(ActionKind.DROP)
            )
        # Another service still has its own quota.
        engine.install_rule(
            6, (Match(MatchField.PAYLOAD_LEN_GT, 0),), OffloadAction(ActionKind.DROP)
        )

    def test_meter_quota_enforced(self):
        engine = TerminusOffloadEngine(OffloadQuota(max_meters=1))
        engine.provision_meter(5, "m1", 1000, 100)
        with pytest.raises(OffloadError):
            engine.provision_meter(5, "m2", 1000, 100)

    def test_meter_must_exist_before_use(self):
        engine = TerminusOffloadEngine()
        with pytest.raises(OffloadError):
            engine.install_rule(
                5,
                (Match(MatchField.PAYLOAD_LEN_GT, 0),),
                OffloadAction(ActionKind.METER, "ghost"),
            )

    def test_rejected_calls_leave_no_program(self):
        """A refused rule or meter must not leave an empty program behind
        for ``has_program`` to report."""
        full = TerminusOffloadEngine(OffloadQuota(max_rules=0, max_meters=0))
        with pytest.raises(OffloadError):
            full.install_rule(5, (), OffloadAction(ActionKind.DROP))
        with pytest.raises(OffloadError):
            full.provision_meter(6, "m", 1000, 100)
        engine = TerminusOffloadEngine()
        with pytest.raises(OffloadError):
            engine.install_rule(7, (), OffloadAction(ActionKind.METER, "ghost"))
        with pytest.raises(ValueError):
            engine.provision_meter(8, "m", 0, 100)  # not a valid bucket
        for e in (full, engine):
            assert e.programs() == ()
            assert not any(e.has_program(sid) for sid in (5, 6, 7, 8))

    def test_reprovisioning_a_meter_at_quota(self):
        """Replacing a provisioned meter does not grow the meter count, so
        the quota does not refuse it; a new name still is refused."""
        engine = TerminusOffloadEngine(OffloadQuota(max_meters=1))
        engine.provision_meter(5, "m1", 1000, 100)
        engine.provision_meter(5, "m1", 2000, 200)
        assert engine.program_for(5).meters["m1"].burst_bytes == 200
        with pytest.raises(OffloadError):
            engine.provision_meter(5, "m2", 1000, 100)
        assert list(engine.program_for(5).meters) == ["m1"]


class TestMeters:
    def test_meter_drops_over_rate(self):
        engine = TerminusOffloadEngine()
        engine.provision_meter(5, "limit", rate_bps=8000, burst_bytes=200)
        engine.install_rule(
            5,
            (Match(MatchField.SRC_ADDR, "fast-talker"),),
            OffloadAction(ActionKind.METER, "limit"),
        )
        # Burst of 200 B passes, the rest drops (falls through = pass).
        results = [
            engine.process("fast-talker", header(), 100, 0.0) for _ in range(5)
        ]
        assert results[:2] == [None, None]  # within burst: fall through
        assert all(r == DROP for r in results[2:])
        # After a second, the bucket refills 1000 B.
        assert engine.process("fast-talker", header(), 100, 1.0) is None


class TestTerminusIntegration:
    def test_offloaded_drop_skips_slow_path(self, single_sn_net):
        """A DDoS-style source-drop rule executes at the terminus: the
        service module never sees the packets."""
        net = single_sn_net
        dom = net.edomains["solo"]
        sn = dom.sns[dom.sn_addresses()[0]]
        attacker = net.add_host(sn, name="attacker")
        victim = net.add_host(sn, name="victim")
        from repro import WellKnownService

        module = sn.env.service(WellKnownService.IP_DELIVERY)
        engine = sn.terminus.offload
        engine.install_rule(
            WellKnownService.IP_DELIVERY,
            (Match(MatchField.SRC_ADDR, attacker.address),),
            OffloadAction(ActionKind.DROP),
        )
        conn = attacker.connect(
            WellKnownService.IP_DELIVERY, dest_addr=victim.address, allow_direct=False
        )
        for _ in range(10):
            attacker.send(conn, b"flood")
        net.run(1.0)
        assert sn.terminus.stats.drops_by_offload == 10
        assert sn.terminus.stats.punts == 0
        assert module.connections_seen == 0
        assert victim.delivered == []

    def test_cache_hit_beats_offload(self, single_sn_net):
        """Fast-path precedence: cache > offload > slow path."""
        net = single_sn_net
        dom = net.edomains["solo"]
        sn = dom.sns[dom.sn_addresses()[0]]
        a = net.add_host(sn, name="a")
        b = net.add_host(sn, name="b")
        from repro import WellKnownService

        # An offload rule that would drop everything from a...
        sn.terminus.offload.install_rule(
            WellKnownService.IP_DELIVERY,
            (Match(MatchField.SRC_ADDR, a.address),),
            OffloadAction(ActionKind.DROP),
        )
        conn = a.connect(
            WellKnownService.IP_DELIVERY, dest_addr=b.address, allow_direct=False
        )
        a.send(conn, b"first")  # dropped by offload (cache miss path)
        net.run(1.0)
        assert len(b.delivered) == 0
        # ...but once a cache entry exists, the cache wins.
        sn.cache.install(
            CacheKey(a.address, WellKnownService.IP_DELIVERY, conn.connection_id),
            Decision.forward(b.address),
        )
        a.send(conn, b"second")
        net.run(1.0)
        assert [p.data for _, p in b.delivered] == [b"second"]


class _SelfOffloadingService(ServiceModule):
    """Pushes a drop rule for connection 666 into its SN's terminus when it
    is loaded, through App. B.1's service-facing hook."""

    SERVICE_ID = 0x0C0C
    NAME = "self-offloading"

    def __init__(self) -> None:
        super().__init__()
        self.seen: list[int] = []

    def on_attach(self) -> None:
        assert self.ctx is not None
        self.ctx.offload_engine().install_rule(
            self.SERVICE_ID,
            (Match(MatchField.CONNECTION_ID, 666),),
            OffloadAction(ActionKind.DROP),
        )

    def handle_packet(self, header, packet) -> Verdict:
        self.seen.append(header.connection_id)
        return Verdict.drop()


def test_module_installs_its_rule_through_its_context():
    sn_addr, peer = "10.0.0.1", "10.0.0.2"
    node = ServiceNode(Simulator(), "sn", sn_addr)
    node.terminus.set_transmit(lambda hop, pkts: len(pkts))
    node.keystore.establish(peer, pairwise_secret(sn_addr, peer))
    module = _SelfOffloadingService()
    node.env.load(module)
    assert node.terminus.offload.has_program(module.SERVICE_ID)
    tx = PSPContext(pairwise_secret(sn_addr, peer))

    def packet(conn: int) -> ILPPacket:
        header = ILPHeader(service_id=module.SERVICE_ID, connection_id=conn)
        return ILPPacket(
            l3=L3Header(src=peer, dst=sn_addr),
            ilp_wire=tx.seal(header.encode()),
            payload=make_payload(b"x"),
        )

    node.terminus.receive_batch([packet(666), packet(7), packet(666)])
    stats = node.terminus.stats
    assert stats.drops_by_offload == 2
    assert stats.punts == 1
    assert module.seen == [7]
