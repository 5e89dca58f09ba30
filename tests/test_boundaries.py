"""Boundary-condition tests across modules (exact edges, not typical paths)."""

import pytest

from repro.core.ilp import ILPError, ILPHeader, TLV
from repro.econ import RateCard, ServiceRate, VolumeTier
from repro.netsim import Simulator
from repro.sched import TokenBucket
from repro.wireguard import MeshReport, TunnelMesh, WireGuardTunnel


class TestILPBoundaries:
    def test_tlv_max_length_ok_one_over_rejected(self):
        header = ILPHeader(service_id=1, connection_id=1, tlvs={0x90: b"x" * 0xFFFF})
        decoded = ILPHeader.decode(header.encode())
        assert len(decoded.tlvs[0x90]) == 0xFFFF
        with pytest.raises(ILPError):
            header.with_tlvs({0x90: b"x" * 0x10000}).encode()

    def test_service_and_connection_id_extremes(self):
        header = ILPHeader(service_id=0xFFFF, connection_id=2**64 - 1)
        decoded = ILPHeader.decode(header.encode())
        assert decoded.service_id == 0xFFFF
        assert decoded.connection_id == 2**64 - 1

    def test_empty_tlv_value_roundtrips(self):
        header = ILPHeader(service_id=1, connection_id=1, tlvs={TLV.SERVICE_OPTS: b""})
        decoded = ILPHeader.decode(header.encode())
        assert decoded.tlvs[TLV.SERVICE_OPTS] == b""


class TestRateBoundaries:
    def _card(self):
        card = RateCard("x")
        card.set_rate(
            ServiceRate(
                service_id=1,
                base_monthly=0.0,
                tiers=[VolumeTier(0.0, 1.0), VolumeTier(100.0, 0.5)],
            )
        )
        card.publish()
        return card

    def test_price_exactly_at_tier_boundary(self):
        card = self._card()
        # 100 GB: entirely in tier 1 (the second tier starts above 100).
        assert card.price(1, "r", 100.0) == pytest.approx(100.0)
        # One GB past the boundary is billed at the marginal rate.
        assert card.price(1, "r", 101.0) == pytest.approx(100.5)

    def test_fractional_volumes(self):
        card = self._card()
        assert card.price(1, "r", 0.25) == pytest.approx(0.25)


class TestTokenBucketBoundaries:
    def test_exact_burst_consumable(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=100)
        assert bucket.try_consume(100, now=0.0)
        assert not bucket.try_consume(1, now=0.0)

    def test_time_never_flows_backwards(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=100)
        bucket.try_consume(100, now=10.0)
        # An out-of-order (earlier) timestamp must not mint tokens.
        assert not bucket.try_consume(50, now=5.0)


class TestWireGuardBoundaries:
    def test_zero_duration_report(self):
        report = MeshReport(
            tunnels=1,
            virtual_duration=0.0,
            cpu_seconds=0.0,
            control_bytes=0,
            rekeys=0,
            keepalives=0,
        )
        assert report.bandwidth_mbps == 0.0
        assert report.core_equivalents == 0.0

    def test_advance_to_same_time_is_noop(self):
        mesh = TunnelMesh("n", keepalives_enabled=False)
        mesh.add_peers(3)
        mesh.advance(until=100.0)
        report = mesh.advance(until=100.0)
        assert report.rekeys == 0
        assert report.control_bytes == 0

    def test_transport_counts_bytes(self):
        tunnel = WireGuardTunnel("a", "b")
        tunnel.handshake(0.0)
        tunnel.encrypt(b"q" * 100)
        assert tunnel.stats.data_packets == 1
        assert tunnel.stats.data_bytes > 100


class TestSimulatorBoundaries:
    def test_zero_delay_event_runs_after_current(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, lambda: order.append("nested"))
            order.append("still-first")

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "still-first", "nested"]

    def test_run_until_exact_event_time_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, 1)
        sim.run(until=5.0)
        assert fired == [1]
