"""Integration: Figure 2's processing pipeline, end to end on one SN.

decrypt → decision-cache query → {hit: re-encrypt+forward | miss: service
module → install → forward}, with per-destination re-encryption.
"""

import pytest

from repro import WellKnownService
from repro.core.decision_cache import CacheKey


def sn_of(net, edomain, index):
    dom = net.edomains[edomain]
    return dom.sns[dom.sn_addresses()[index]]


class TestFigure2Pipeline:
    def test_miss_hit_sequence(self, single_sn_net):
        net = single_sn_net
        sn = sn_of(net, "solo", 0)
        a = net.add_host(sn, name="a")
        b = net.add_host(sn, name="b")
        conn = a.connect(
            WellKnownService.IP_DELIVERY, dest_addr=b.address, allow_direct=False
        )
        for _ in range(5):
            a.send(conn, b"x")
        net.run(1.0)
        stats = sn.terminus.stats
        assert stats.punts == 1  # first packet: miss -> service
        assert stats.fast_path == 4  # rest: cache hits
        assert sn.cache.stats.hits == 4
        assert sn.cache.stats.misses == 1
        assert len(b.delivered) == 5

    def test_cache_key_is_src_service_connection(self, single_sn_net):
        """Two connections between the same hosts get distinct entries."""
        net = single_sn_net
        sn = sn_of(net, "solo", 0)
        a = net.add_host(sn, name="a")
        b = net.add_host(sn, name="b")
        conn1 = a.connect(WellKnownService.IP_DELIVERY, dest_addr=b.address, allow_direct=False)
        conn2 = a.connect(WellKnownService.IP_DELIVERY, dest_addr=b.address, allow_direct=False)
        a.send(conn1, b"1")
        a.send(conn2, b"2")
        net.run(1.0)
        keys = sn.cache.keys()
        assert len(keys) == 2
        assert {k.connection_id for k in keys} == {
            conn1.connection_id,
            conn2.connection_id,
        }
        assert all(k.src == a.address for k in keys)

    def test_hit_counters_visible_to_service(self, single_sn_net):
        """§B.2: services can ask whether a connection is still active."""
        net = single_sn_net
        sn = sn_of(net, "solo", 0)
        a = net.add_host(sn, name="a")
        b = net.add_host(sn, name="b")
        conn = a.connect(WellKnownService.IP_DELIVERY, dest_addr=b.address, allow_direct=False)
        for _ in range(3):
            a.send(conn, b"x")
        net.run(1.0)
        key = CacheKey(a.address, WellKnownService.IP_DELIVERY, conn.connection_id)
        assert sn.cache.hit_count(key) == 2
        assert sn.cache.recently_used(key, now=net.sim.now, window=10.0)

    def test_bidirectional_uses_separate_entries(self, single_sn_net):
        net = single_sn_net
        sn = sn_of(net, "solo", 0)
        a = net.add_host(sn, name="a")
        b = net.add_host(sn, name="b")
        conn_ab = a.connect(WellKnownService.IP_DELIVERY, dest_addr=b.address, allow_direct=False)
        conn_ba = b.connect(WellKnownService.IP_DELIVERY, dest_addr=a.address, allow_direct=False)
        a.send(conn_ab, b"->")
        b.send(conn_ba, b"<-")
        net.run(1.0)
        srcs = {k.src for k in sn.cache.keys()}
        assert srcs == {a.address, b.address}

    def test_processing_latency_shape(self, single_sn_net):
        """Slow-path packets take measurably longer than fast-path ones —
        the Table 1 structure, visible in simulated time."""
        net = single_sn_net
        sn = sn_of(net, "solo", 0)
        a = net.add_host(sn, name="a")
        b = net.add_host(sn, name="b")
        conn = a.connect(WellKnownService.IP_DELIVERY, dest_addr=b.address, allow_direct=False)

        a.send(conn, b"slow")  # punts
        net.run(1.0)
        arrivals = []
        b.rx_tap = lambda frame, link: arrivals.append(net.sim.now)
        base = net.sim.now
        a.send(conn, b"fast")
        net.run(1.0)
        fast_latency = arrivals[0] - base
        # Expected: 2 link hops (1 ms each) + terminus latency only.
        cost = sn.cost_model
        assert fast_latency == pytest.approx(0.002 + cost.terminus_latency, rel=0.05)
