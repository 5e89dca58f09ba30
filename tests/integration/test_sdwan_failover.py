"""Integration: SD-WAN path failover end to end (§5, §3.3 resilience)."""

from repro import InterEdge, WellKnownService
from repro.services import standard_registry
from repro.services.sdwan import PathMetric


def payloads(host):
    return [p.data for _, p in host.delivered if p.data]


class TestSDWANFailover:
    def _world(self, _unused=None):
        """West has three SNs: the branch SN plus two overlay hops, so both
        candidate paths genuinely traverse distinct intermediate SNs."""
        net = InterEdge(registry=standard_registry())
        net.create_edomain("west")
        net.create_edomain("east")
        src_sn = net.add_sn("west", name="branch-sn")
        alt_a = net.add_sn("west", name="overlay-a")
        alt_b = net.add_sn("west", name="overlay-b")
        dest_sn = net.add_sn("east", name="hq-sn")
        net.peer_all()
        net.deploy_required_services()
        client = net.add_host(src_sn, name="branch-office")
        server = net.add_host(dest_sn, name="hq")
        module = src_sn.env.service(WellKnownService.SDWAN)
        module.selector.configure_site(
            dest_sn.address,
            [
                PathMetric(via_sn=alt_a.address, latency_ms=5.0),
                PathMetric(via_sn=alt_b.address, latency_ms=40.0),
            ],
        )
        return net, client, server, module, src_sn, alt_a, alt_b, dest_sn

    def test_traffic_moves_after_path_failure(self):
        net, client, server, module, src_sn, alt_a, alt_b, dest_sn = self._world()
        conn = client.connect(
            WellKnownService.SDWAN,
            dest_addr=server.address,
            dest_sn=dest_sn.address,
            allow_direct=False,
        )
        client.send(conn, b"via-primary")
        net.run(1.0)
        assert alt_a.terminus.stats.packets_in >= 1
        before_b = alt_b.terminus.stats.packets_in

        # The primary path dies (an operator/probe signal).
        module.fail_path(dest_sn.address, alt_a.address)
        client.send(conn, b"via-backup")
        net.run(1.0)
        assert payloads(server) == [b"via-primary", b"via-backup"]
        assert alt_b.terminus.stats.packets_in > before_b
        assert module.selector.failovers == 1

    def test_cache_flushed_on_failover(self):
        """fail_path evicts fast-path state so flows re-select (App. B:
        eviction is always safe, here it is also useful)."""
        net, client, server, module, src_sn, alt_a, alt_b, dest_sn = self._world()
        conn = client.connect(
            WellKnownService.SDWAN,
            dest_addr=server.address,
            dest_sn=dest_sn.address,
            allow_direct=False,
        )
        for _ in range(3):
            client.send(conn, b"x")
        net.run(1.0)
        assert len(src_sn.cache) >= 1
        module.fail_path(dest_sn.address, alt_a.address)
        assert len(src_sn.cache) == 0

    def test_recovery_prefers_primary_again(self):
        net, client, server, module, src_sn, alt_a, alt_b, dest_sn = self._world()
        module.fail_path(dest_sn.address, alt_a.address)
        module.selector.mark_up(dest_sn.address, alt_a.address)
        src_sn.cache.evict_random_fraction(1.0)
        conn = client.connect(
            WellKnownService.SDWAN,
            dest_addr=server.address,
            dest_sn=dest_sn.address,
            allow_direct=False,
        )
        client.send(conn, b"back-on-primary")
        net.run(1.0)
        assert payloads(server) == [b"back-on-primary"]
        assert alt_a.terminus.stats.packets_in >= 1
