"""Integration: the §3.3 "important properties" — backwards compatibility,
resilience (failover), extensibility, and §5 portability — plus the §3.2
pass-through (operator-imposed) deployment shape.
"""

from repro import InterEdge, WellKnownService, sanitize
from repro.core.ilp import ILPHeader, TLV
from repro.core.monitoring import snapshot_sn
from repro.core.overload import DegradeMode, ServicePolicy
from repro.core.packet import ILPPacket, L3Header, make_payload
from repro.core.service_module import Standardization
from repro.netsim import Link
from repro.services import (
    ImposedFirewall,
    ImposedSDWAN,
    NullService,
    PathMetric,
    PathSelector,
    Rule,
    RuleSet,
    standard_registry,
)
from tests.test_obs_conformance import _assert_conformant, _span_names


def sn_of(net, edomain, index):
    dom = net.edomains[edomain]
    return dom.sns[dom.sn_addresses()[index]]


class TestBackwardsCompatibility:
    """§3.3: InterEdge-unaware endpoints keep working unchanged."""

    def test_raw_ip_still_flows_through_sn(self, single_sn_net):
        net = single_sn_net
        sn = sn_of(net, "solo", 0)
        legacy_a = net.add_host(sn, name="legacy-a")
        legacy_b = net.add_host(sn, name="legacy-b")
        legacy_a.send_raw_ip(legacy_b.address, b"plain-old-ip")
        net.run(1.0)
        assert [p.data for _, p in legacy_b.delivered] == [b"plain-old-ip"]
        assert sn.raw_packets_forwarded == 1
        # The service machinery never engaged.
        assert sn.terminus.stats.packets_in == 0

    def test_legacy_and_ilp_coexist(self, single_sn_net):
        net = single_sn_net
        sn = sn_of(net, "solo", 0)
        modern = net.add_host(sn, name="modern")
        legacy = net.add_host(sn, name="legacy")
        conn = modern.connect(
            WellKnownService.IP_DELIVERY, dest_addr=legacy.address, allow_direct=False
        )
        modern.send(conn, b"ilp")
        legacy.send_raw_ip(modern.address, b"raw")
        net.run(1.0)
        assert [p.data for _, p in legacy.delivered] == [b"ilp"]
        assert [p.data for _, p in modern.delivered] == [b"raw"]


class TestResilience:
    """§3.3: stateless services recover like routers; stateful ones use
    checkpoint/standby-replication."""

    def test_stateful_failover_preserves_service_state(self, two_edomain_net):
        net = two_edomain_net
        primary = sn_of(net, "west", 0)
        standby = sn_of(net, "west", 1)
        pubsub = primary.env.service(WellKnownService.PUBSUB)
        pubsub.retain("topic", b"retained-msg")
        moved = primary.failover_to(standby)
        assert moved == len(primary.env.service_ids())
        standby_pubsub = standby.env.service(WellKnownService.PUBSUB)
        assert standby_pubsub.retained("topic") == [b"retained-msg"]

    def test_host_reassociation_after_sn_failure(self, two_edomain_net):
        """Host-driven recovery: re-associate and resubscribe elsewhere."""
        net = two_edomain_net
        failed = sn_of(net, "west", 0)
        backup = sn_of(net, "west", 1)
        host = net.add_host(failed, name="mobile")
        # The SN "fails": host associates with the backup.
        Link(net.sim, host, backup, latency=0.001)
        backup.associate_host(host)
        peer = net.add_host(backup, name="peer")
        conn = host.connect(
            WellKnownService.IP_DELIVERY, dest_addr=peer.address, allow_direct=False
        )
        assert conn.via_sn == backup.address or conn.via_sn == failed.address
        # Force the backup path explicitly (the failed SN would not answer).
        conn.via_sn = backup.address
        host.send(conn, b"recovered")
        net.run(1.0)
        assert [p.data for _, p in peer.delivered] == [b"recovered"]


class TestExtensibility:
    """§3.3: a newly standardized service becomes uniformly available."""

    def test_rollout_then_invoke(self):
        net = InterEdge(registry=standard_registry())
        net.create_edomain("a")
        net.create_edomain("b")
        sn_a = net.add_sn("a")
        sn_b = net.add_sn("b")
        net.peer_all()
        net.deploy_required_services()

        class ReverseEchoService(NullService):
            """A hypothetical new standard service."""

            SERVICE_ID = 0x0F10
            NAME = "reverse-echo"

        net.registry.register(ReverseEchoService, Standardization.STANDARDIZED)
        # Testing window passes; the governance body requires it:
        net.registry.promote(0x0F10, Standardization.REQUIRED)
        net.deploy_required_services()
        assert sn_a.env.has_service(0x0F10)
        assert sn_b.env.has_service(0x0F10)
        # An aware host can invoke it immediately.
        client = net.add_host(sn_a, name="aware")
        server = net.add_host(sn_b, name="server")
        conn = client.connect(
            0x0F10, dest_addr=server.address, dest_sn=sn_b.address
        )
        client.send(conn, b"new-service")
        net.run(1.0)
        assert [p.data for _, p in server.delivered] == [b"new-service"]


class TestPortability:
    """§5: standardized config moves between IESPs without rewriting."""

    def test_config_export_import_across_iesps(self, two_edomain_net):
        net = two_edomain_net
        old_iesp_sn = sn_of(net, "west", 0)
        new_iesp_sn = sn_of(net, "east", 0)
        svc = WellKnownService.FIREWALL
        old_iesp_sn.env.config.set(svc, "customer-1", "default_allow", False)
        old_iesp_sn.env.config.set(svc, "customer-1", "blocklist", ["10.9.0.0/16"])
        snapshot = old_iesp_sn.env.config.export()
        new_iesp_sn.env.config.import_config(snapshot)
        assert (
            new_iesp_sn.env.config.get(svc, "customer-1", "default_allow") is False
        )
        assert new_iesp_sn.env.config.get(svc, "customer-1", "blocklist") == [
            "10.9.0.0/16"
        ]

    def test_config_watch_fires_on_import(self, two_edomain_net):
        net = two_edomain_net
        sn = sn_of(net, "east", 1)
        changes = []
        watcher = lambda *args: changes.append(args)  # noqa: E731
        sn.env.config.watch(watcher)
        sn.env.config.import_config({(1, "c", "k"): "v"})
        assert changes == [(1, "c", "k", "v")]
        assert sn.env.config.unwatch(watcher) is True


class TestPassThrough:
    """§3.2 third invocation mode: operator-imposed services at a
    pass-through SN on the enterprise boundary."""

    def _enterprise(self, net):
        edge_sn = sn_of(net, "west", 0)  # the IESP SN (client-invoked services)
        sim = net.sim
        from repro.core.service_node import ServiceNode

        gateway = ServiceNode(sim, "ent-gw", "10.10.0.1", edomain_name="west")
        gateway.directory = net.directory
        net.directory.register(gateway.address, "west", via=edge_sn.address)
        gateway.establish_pipe(edge_sn, latency=0.001)
        inside = net.add_host(gateway, name="inside", latency=0.0005)
        rules = RuleSet(default_allow=True)
        rules.add(Rule(allow=False, dst_prefix="203.0.113.0/24"))  # banned range
        gateway.configure_pass_through(
            next_hop=edge_sn.address, chain=[ImposedFirewall(rules)]
        )
        return edge_sn, gateway, inside

    @staticmethod
    def _check_fates(gateway):
        """The gateway ingress books the terminus' packet-fate ledger."""
        terminus = gateway.terminus
        sanitize.check_ledger(
            terminus.stats,
            "pass-through-fates",
            live=terminus.overload.stats.short_circuits,
        )
        return terminus.stats

    def test_allowed_traffic_passes_through_to_next_hop(self, two_edomain_net):
        net = two_edomain_net
        edge_sn, gateway, inside = self._enterprise(net)
        outside = net.add_host(sn_of(net, "east", 0), name="outside")
        conn = inside.connect(
            WellKnownService.IP_DELIVERY, dest_addr=outside.address, allow_direct=False
        )
        inside.send(conn, b"allowed")
        net.run(1.0)
        assert [p.data for _, p in outside.delivered] == [b"allowed"]
        assert self._check_fates(gateway).punts >= 1

    def test_imposed_firewall_blocks_banned_destination(self, two_edomain_net):
        net = two_edomain_net
        edge_sn, gateway, inside = self._enterprise(net)
        conn = inside.connect(
            WellKnownService.IP_DELIVERY, dest_addr="203.0.113.7", allow_direct=False
        )
        inside.send(conn, b"exfil")
        net.run(1.0)
        # The chain's refusal is a service drop, installed as a cached drop
        # that the connection's next packet hits.
        assert gateway.terminus.stats.drops_by_service == 1
        assert edge_sn.terminus.stats.packets_in == 0
        stats = self._check_fates(gateway)
        assert (stats.packets_in, stats.punts, stats.fast_path) == (1, 1, 0)
        inside.send(conn, b"exfil")
        net.run(1.0)
        assert gateway.terminus.stats.drops_by_decision == 1
        assert edge_sn.terminus.stats.packets_in == 0

    def test_pass_through_caches_decision(self, two_edomain_net):
        net = two_edomain_net
        edge_sn, gateway, inside = self._enterprise(net)
        outside = net.add_host(sn_of(net, "east", 0), name="outside")
        conn = inside.connect(
            WellKnownService.IP_DELIVERY, dest_addr=outside.address, allow_direct=False
        )
        for _ in range(4):
            inside.send(conn, b"x")
        net.run(1.0)
        assert gateway.cache.stats.hits == 3
        assert len(outside.delivered) == 4
        # A hit is a fast-path packet and a chain run is the gateway's slow
        # path, so its fast-path fraction is no longer 0/0.
        before = self._check_fates(gateway)
        assert (before.fast_path, before.punts) == (3, 1)
        assert snapshot_sn(gateway).fast_path_fraction == 0.75

    def test_inbound_traffic_reaches_inside_host(self, two_edomain_net):
        net = two_edomain_net
        edge_sn, gateway, inside = self._enterprise(net)
        net.lookup.register_address(
            inside.address, inside.keypair, associated_sns=[gateway.address]
        )
        outside = net.add_host(sn_of(net, "east", 0), name="outside")
        conn = outside.connect(
            WellKnownService.IP_DELIVERY,
            dest_addr=inside.address,
            dest_sn=gateway.address,
            allow_direct=False,
        )
        outside.send(conn, b"inbound")
        net.run(1.0)
        assert [p.data for _, p in inside.delivered if p.data] == [b"inbound"]
        self._check_fates(gateway)

    def test_malformed_and_forged_headers_are_told_apart(self, two_edomain_net):
        net = two_edomain_net
        _edge_sn, gateway, inside = self._enterprise(net)
        ctx = inside.keystore.get(gateway.address)
        l3 = L3Header(src=inside.address, dst=gateway.address)
        sealed_junk = ILPPacket(l3=l3, ilp_wire=ctx.seal(b"\x01"), payload=make_payload(b""))
        forged = ILPPacket(l3=l3, ilp_wire=b"\x00" * 48, payload=make_payload(b""))
        stranger = ILPPacket(
            l3=L3Header(src="198.51.100.9", dst=gateway.address),
            ilp_wire=b"",
            payload=make_payload(b""),
        )
        for packet in (sealed_junk, forged, stranger):
            gateway.handle_frame(packet, None)
        stats = self._check_fates(gateway)
        assert stats.drops_malformed == 1  # authenticated, but not ILP
        assert stats.drops_auth == 1
        assert stats.drops_no_peer == 1
        assert stats.packets_in == 3

    def test_inbound_to_unknown_host_is_an_egress_drop(self, two_edomain_net):
        net = two_edomain_net
        edge_sn, gateway, _inside = self._enterprise(net)
        header = ILPHeader(
            service_id=WellKnownService.IP_DELIVERY,
            connection_id=9,
            tlvs={TLV.DEST_ADDR: b"10.10.0.99"},  # nobody behind the gateway
        )
        wire = edge_sn.keystore.get(gateway.address).seal(header.encode())
        gateway.handle_frame(
            ILPPacket(
                l3=L3Header(src=edge_sn.address, dst=gateway.address),
                ilp_wire=wire,
                payload=make_payload(b"x"),
            ),
            None,
        )
        stats = self._check_fates(gateway)
        assert (stats.punts, stats.drops_no_route, stats.drops_no_peer) == (1, 1, 0)

    def test_imposed_sdwan_steers_cached_packets(self, two_edomain_net):
        net = two_edomain_net
        edge_sn, gateway, inside = self._enterprise(net)
        far_sn, via_sn = sn_of(net, "east", 1), sn_of(net, "east", 0)
        selector = PathSelector()
        selector.configure_site(far_sn.address, [PathMetric(via_sn.address, latency_ms=1.0)])
        gateway.configure_pass_through(
            next_hop=edge_sn.address, chain=[ImposedSDWAN(selector)]
        )
        outside = net.add_host(far_sn, name="outside")
        ctx = edge_sn.keystore.get(gateway.address)
        steered = []

        def tap(frame, link):
            if isinstance(frame, ILPPacket) and frame.l3.src == gateway.address:
                header = ILPHeader.decode(ctx.open(frame.ilp_wire))
                steered.append(header.get_str(TLV.DEST_SN))

        edge_sn.rx_tap = tap
        conn = inside.connect(
            WellKnownService.IP_DELIVERY,
            dest_addr=outside.address,
            dest_sn=far_sn.address,
            allow_direct=False,
        )
        for _ in range(3):
            inside.send(conn, b"x")
            net.run(1.0)
        # The rewrite rides the cached decision, so hits are steered too.
        assert steered == [via_sn.address] * 3
        assert gateway.cache.stats.hits == 2

    def test_close_tears_down_the_gateway_entry(self, two_edomain_net):
        net = two_edomain_net
        edge_sn, gateway, inside = self._enterprise(net)
        outside = net.add_host(sn_of(net, "east", 0), name="outside")
        conn = inside.connect(
            WellKnownService.IP_DELIVERY, dest_addr=outside.address, allow_direct=False
        )
        inside.send(conn, b"x")
        net.run(1.0)
        assert len(gateway.cache) == 1
        reached_edge = edge_sn.terminus.stats.packets_in
        inside.close(conn)
        net.run(1.0)
        assert len(gateway.cache) == 0
        assert edge_sn.terminus.stats.packets_in == reached_edge + 1
        self._check_fates(gateway)

    def test_burst_coalesces_misses_at_the_gateway(self, two_edomain_net):
        net = two_edomain_net
        edge_sn, gateway, inside = self._enterprise(net)
        outside = net.add_host(sn_of(net, "east", 0), name="outside")
        conn = inside.connect(
            WellKnownService.IP_DELIVERY, dest_addr=outside.address, allow_direct=False
        )
        for _ in range(8):
            inside.send(conn, b"x", first=False)
        net.run(1.0)
        terminus = gateway.terminus
        assert self._check_fates(gateway).punts == 1
        assert terminus.miss_queue.stats.drained_fast == 7
        assert terminus.shard_stats.bursts == 1
        assert len(outside.delivered) == 8

    def test_gateway_traces_conform(self, two_edomain_net):
        net = two_edomain_net
        edge_sn, gateway, inside = self._enterprise(net)
        recorder = gateway.enable_observability().recorder
        outside = net.add_host(sn_of(net, "east", 0), name="outside")
        conn = inside.connect(
            WellKnownService.IP_DELIVERY, dest_addr=outside.address, allow_direct=False
        )
        for _ in range(3):
            inside.send(conn, b"x")
            net.run(1.0)
        names = _span_names(_assert_conformant(recorder))
        assert {"terminus.receive", "terminus.punt", "terminus.cache_hit"} <= names

    def test_hung_imposed_service_degrades_and_trips(self, two_edomain_net):
        net = two_edomain_net
        edge_sn, gateway, inside = self._enterprise(net)
        outside = net.add_host(sn_of(net, "east", 0), name="outside")
        service = WellKnownService.IP_DELIVERY
        gateway.set_service_policy(service, ServicePolicy(degrade=DegradeMode.FAIL_CLOSED))
        gateway.env.inject_hang(service)
        conn = inside.connect(service, dest_addr=outside.address, allow_direct=False)
        for _ in range(6):
            inside.send(conn, b"x")
            net.run(0.05)
        stats = self._check_fates(gateway)
        # Five timed-out punts trip the breaker; the sixth is short-circuited.
        assert (stats.punts, stats.drops_degraded) == (5, 6)
        assert gateway.terminus.overload.breakers[service].stats.trips == 1
        assert outside.delivered == []
