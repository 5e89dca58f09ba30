"""Tests for the prebuilt scenario builders."""

from repro import WellKnownService
from repro.scenarios import enterprise_scenario, metro_federation, small_federation


class TestSmallFederation:
    def test_shape(self):
        handles = small_federation()
        assert len(handles.sns) == 4
        assert set(handles.net.edomains) == {"west", "east"}
        for sn in handles.sns:
            assert sn.env.has_service(WellKnownService.PUBSUB)

    def test_cross_edomain_reachability(self):
        handles = small_federation()
        net = handles.net
        a = net.add_host(handles.sns[0], name="a")
        b = net.add_host(handles.sns[-1], name="b")
        conn = a.connect(WellKnownService.IP_DELIVERY, dest_addr=b.address)
        a.send(conn, b"hi")
        net.run(1.0)
        assert [p.data for _, p in b.delivered] == [b"hi"]


class TestMetroFederation:
    def test_parameterized_shape(self):
        handles = metro_federation(n_edomains=3, sns_per_edomain=2, hosts_per_sn=2)
        assert len(handles.sns) == 6
        assert len(handles.hosts) == 12
        assert len(handles.net.edomains) == 3

    def test_all_pairs_reachable(self):
        handles = metro_federation(n_edomains=3, sns_per_edomain=1, hosts_per_sn=1)
        net = handles.net
        src = handles.hosts[0]
        for dst in handles.hosts[1:]:
            conn = src.connect(
                WellKnownService.IP_DELIVERY, dest_addr=dst.address, allow_direct=False
            )
            src.send(conn, b"probe")
        net.run(1.0)
        for dst in handles.hosts[1:]:
            assert [p.data for _, p in dst.delivered] == [b"probe"]


class TestEnterpriseScenario:
    def test_gateway_wiring(self):
        handles = enterprise_scenario()
        gateway = handles.extras["gateway"]
        # The imposed chain serves every service ID nothing loaded claims.
        assert not gateway.env.service_ids()
        assert gateway.env.has_service(WellKnownService.IP_DELIVERY)
        assert handles.extras["inside"].first_hop_addresses == [gateway.address]

    def test_inside_to_outside_traffic(self):
        handles = enterprise_scenario()
        net = handles.net
        inside, outside = handles.extras["inside"], handles.extras["outside"]
        conn = inside.connect(
            WellKnownService.IP_DELIVERY, dest_addr=outside.address, allow_direct=False
        )
        inside.send(conn, b"out-we-go")
        net.run(1.0)
        assert [p.data for _, p in outside.delivered] == [b"out-we-go"]
