"""Tests for the privacy services: oDNS, private relay, mixnet (§6.2)."""

import pytest

from repro import WellKnownService
from repro.core.crypto import random_key
from repro.libs.cryptolib import CryptoLibrary
from repro.services.mixnet import build_circuit, send_via_mixnet
from repro.services.odns import ODNSClient, ODNSResolver
from repro.services.private_relay import (
    reply_via_relay,
    send_via_relay,
    wrap_for_relay,
)


def sn_of(net, edomain, index):
    dom = net.edomains[edomain]
    return dom.sns[dom.sn_addresses()[index]]


def payloads(host):
    return [p.data for _, p in host.delivered if p.data]


class TestODNS:
    def _world(self, net):
        proxy_sn = sn_of(net, "west", 0)
        client = net.add_host(proxy_sn, name="client")
        resolver_host = net.add_host(sn_of(net, "east", 0), name="resolver")
        key = random_key()
        resolver = ODNSResolver(
            host=resolver_host,
            zone={"example.com": "93.184.216.34"},
            shared_key=key,
        )
        resolver.install()
        client_agent = ODNSClient(
            host=client, resolver_addr=resolver_host.address, shared_key=key
        )
        client_agent.install()
        return proxy_sn, client, client_agent, resolver

    def test_query_resolves(self, two_edomain_net):
        net = two_edomain_net
        _, _, client_agent, resolver = self._world(net)
        client_agent.query("example.com")
        net.run(1.0)
        assert client_agent.answers == {"example.com": "93.184.216.34"}
        assert resolver.queries_served == 1

    def test_unknown_name_gets_null_answer(self, two_edomain_net):
        net = two_edomain_net
        _, _, client_agent, _ = self._world(net)
        client_agent.query("nonexistent.example")
        net.run(1.0)
        assert client_agent.answers == {"nonexistent.example": "0.0.0.0"}

    def test_resolver_never_sees_client_address(self, two_edomain_net):
        """The core oDNS property: asker and question are unlinkable."""
        net = two_edomain_net
        _, client, client_agent, resolver = self._world(net)
        client_agent.query("example.com")
        net.run(1.0)
        assert resolver.observed_sources == [None]

    def test_proxy_never_sees_plaintext_query(self, two_edomain_net):
        net = two_edomain_net
        proxy_sn, client, client_agent, _ = self._world(net)
        captured = []
        module = proxy_sn.env.service(WellKnownService.ODNS)
        original = module.handle_packet

        def spy(header, packet):
            captured.append(packet.payload.data)
            return original(header, packet)

        module.handle_packet = spy
        client_agent.query("secret-site.example")
        net.run(1.0)
        assert captured
        assert all(b"secret-site" not in blob for blob in captured)

    def test_proxy_runs_in_enclave(self, two_edomain_net):
        proxy_sn = sn_of(two_edomain_net, "west", 0)
        assert proxy_sn.env.enclave_for(WellKnownService.ODNS) is not None


class TestPrivateRelay:
    def _world(self, net):
        ingress_sn = sn_of(net, "west", 0)
        egress_sn = sn_of(net, "east", 0)
        client = net.add_host(ingress_sn, name="client")
        site = net.add_host(sn_of(net, "east", 1), name="site")
        return ingress_sn, egress_sn, client, site

    def test_outbound_delivery(self, two_edomain_net):
        net = two_edomain_net
        ingress_sn, egress_sn, client, site = self._world(net)
        send_via_relay(
            client, ingress_sn.address, egress_sn.address, site.address, b"GET /"
        )
        net.run(1.0)
        assert payloads(site) == [b"GET /"]

    def test_site_never_learns_client(self, two_edomain_net):
        net = two_edomain_net
        ingress_sn, egress_sn, client, site = self._world(net)
        send_via_relay(
            client, ingress_sn.address, egress_sn.address, site.address, b"x"
        )
        net.run(1.0)
        from repro.core.ilp import TLV

        sources = [h.get_str(TLV.SRC_HOST) for h, p in site.delivered if p.data]
        assert sources == [None]

    def test_ingress_never_sees_destination(self, two_edomain_net):
        """Split trust: the ingress peels only its own layer."""
        net = two_edomain_net
        ingress_sn, egress_sn, client, site = self._world(net)
        lib = CryptoLibrary()
        blob = wrap_for_relay(
            lib, ingress_sn.address, egress_sn.address, site.address, b"data"
        )
        # The ingress layer decrypts to {egress, blob}; assert the
        # destination appears nowhere in what ingress can read.
        import json
        from repro.services.private_relay import relay_key

        peeled = json.loads(lib.decrypt(relay_key(ingress_sn.address), blob).decode())
        assert set(peeled) == {"egress", "blob"}
        assert site.address not in json.dumps(peeled)

    def test_return_path(self, two_edomain_net):
        net = two_edomain_net
        ingress_sn, egress_sn, client, site = self._world(net)
        send_via_relay(client, ingress_sn.address, egress_sn.address, site.address, b"ping")
        net.run(1.0)
        # The site answers on the relayed connection id via the egress.
        site_conn_ids = [
            h.connection_id for h, p in site.delivered if p.data == b"ping"
        ]
        reply_via_relay(site, site_conn_ids[0], egress_sn.address, b"pong")
        net.run(1.0)
        assert b"pong" in payloads(client)

    def test_relay_requires_enclave(self, two_edomain_net):
        sn = sn_of(two_edomain_net, "west", 0)
        assert sn.env.enclave_for(WellKnownService.PRIVATE_RELAY) is not None


class TestMixnet:
    def test_three_hop_delivery(self, two_edomain_net):
        net = two_edomain_net
        circuit = [
            sn_of(net, "west", 0).address,
            sn_of(net, "west", 1).address,
            sn_of(net, "east", 0).address,
        ]
        client = net.add_host(sn_of(net, "west", 0), name="client")
        dest = net.add_host(sn_of(net, "east", 1), name="dest")
        send_via_mixnet(client, circuit, dest.address, b"anonymous")
        net.run(2.0)
        assert payloads(dest) == [b"anonymous"]
        # Every mix peeled exactly one layer.
        for addr in circuit:
            module = net.sn_at(addr).env.service(WellKnownService.MIXNET)
            assert module.peeled >= 1

    def test_single_hop_circuit(self, two_edomain_net):
        net = two_edomain_net
        entry = sn_of(net, "west", 0)
        client = net.add_host(entry, name="client")
        dest = net.add_host(sn_of(net, "west", 1), name="dest")
        send_via_mixnet(client, [entry.address], dest.address, b"short")
        net.run(1.0)
        assert payloads(dest) == [b"short"]

    def test_empty_circuit_rejected(self):
        with pytest.raises(ValueError):
            build_circuit(CryptoLibrary(), [], "1.2.3.4", b"x")

    def test_layers_hide_destination_from_entry(self, two_edomain_net):
        net = two_edomain_net
        circuit = [
            sn_of(net, "west", 0).address,
            sn_of(net, "east", 0).address,
        ]
        dest_addr = "198.51.100.77"
        lib = CryptoLibrary()
        blob = build_circuit(lib, circuit, dest_addr, b"data")
        import json
        from repro.services.mixnet import mix_key

        entry_view = json.loads(lib.decrypt(mix_key(circuit[0]), blob).decode())
        assert entry_view["next"] == circuit[1]
        assert dest_addr not in json.dumps(entry_view)

    def test_mix_delay_applied(self, two_edomain_net):
        """Packets are held up to MIX_DELAY per hop (timing decorrelation)."""
        net = two_edomain_net
        entry = sn_of(net, "west", 0)
        client = net.add_host(entry, name="client")
        dest = net.add_host(sn_of(net, "west", 1), name="dest")
        send_via_mixnet(client, [entry.address], dest.address, b"delayed")
        net.run(0.0005)  # less than typical mixing delay
        assert payloads(dest) == []
        net.run(2.0)
        assert payloads(dest) == [b"delayed"]
