"""Unit tests for edomains, peering, discovery, and deployment."""

import pytest

from repro import InterEdge, WellKnownService
from repro.core.discovery import (
    DiscoveryDirectory,
    DiscoveryError,
    associate_via_anycast,
)
from repro.core.edomain import EdomainError
from repro.core.federation import FederationError
from repro.netsim import Link
from repro.services import NullService, standard_registry


class TestEdomain:
    def test_internal_full_mesh(self, net):
        net.create_edomain("d")
        sns = [net.add_sn("d") for _ in range(4)]
        pipes = net.edomains["d"].connect_internal()
        assert pipes == 6  # C(4,2)
        for a in sns:
            for b in sns:
                if a is not b:
                    assert a.has_pipe_to(b.address)

    def test_wrong_edomain_sn_rejected(self, net):
        net.create_edomain("d1")
        net.create_edomain("d2")
        sn = net.add_sn("d1")
        with pytest.raises(EdomainError):
            net.edomains["d2"].add_sn(sn)

    def test_border_designation(self, net):
        net.create_edomain("d")
        sn1 = net.add_sn("d")
        sn2 = net.add_sn("d")
        assert net.edomains["d"].border_sn is sn1  # first by default
        net.edomains["d"].designate_border(sn2.address)
        assert net.edomains["d"].border_sn is sn2

    def test_core_client_wired(self, net):
        net.create_edomain("d")
        sn = net.add_sn("d")
        assert sn.core_client is not None
        assert sn.core_client.edomain_name == "d"
        assert sn.core_client.membership.sn_address == sn.address


class TestPeering:
    def test_full_mesh_between_edomains(self, net):
        for name in ("a", "b", "c"):
            net.create_edomain(name)
            net.add_sn(name)
            net.add_sn(name)
        net.peer_all()
        # Every pair of borders has a pipe.
        borders = [net.edomains[n].border_sn for n in ("a", "b", "c")]
        for i, x in enumerate(borders):
            for y in borders[i + 1 :]:
                assert x.has_pipe_to(y.address)

    def test_border_mapping_on_every_sn(self, net):
        for name in ("a", "b"):
            net.create_edomain(name)
            net.add_sn(name)
            net.add_sn(name)
        net.peer_all()
        border_a = net.edomains["a"].border_sn
        border_b = net.edomains["b"].border_sn
        for sn in net.edomains["a"].sns.values():
            expected = border_b.address if sn is border_a else border_a.address
            assert sn.border_peer_for("b") == expected

    def test_next_hop_same_edomain(self, net):
        net.create_edomain("a")
        sn1 = net.add_sn("a")
        sn2 = net.add_sn("a")
        net.peer_all()
        assert sn1.next_hop_for_sn(sn2.address) == sn2.address
        assert sn1.next_hop_for_sn(sn1.address) is None

    def test_next_hop_cross_edomain_via_border(self, net):
        net.create_edomain("a")
        net.create_edomain("b")
        border_a = net.add_sn("a")
        inner_a = net.add_sn("a")
        border_b = net.add_sn("b")
        inner_b = net.add_sn("b")
        net.peer_all()
        # inner_a -> inner_b: relay through border_a (its edomain's exit).
        assert inner_a.next_hop_for_sn(inner_b.address) == border_a.address
        # border_a -> inner_b: next hop is border_b.
        assert border_a.next_hop_for_sn(inner_b.address) == border_b.address

    def test_on_demand_direct_pipe_shortcuts(self, net):
        net.create_edomain("a")
        net.create_edomain("b")
        net.add_sn("a")
        inner_a = net.add_sn("a")
        net.add_sn("b")
        inner_b = net.add_sn("b")
        net.peer_all()
        net.establish_direct(inner_a, inner_b)
        assert inner_a.next_hop_for_sn(inner_b.address) == inner_b.address

    def test_direct_pipe_same_edomain_rejected(self, net):
        net.create_edomain("a")
        sn1 = net.add_sn("a")
        sn2 = net.add_sn("a")
        with pytest.raises(FederationError):
            net.establish_direct(sn1, sn2)

    def test_unknown_edomain_next_hop_none(self, net):
        net.create_edomain("a")
        sn = net.add_sn("a")
        net.peer_all()
        assert sn.next_hop_for_sn("9.9.9.9") is None


class TestDeployment:
    def test_required_services_on_all_sns(self):
        net = InterEdge(registry=standard_registry())
        net.create_edomain("a")
        net.create_edomain("b")
        sns = [net.add_sn("a"), net.add_sn("a"), net.add_sn("b")]
        net.peer_all()
        count = net.deploy_required_services()
        n_services = len(net.registry.required_services())
        assert count == 3 * n_services
        for sn in sns:
            assert sn.env.has_service(WellKnownService.PUBSUB)
            assert sn.env.has_service(WellKnownService.IP_DELIVERY)

    def test_deploy_is_idempotent(self):
        net = InterEdge(registry=standard_registry())
        net.create_edomain("a")
        net.add_sn("a")
        net.peer_all()
        net.deploy_required_services()
        assert net.deploy_required_services() == 0

    def test_new_service_rollout(self, net):
        """§3.3 extensibility: standardize, then deploy everywhere."""
        net.create_edomain("a")
        net.add_sn("a")
        net.add_sn("a")
        net.peer_all()

        class ShinyService(NullService):
            SERVICE_ID = 0x0F00
            NAME = "shiny"

        count = net.deploy_service(ShinyService)
        assert count == 2
        assert net.registry.known(0x0F00)
        # Unaware SNs added later can still deploy it from the registry.
        late = net.add_sn("a")
        net.deploy_service(ShinyService)
        assert late.env.has_service(0x0F00)

    def test_duplicate_edomain_rejected(self, net):
        net.create_edomain("a")
        with pytest.raises(FederationError):
            net.create_edomain("a")

    def test_enclave_honored_by_requires_flag(self):
        net = InterEdge(registry=standard_registry())
        net.create_edomain("a")
        sn = net.add_sn("a")
        net.peer_all()
        net.deploy_required_services()
        assert sn.env.enclave_for(WellKnownService.ODNS) is not None
        assert sn.env.enclave_for(WellKnownService.NULL) is None


class TestDiscovery:
    def _world(self, net):
        net.create_edomain("d")
        sn_near = net.add_sn("d")
        sn_far = net.add_sn("d")
        net.peer_all()
        host = net.add_host(sn_near, name="h")
        # Host can also reach sn_far, but over a slower path.
        Link(net.sim, host, sn_far, latency=0.050)
        directory = DiscoveryDirectory()
        directory.advertise(sn_near, iesp="acme", region="us-west")
        directory.advertise(sn_far, iesp="acme", region="us-east")
        return host, sn_near, sn_far, directory

    def test_by_config(self, net):
        host, sn_near, _, directory = self._world(net)
        assert directory.by_config(sn_near.address) is sn_near
        with pytest.raises(DiscoveryError):
            directory.by_config("0.0.0.0")

    def test_by_lookup_filters(self, net):
        host, sn_near, sn_far, directory = self._world(net)
        assert directory.by_lookup(region="us-east") == [sn_far]
        assert set(directory.by_lookup(iesp="acme")) == {sn_near, sn_far}
        with pytest.raises(DiscoveryError):
            directory.by_lookup(iesp="ghost")

    def test_anycast_picks_nearest(self, net):
        host, sn_near, sn_far, directory = self._world(net)
        assert directory.by_anycast(host) is sn_near

    def test_anycast_load_tiebreak(self, net):
        net.create_edomain("d")
        sn1 = net.add_sn("d")
        sn2 = net.add_sn("d")
        net.peer_all()
        host = net.add_host(sn1, name="h", latency=0.001)
        Link(net.sim, host, sn2, latency=0.001)
        directory = DiscoveryDirectory()
        directory.advertise(sn1, iesp="acme", region="r", load=0.9)
        directory.advertise(sn2, iesp="acme", region="r", load=0.1)
        assert directory.by_anycast(host) is sn2

    def test_associate_via_anycast(self, net):
        host, sn_near, _, directory = self._world(net)
        chosen = associate_via_anycast(host, directory)
        assert chosen is sn_near
        assert host.address in sn_near.associated_hosts

    def test_withdraw(self, net):
        host, sn_near, sn_far, directory = self._world(net)
        directory.withdraw(sn_near)
        assert directory.by_anycast(host) is sn_far
