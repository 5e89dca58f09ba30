"""Tests for the §2.2 innovation path: experimental → standardized →
required, plus host reassociation."""

from repro import InterEdge, WellKnownService
from repro.core.service_module import Standardization
from repro.services import NullService, standard_registry


class _GeoHashService(NullService):
    """A hypothetical novel service one IESP invents."""

    SERVICE_ID = 0x0E01
    NAME = "geohash"


def _fed():
    net = InterEdge(registry=standard_registry())
    net.create_edomain("innovator")
    net.create_edomain("incumbent")
    sn_i = net.add_sn("innovator")
    sn_c = net.add_sn("incumbent")
    net.peer_all()
    net.deploy_required_services()
    return net, sn_i, sn_c


class TestExperimentalServices:
    def test_experimental_deploys_only_in_offering_edomain(self):
        net, sn_i, sn_c = _fed()
        count = net.deploy_experimental(_GeoHashService, "innovator")
        assert count == 1
        assert sn_i.env.has_service(_GeoHashService.SERVICE_ID)
        assert not sn_c.env.has_service(_GeoHashService.SERVICE_ID)
        assert (
            net.registry.status(_GeoHashService.SERVICE_ID)
            is Standardization.EXPERIMENTAL
        )

    def test_experimental_not_in_uniform_service_model(self):
        net, sn_i, sn_c = _fed()
        net.deploy_experimental(_GeoHashService, "innovator")
        assert _GeoHashService not in net.registry.required_services()
        # deploy_required_services must NOT spread it.
        net.deploy_required_services()
        assert not sn_c.env.has_service(_GeoHashService.SERVICE_ID)

    def test_innovator_customers_can_use_it(self):
        net, sn_i, sn_c = _fed()
        net.deploy_experimental(_GeoHashService, "innovator")
        early_adopter = net.add_host(sn_i, name="early")
        peer = net.add_host(sn_i, name="peer")
        conn = early_adopter.connect(
            _GeoHashService.SERVICE_ID, dest_addr=peer.address, allow_direct=False
        )
        early_adopter.send(conn, b"novel!")
        net.run(1.0)
        assert [p.data for _, p in peer.delivered] == [b"novel!"]

    def test_standardization_spreads_it_everywhere(self):
        """The §2.2 happy path: traction → standard → universal."""
        net, sn_i, sn_c = _fed()
        net.deploy_experimental(_GeoHashService, "innovator")
        net.registry.promote(_GeoHashService.SERVICE_ID, Standardization.REQUIRED)
        net.deploy_required_services()
        assert sn_c.env.has_service(_GeoHashService.SERVICE_ID)
        # A host in the *other* IESP now uses it without lock-in.
        a = net.add_host(sn_c, name="late")
        b = net.add_host(sn_i, name="remote")
        conn = a.connect(
            _GeoHashService.SERVICE_ID,
            dest_addr=b.address,
            dest_sn=sn_i.address,
            allow_direct=False,
        )
        a.send(conn, b"now-standard")
        net.run(1.0)
        assert [p.data for _, p in b.delivered] == [b"now-standard"]


class TestReassociation:
    def test_make_before_break(self):
        net, sn_i, sn_c = _fed()
        host = net.add_host(sn_i, name="mobile")
        host.reassociate(sn_c)
        # New SN is primary; old association survives.
        assert host.first_hop_addresses[0] == sn_c.address
        assert sn_i.address in host.first_hop_addresses
        peer = net.add_host(sn_c, name="peer")
        conn = host.connect(
            WellKnownService.IP_DELIVERY, dest_addr=peer.address, allow_direct=False
        )
        assert conn.via_sn == sn_c.address
        host.send(conn, b"through-new-sn")
        net.run(1.0)
        assert [p.data for _, p in peer.delivered] == [b"through-new-sn"]

    def test_drop_old_removes_prior_hops(self):
        net, sn_i, sn_c = _fed()
        host = net.add_host(sn_i, name="mobile")
        host.reassociate(sn_c, drop_old=True)
        assert host.first_hop_addresses == [sn_c.address]

    def test_reassociate_idempotent(self):
        net, sn_i, sn_c = _fed()
        host = net.add_host(sn_i, name="mobile")
        host.reassociate(sn_c)
        host.reassociate(sn_c)
        assert host.first_hop_addresses.count(sn_c.address) == 1
