"""Tests for the mobility lookup and cluster interconnection services (§6.3)."""

from repro import WellKnownService
from repro.netsim import Link
from repro.services.cluster import register_cluster_prefix, send_cross_cluster
from repro.services.mobility import connect_to_mobile, send_binding_update


def sn_of(net, edomain, index):
    dom = net.edomains[edomain]
    return dom.sns[dom.sn_addresses()[index]]


def payloads(host):
    return [p.data for _, p in host.delivered if p.data]


class TestMobility:
    def test_binding_and_delivery(self, two_edomain_net):
        net = two_edomain_net
        mobile = net.add_host(sn_of(net, "west", 0), name="phone")
        caller = net.add_host(sn_of(net, "east", 0), name="caller")
        send_binding_update(mobile, "phone.alice", sequence=1)
        net.run(1.0)
        conn = connect_to_mobile(caller, "phone.alice")
        caller.send(conn, b"ring ring")
        net.run(1.0)
        assert payloads(mobile) == [b"ring ring"]

    def test_traffic_follows_the_move(self, two_edomain_net):
        """The headline property: mid-conversation handoff."""
        net = two_edomain_net
        old_sn = sn_of(net, "west", 0)
        new_sn = sn_of(net, "east", 1)
        mobile = net.add_host(old_sn, name="phone")
        caller = net.add_host(sn_of(net, "east", 0), name="caller")
        send_binding_update(mobile, "phone.alice", sequence=1)
        net.run(1.0)
        conn = connect_to_mobile(caller, "phone.alice")
        caller.send(conn, b"before-move")
        net.run(1.0)

        # The phone walks to another network: associate + rebind.
        Link(net.sim, mobile, new_sn, latency=0.001)
        new_sn.associate_host(mobile)
        send_binding_update(mobile, "phone.alice", sequence=2, via=new_sn.address)
        net.run(1.0)

        caller.send(conn, b"after-move")
        net.run(1.0)
        assert payloads(mobile) == [b"before-move", b"after-move"]
        # The new packets were delivered by the new SN.
        assert new_sn.env.service(WellKnownService.MOBILITY).reroutes >= 0
        binding = new_sn.env.service(WellKnownService.MOBILITY).resolve("phone.alice")
        assert binding.sn_address == new_sn.address
        assert binding.sequence == 2

    def test_forged_binding_rejected(self, two_edomain_net):
        """An attacker cannot steal a stable name it does not own."""
        net = two_edomain_net
        victim = net.add_host(sn_of(net, "west", 0), name="victim")
        attacker = net.add_host(sn_of(net, "west", 1), name="attacker")
        send_binding_update(victim, "ceo.phone", sequence=1)
        net.run(1.0)
        # The attacker signs with its own key but claims victim's name —
        # the signature covers *its own* address so resolution would move.
        send_binding_update(attacker, "ceo.phone", sequence=2)
        net.run(1.0)
        module = sn_of(net, "west", 1).env.service(WellKnownService.MOBILITY)
        # Stable names are anchored to the first binder's key: the
        # attacker's (validly self-signed) takeover must be rejected and
        # the binding must still point at the victim.
        assert module.rejected_updates == 1
        binding = module.resolve("ceo.phone")
        assert binding.address == victim.address
        assert binding.sequence == 1

    def test_replayed_update_rejected(self, two_edomain_net):
        net = two_edomain_net
        mobile = net.add_host(sn_of(net, "west", 0), name="phone")
        send_binding_update(mobile, "phone.bob", sequence=5)
        net.run(1.0)
        module = sn_of(net, "west", 0).env.service(WellKnownService.MOBILITY)
        assert module.binding_updates == 1
        send_binding_update(mobile, "phone.bob", sequence=5)  # replay
        send_binding_update(mobile, "phone.bob", sequence=3)  # stale
        net.run(1.0)
        assert module.rejected_updates == 2
        assert module.resolve("phone.bob").sequence == 5

    def test_unknown_stable_name_dropped(self, two_edomain_net):
        net = two_edomain_net
        caller = net.add_host(sn_of(net, "east", 0), name="caller")
        conn = connect_to_mobile(caller, "ghost.name")
        caller.send(conn, b"anyone?")
        net.run(1.0)
        sn = sn_of(net, "east", 0)
        assert sn.terminus.stats.drops_by_service >= 1


class TestClusterInterconnect:
    def _fabric(self, net):
        sn_a = sn_of(net, "west", 0)
        sn_b = sn_of(net, "east", 0)
        gw_a = net.add_host(sn_a, name="gw-a")
        gw_b = net.add_host(sn_b, name="gw-b")
        register_cluster_prefix(gw_a, "corp-fabric", "172.16.0.0/16")
        register_cluster_prefix(gw_b, "corp-fabric", "172.17.0.0/16")
        net.run(1.0)
        return sn_a, sn_b, gw_a, gw_b

    def test_cross_cluster_delivery(self, two_edomain_net):
        net = two_edomain_net
        sn_a, sn_b, gw_a, gw_b = self._fabric(net)
        # A node inside cluster A sends to an internal address of cluster B;
        # the fabric routes it to B's gateway.
        send_cross_cluster(gw_a, "corp-fabric", "172.17.4.20", b"rpc-call")
        net.run(1.0)
        assert payloads(gw_b) == [b"rpc-call"]

    def test_reverse_direction(self, two_edomain_net):
        net = two_edomain_net
        sn_a, sn_b, gw_a, gw_b = self._fabric(net)
        send_cross_cluster(gw_b, "corp-fabric", "172.16.9.9", b"reply")
        net.run(1.0)
        assert payloads(gw_a) == [b"reply"]

    def test_longest_prefix_wins(self, two_edomain_net):
        net = two_edomain_net
        sn_a, sn_b, gw_a, gw_b = self._fabric(net)
        # A more specific prefix inside cluster B's range, homed at A.
        gw_specific = net.add_host(sn_a, name="gw-specific")
        register_cluster_prefix(gw_specific, "corp-fabric", "172.17.200.0/24")
        net.run(1.0)
        send_cross_cluster(gw_b, "corp-fabric", "172.17.200.5", b"to-specific")
        net.run(1.0)
        assert payloads(gw_specific) == [b"to-specific"]
        assert b"to-specific" not in payloads(gw_b)

    def test_unknown_fabric_dropped(self, two_edomain_net):
        net = two_edomain_net
        sn_a, _, gw_a, gw_b = self._fabric(net)
        send_cross_cluster(gw_a, "no-such-fabric", "172.17.1.1", b"lost")
        net.run(1.0)
        assert payloads(gw_b) == []

    def test_outside_prefix_dropped(self, two_edomain_net):
        net = two_edomain_net
        sn_a, _, gw_a, gw_b = self._fabric(net)
        send_cross_cluster(gw_a, "corp-fabric", "10.99.99.99", b"stray")
        net.run(1.0)
        assert payloads(gw_b) == []

    def test_invalid_prefix_rejected(self, two_edomain_net):
        net = two_edomain_net
        sn_a = sn_of(net, "west", 0)
        gw = net.add_host(sn_a, name="gw")
        register_cluster_prefix(gw, "f", "not-a-prefix")
        net.run(1.0)
        module = sn_a.env.service(WellKnownService.CLUSTER_INTERCONNECT)
        assert module.prefixes_registered == 0
