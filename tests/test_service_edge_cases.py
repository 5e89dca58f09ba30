"""Edge-case tests across service modules (branches not covered elsewhere)."""

from repro import WellKnownService
from repro.core.ilp import Flags, TLV
from repro.services.multipoint import (
    OP_DENIED,
    join_group,
    leave_group,
    publish,
    register_sender,
    request_replay,
)


def sn_of(net, edomain, index):
    dom = net.edomains[edomain]
    return dom.sns[dom.sn_addresses()[index]]


def payloads(host):
    return [p.data for _, p in host.delivered if p.data]


class TestMultipointEdges:
    def test_leave_without_join_acks_denied(self, two_edomain_net):
        net = two_edomain_net
        sn = sn_of(net, "west", 0)
        host = net.add_host(sn, name="h")
        acks = []
        host.on_service_control(
            WellKnownService.MULTICAST,
            lambda cid, h, p: acks.append(h.tlvs.get(TLV.SERVICE_OPTS)),
        )
        leave_group(host, WellKnownService.MULTICAST, "never-joined")
        net.run(1.0)
        assert acks == [OP_DENIED]

    def test_replay_denied_for_multicast(self, two_edomain_net):
        """Replay is a pub/sub capability; multicast has no retention."""
        net = two_edomain_net
        sn = sn_of(net, "west", 0)
        host = net.add_host(sn, name="h")
        request_replay(host, WellKnownService.MULTICAST, "g")
        net.run(1.0)
        assert payloads(host) == []

    def test_publish_without_topic_dropped(self, two_edomain_net):
        net = two_edomain_net
        sn = sn_of(net, "west", 0)
        host = net.add_host(sn, name="h")
        conn = host.connect(WellKnownService.MULTICAST, allow_direct=False)
        host.send(conn, b"no-topic")
        net.run(1.0)
        assert sn.terminus.stats.drops_by_service >= 1

    def test_control_missing_fields_dropped(self, two_edomain_net):
        net = two_edomain_net
        sn = sn_of(net, "west", 0)
        host = net.add_host(sn, name="h")
        # join without TOPIC TLV
        host.send_control(
            WellKnownService.MULTICAST, {TLV.SERVICE_OPTS: b"join"}
        )
        net.run(1.0)
        agent = sn.core_client.membership
        assert agent.local_members == {}

    def test_pubsub_sender_can_also_subscribe_other_topics(self, two_edomain_net):
        net = two_edomain_net
        sn = sn_of(net, "west", 0)
        node = net.add_host(sn, name="node")
        other = net.add_host(sn, name="other")
        for topic in ("a", "b"):
            group = f"pubsub:{topic}"
            net.lookup.register_group(group, node.keypair)
            net.lookup.post_open_group(group, node.keypair)
        join_group(node, WellKnownService.PUBSUB, "b")
        register_sender(node, WellKnownService.PUBSUB, "a")
        register_sender(other, WellKnownService.PUBSUB, "b")
        net.run(1.0)
        publish(other, WellKnownService.PUBSUB, "b", b"to-node")
        net.run(1.0)
        assert payloads(node) == [b"to-node"]


class TestPrivateRelayEdges:
    def test_garbage_payload_unroutable_dropped(self, two_edomain_net):
        net = two_edomain_net
        sn = sn_of(net, "west", 0)
        host = net.add_host(sn, name="h")
        conn = host.connect(WellKnownService.PRIVATE_RELAY, allow_direct=False)
        host.send(conn, b"not-an-onion-at-all")
        net.run(1.0)
        # No DEST_ADDR/DEST_SN: the relay fallback can't route it.
        assert sn.terminus.stats.drops_by_service >= 1


class TestTimeOrderedEdges:
    def test_no_dest_dropped(self, two_edomain_net):
        net = two_edomain_net
        sn = sn_of(net, "west", 0)
        host = net.add_host(sn, name="h")
        conn = host.connect(WellKnownService.TIME_ORDERED, allow_direct=False)
        host.send(conn, b"to-nowhere")
        net.run(1.0)
        assert sn.terminus.stats.drops_by_service == 1

    def test_same_sender_preserves_order(self, two_edomain_net):
        net = two_edomain_net
        sender = net.add_host(sn_of(net, "west", 0), name="s")
        dest = net.add_host(sn_of(net, "east", 0), name="d")
        conn = sender.connect(
            WellKnownService.TIME_ORDERED, dest_addr=dest.address, allow_direct=False
        )
        for i in range(5):
            sender.send(conn, f"{i}".encode())
            net.run(0.001)
        net.run(2.0)
        assert payloads(dest) == [b"0", b"1", b"2", b"3", b"4"]


class TestVPNEdges:
    def test_token_bound_to_source(self, two_edomain_net):
        """A token minted for one source does not admit another."""
        from repro.services.vpn import TLV_AUTH_TOKEN, mint_token, register_vpn_endpoint

        net = two_edomain_net
        sn = sn_of(net, "west", 0)
        inner = net.add_host(sn, name="inner")
        auth = net.add_host(sn, name="auth")
        mallory = net.add_host(sn_of(net, "east", 0), name="mallory")
        key = b"k" * 32
        register_vpn_endpoint(inner, "203.0.113.50", auth.address, key)
        net.run(0.5)
        stolen = mint_token(key, "10.9.9.9")  # someone else's token
        conn = mallory.connect(
            WellKnownService.VPN,
            dest_addr="203.0.113.50",
            dest_sn=sn.address,
            allow_direct=False,
        )
        mallory.send(conn, b"knock", extra_tlvs={TLV_AUTH_TOKEN: stolen})
        net.run(1.0)
        assert payloads(inner) == []


class TestFirewallEdges:
    def test_rules_scoped_per_sn_not_global(self, two_edomain_net):
        """Each SN's firewall module has its own rules (per-IESP policy)."""
        from repro.services.firewall import Rule

        net = two_edomain_net
        sn_w = sn_of(net, "west", 0)
        sn_e = sn_of(net, "east", 0)
        a = net.add_host(sn_w, name="a")
        b = net.add_host(sn_e, name="b")
        # Block on the *east* SN only; west's module stays permissive.
        sn_e.env.service(WellKnownService.FIREWALL).rules.add(
            Rule(allow=False, src_prefix=f"{a.address}/32")
        )
        conn = a.connect(
            WellKnownService.FIREWALL, dest_addr=b.address, allow_direct=False
        )
        a.send(conn, b"crosses west fine, dies at east")
        net.run(1.0)
        assert payloads(b) == []
        assert sn_w.terminus.stats.drops_by_service == 0
        assert sn_e.terminus.stats.drops_by_service == 1


class TestHostEdges:
    def test_close_is_idempotent(self, single_sn_net):
        net = single_sn_net
        dom = net.edomains["solo"]
        sn = dom.sns[dom.sn_addresses()[0]]
        a = net.add_host(sn, name="a")
        b = net.add_host(sn, name="b")
        conn = a.connect(
            WellKnownService.IP_DELIVERY, dest_addr=b.address, allow_direct=False
        )
        a.send(conn, b"x")
        a.close(conn)
        a.close(conn)  # second close: no error, no extra packet
        net.run(1.0)
        last_flags = [
            h.flags for h, _ in b.delivered if h.flags & Flags.LAST
        ]
        assert len(last_flags) <= 1

    def test_direct_connection_reuses_association(self, single_sn_net):
        net = single_sn_net
        dom = net.edomains["solo"]
        sn = dom.sns[dom.sn_addresses()[0]]
        from repro.netsim import Link

        a = net.add_host(sn, name="a", subnet="192.168.0.0/16")
        b = net.add_host(sn, name="b", subnet="192.168.0.0/16")
        Link(net.sim, a, b)
        conn1 = a.connect(WellKnownService.IP_DELIVERY, dest_addr=b.address)
        conn2 = a.connect(WellKnownService.IP_DELIVERY, dest_addr=b.address)
        assert conn1.direct_peer == conn2.direct_peer == b.address
        a.send(conn1, b"one")
        a.send(conn2, b"two")
        net.run(1.0)
        assert sorted(payloads(b)) == [b"one", b"two"]
