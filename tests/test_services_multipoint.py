"""Tests for the multipoint family: multicast, anycast, pub/sub (§6.2)."""

from repro import WellKnownService
from repro.core.ilp import TLV
from repro.services.multipoint import (
    OP_ACK,
    OP_DENIED,
    join_group,
    leave_group,
    publish,
    register_sender,
    request_replay,
)
from tests.conftest import open_group


def topo(net):
    """(sn_w0, sn_w1, sn_e0, sn_e1) of the two_edomain_net fixture."""
    w = net.edomains["west"]
    e = net.edomains["east"]
    return [w.sns[a] for a in w.sn_addresses()] + [e.sns[a] for a in e.sn_addresses()]


def payloads(host):
    return [p.data for _, p in host.delivered if p.data]


class TestMulticast:
    SVC = WellKnownService.MULTICAST

    def test_fanout_all_members_all_scopes(self, two_edomain_net):
        net = two_edomain_net
        sn0, sn1, sn2, _ = topo(net)
        sender = net.add_host(sn0, name="sender")
        same_sn = net.add_host(sn0, name="m-same")
        same_dom = net.add_host(sn1, name="m-dom")
        remote = net.add_host(sn2, name="m-remote")
        open_group(net, sender, "g")
        for member in (same_sn, same_dom, remote):
            join_group(member, self.SVC, "g")
        register_sender(sender, self.SVC, "g")
        net.run(1.0)
        publish(sender, self.SVC, "g", b"to-all")
        net.run(1.0)
        assert payloads(same_sn) == [b"to-all"]
        assert payloads(same_dom) == [b"to-all"]
        assert payloads(remote) == [b"to-all"]

    def test_sender_does_not_receive_own_message(self, two_edomain_net):
        net = two_edomain_net
        sn0 = topo(net)[0]
        sender = net.add_host(sn0, name="sender")
        open_group(net, sender, "g")
        join_group(sender, self.SVC, "g")  # sender is also a member
        register_sender(sender, self.SVC, "g")
        net.run(1.0)
        publish(sender, self.SVC, "g", b"echo?")
        net.run(1.0)
        assert payloads(sender) == []

    def test_unregistered_sender_dropped(self, two_edomain_net):
        net = two_edomain_net
        sn0 = topo(net)[0]
        sender = net.add_host(sn0, name="sender")
        member = net.add_host(sn0, name="member")
        open_group(net, sender, "g")
        join_group(member, self.SVC, "g")
        net.run(1.0)
        publish(sender, self.SVC, "g", b"sneaky")  # never registered
        net.run(1.0)
        assert payloads(member) == []

    def test_leave_stops_delivery(self, two_edomain_net):
        net = two_edomain_net
        sn0, sn1, _, _ = topo(net)
        sender = net.add_host(sn0, name="sender")
        member = net.add_host(sn1, name="member")
        open_group(net, sender, "g")
        join_group(member, self.SVC, "g")
        register_sender(sender, self.SVC, "g")
        net.run(1.0)
        publish(sender, self.SVC, "g", b"one")
        net.run(1.0)
        leave_group(member, self.SVC, "g")
        net.run(1.0)
        publish(sender, self.SVC, "g", b"two")
        net.run(1.0)
        assert payloads(member) == [b"one"]

    def test_join_ack_and_denial(self, two_edomain_net):
        net = two_edomain_net
        sn0 = topo(net)[0]
        owner = net.add_host(sn0, name="owner")
        member = net.add_host(sn0, name="member")
        open_group(net, owner, "open-g")
        net.lookup.register_group("multicast:closed-g", owner.keypair)
        acks = []
        member.on_service_control(
            self.SVC,
            lambda cid, h, p: acks.append(h.tlvs.get(TLV.SERVICE_OPTS)),
        )
        join_group(member, self.SVC, "open-g")
        join_group(member, self.SVC, "closed-g")
        net.run(1.0)
        assert acks == [OP_ACK, OP_DENIED]


class TestAnycast:
    SVC = WellKnownService.ANYCAST

    def test_delivers_to_exactly_one_nearest(self, two_edomain_net):
        net = two_edomain_net
        sn0, sn1, sn2, _ = topo(net)
        sender = net.add_host(sn0, name="sender")
        near = net.add_host(sn0, name="near")  # same SN as sender
        far = net.add_host(sn2, name="far")  # other edomain
        open_group(net, sender, "svc")
        join_group(near, self.SVC, "svc")
        join_group(far, self.SVC, "svc")
        register_sender(sender, self.SVC, "svc")
        net.run(1.0)
        publish(sender, self.SVC, "svc", b"req")
        net.run(1.0)
        assert payloads(near) == [b"req"]
        assert payloads(far) == []

    def test_falls_back_to_edomain_member(self, two_edomain_net):
        net = two_edomain_net
        sn0, sn1, _, _ = topo(net)
        sender = net.add_host(sn0, name="sender")
        member = net.add_host(sn1, name="member")
        open_group(net, sender, "svc")
        join_group(member, self.SVC, "svc")
        register_sender(sender, self.SVC, "svc")
        net.run(1.0)
        publish(sender, self.SVC, "svc", b"req")
        net.run(1.0)
        assert payloads(member) == [b"req"]

    def test_falls_back_to_remote_edomain(self, two_edomain_net):
        net = two_edomain_net
        sn0, _, sn2, _ = topo(net)
        sender = net.add_host(sn0, name="sender")
        remote = net.add_host(sn2, name="remote")
        open_group(net, sender, "svc")
        join_group(remote, self.SVC, "svc")
        register_sender(sender, self.SVC, "svc")
        net.run(1.0)
        publish(sender, self.SVC, "svc", b"req")
        net.run(1.0)
        assert payloads(remote) == [b"req"]

    def test_no_members_drops(self, two_edomain_net):
        net = two_edomain_net
        sn0 = topo(net)[0]
        sender = net.add_host(sn0, name="sender")
        open_group(net, sender, "svc")
        register_sender(sender, self.SVC, "svc")
        net.run(1.0)
        publish(sender, self.SVC, "svc", b"void")
        net.run(1.0)  # nothing to assert beyond "no crash, no delivery"
        assert payloads(sender) == []


class TestPubSub:
    SVC = WellKnownService.PUBSUB

    def test_topic_isolation(self, two_edomain_net):
        net = two_edomain_net
        sn0, sn1, _, _ = topo(net)
        pub = net.add_host(sn0, name="pub")
        sub_news = net.add_host(sn1, name="sub-news")
        sub_sports = net.add_host(sn1, name="sub-sports")
        open_group(net, pub, "news")
        open_group(net, pub, "sports")
        join_group(sub_news, self.SVC, "news")
        join_group(sub_sports, self.SVC, "sports")
        register_sender(pub, self.SVC, "news")
        register_sender(pub, self.SVC, "sports")
        net.run(1.0)
        publish(pub, self.SVC, "news", b"headline")
        publish(pub, self.SVC, "sports", b"score")
        net.run(1.0)
        assert payloads(sub_news) == [b"headline"]
        assert payloads(sub_sports) == [b"score"]

    def test_retention_and_replay(self, two_edomain_net):
        """§3.3 host-driven state reconstruction."""
        net = two_edomain_net
        sn0 = topo(net)[0]
        pub = net.add_host(sn0, name="pub")
        open_group(net, pub, "log")
        register_sender(pub, self.SVC, "log")
        net.run(1.0)
        for i in range(3):
            publish(pub, self.SVC, "log", f"event-{i}".encode())
        net.run(1.0)
        # A late subscriber on the retaining SN replays the backlog.
        late = net.add_host(sn0, name="late")
        join_group(late, self.SVC, "log")
        request_replay(late, self.SVC, "log")
        net.run(1.0)
        assert payloads(late) == [b"event-0", b"event-1", b"event-2"]

    def test_retention_bounded(self, two_edomain_net):
        net = two_edomain_net
        sn0 = topo(net)[0]
        module = sn0.env.service(self.SVC)
        module.set_retention(2)
        pub = net.add_host(sn0, name="pub")
        open_group(net, pub, "log")
        register_sender(pub, self.SVC, "log")
        net.run(1.0)
        for i in range(5):
            publish(pub, self.SVC, "log", f"e{i}".encode())
        net.run(1.0)
        assert module.retained("log") == [b"e3", b"e4"]

    def test_checkpoint_restores_retention(self, two_edomain_net):
        net = two_edomain_net
        sn0 = topo(net)[0]
        module = sn0.env.service(self.SVC)
        pub = net.add_host(sn0, name="pub")
        open_group(net, pub, "log")
        register_sender(pub, self.SVC, "log")
        net.run(1.0)
        publish(pub, self.SVC, "log", b"precious")
        net.run(1.0)
        state = module.checkpoint()
        fresh = type(module)()
        fresh.restore(state)
        assert fresh.retained("log") == [b"precious"]
        assert fresh.published == module.published
