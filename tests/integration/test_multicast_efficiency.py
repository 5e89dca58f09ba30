"""Integration: multicast fan-out happens at the edges, not the source.

The architectural point of SN-based multicast (§6.2): a publisher sends
ONE copy; replication happens progressively — once toward each member
edomain, once toward each member SN inside an edomain, once per member
host at its SN. We count packets on each pipe class to prove it.
"""

from repro import WellKnownService
from repro.scenarios import metro_federation
from repro.services.multipoint import join_group, publish, register_sender


class TestMulticastEfficiency:
    def _world(self):
        handles = metro_federation(
            n_edomains=3, sns_per_edomain=2, hosts_per_sn=0
        )
        net = handles.net
        sns = handles.sns  # 6 SNs: [d0s0, d0s1, d1s0, d1s1, d2s0, d2s1]
        sender = net.add_host(sns[0], name="sender")
        members = []
        # 2 members per SN on four SNs across all three edomains.
        for sn in (sns[1], sns[2], sns[3], sns[4]):
            for i in range(2):
                members.append(net.add_host(sn, name=f"m-{sn.name}-{i}"))
        net.lookup.register_group("multicast:g", sender.keypair)
        net.lookup.post_open_group("multicast:g", sender.keypair)
        for member in members:
            join_group(member, WellKnownService.MULTICAST, "g")
        register_sender(sender, WellKnownService.MULTICAST, "g")
        net.run(1.0)
        return net, handles, sender, members

    def test_all_members_receive_exactly_once(self):
        net, handles, sender, members = self._world()
        publish(sender, WellKnownService.MULTICAST, "g", b"fanout")
        net.run(1.0)
        for member in members:
            got = [p.data for _, p in member.delivered if p.data == b"fanout"]
            assert got == [b"fanout"], member.name

    def test_source_sends_one_copy(self):
        net, handles, sender, members = self._world()
        link = sender.links[0]
        before = link.stats[sender].frames_sent
        publish(sender, WellKnownService.MULTICAST, "g", b"fanout")
        net.run(1.0)
        assert link.stats[sender].frames_sent - before == 1  # ONE copy up

    def test_inter_edomain_pipes_carry_one_copy_per_member_edomain(self):
        net, handles, sender, members = self._world()
        border0 = net.edomains["edomain-0"].border_sn
        # Count cross-edomain frames leaving the sender's border SN.
        counts = {}
        for link in border0.links:
            other = link.other(border0)
            edomain = net.directory.edomain_of(getattr(other, "address", ""))
            if edomain and edomain != "edomain-0":
                counts[edomain] = (link, link.stats[border0].frames_sent)
        publish(sender, WellKnownService.MULTICAST, "g", b"fanout")
        net.run(1.0)
        for edomain, (link, before) in counts.items():
            sent = link.stats[border0].frames_sent - before
            # Exactly one copy crossed to each member edomain — replication
            # to that edomain's SNs/hosts happened on the far side.
            assert sent == 1, edomain

    def test_non_member_sn_sees_nothing(self):
        net, handles, sender, members = self._world()
        idle_sn = handles.sns[5]  # d2s1: no members
        before = idle_sn.terminus.stats.packets_in
        publish(sender, WellKnownService.MULTICAST, "g", b"fanout")
        net.run(1.0)
        assert idle_sn.terminus.stats.packets_in == before
