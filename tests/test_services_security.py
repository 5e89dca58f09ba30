"""Tests for the security services: firewall, ZTNA, DDoS, VPN, SD-WAN."""

from repro import WellKnownService
from repro.core.ilp import Flags
from repro.services.ddos import (
    TLV_PUZZLE_SOLUTION,
    make_puzzle_challenge,
    solve_puzzle,
)
from repro.services.firewall import Rule, RuleSet
from repro.services.sdwan import PathMetric, PathSelector
from repro.services.vpn import (
    TLV_AUTH_TOKEN,
    VPNAuthenticator,
    register_vpn_endpoint,
)
from repro.services.ztna import PosturePolicy, ZTNAPolicy, make_setup_packets


def sn_of(net, edomain, index):
    dom = net.edomains[edomain]
    return dom.sns[dom.sn_addresses()[index]]


def payloads(host):
    return [p.data for _, p in host.delivered if p.data]


class TestRuleSet:
    def test_first_match_wins(self):
        rules = RuleSet(default_allow=True)
        rules.add(Rule(allow=False, src_prefix="10.0.0.0/8"))
        rules.add(Rule(allow=True, src_prefix="10.1.0.0/16"))  # shadowed
        assert not rules.check("10.1.2.3", None, 1)

    def test_default_policy(self):
        assert RuleSet(default_allow=True).check("1.2.3.4", "5.6.7.8", 1)
        assert not RuleSet(default_allow=False).check("1.2.3.4", "5.6.7.8", 1)

    def test_service_id_match(self):
        rules = RuleSet()
        rules.add(Rule(allow=False, service_id=7))
        assert not rules.check(None, None, 7)
        assert rules.check(None, None, 8)

    def test_dst_prefix_match(self):
        rules = RuleSet()
        rules.add(Rule(allow=False, dst_prefix="192.168.0.0/24"))
        assert not rules.check("1.1.1.1", "192.168.0.9", 1)
        assert rules.check("1.1.1.1", "192.168.1.9", 1)

    def test_missing_fields_do_not_match_prefixed_rules(self):
        rules = RuleSet(default_allow=True)
        rules.add(Rule(allow=False, src_prefix="10.0.0.0/8"))
        assert rules.check(None, None, 1)  # no src -> rule can't match

    def test_denial_counter(self):
        rules = RuleSet(default_allow=False)
        rules.check("1.1.1.1", None, 1)
        assert rules.denials == 1


class TestFirewallService:
    def test_blocks_denied_source(self, two_edomain_net):
        net = two_edomain_net
        sn = sn_of(net, "west", 0)
        a = net.add_host(sn, name="a")
        b = net.add_host(sn, name="b")
        module = sn.env.service(WellKnownService.FIREWALL)
        module.rules.add(Rule(allow=False, src_prefix=f"{a.address}/32"))
        conn = a.connect(WellKnownService.FIREWALL, dest_addr=b.address, allow_direct=False)
        a.send(conn, b"blocked?")
        net.run(1.0)
        assert payloads(b) == []

    def test_allows_clean_traffic(self, two_edomain_net):
        net = two_edomain_net
        sn = sn_of(net, "west", 0)
        a = net.add_host(sn, name="a")
        b = net.add_host(sn, name="b")
        conn = a.connect(WellKnownService.FIREWALL, dest_addr=b.address, allow_direct=False)
        a.send(conn, b"clean")
        net.run(1.0)
        assert payloads(b) == [b"clean"]

    def test_payload_signature_blocks(self, two_edomain_net):
        net = two_edomain_net
        sn = sn_of(net, "west", 0)
        a = net.add_host(sn, name="a")
        b = net.add_host(sn, name="b")
        module = sn.env.service(WellKnownService.FIREWALL)
        module.add_signature("exploit", rb"\x90\x90\x90")
        conn = a.connect(WellKnownService.FIREWALL, dest_addr=b.address, allow_direct=False)
        a.send(conn, b"prefix\x90\x90\x90suffix")
        a.send(conn, b"innocent")
        net.run(1.0)
        assert payloads(b) == [b"innocent"]
        assert module.payload_blocks == 1


class TestZTNA:
    def _world(self, net):
        sn = sn_of(net, "west", 0)
        client = net.add_host(sn, name="client")
        resource = net.add_host(sn_of(net, "east", 0), name="resource")
        module = sn.env.service(WellKnownService.ZTNA)
        module.policy = ZTNAPolicy(posture=PosturePolicy(min_os_build=100))
        module.policy.grant(resource.address, "alice@corp")
        return sn, client, resource, module

    def _send_setup(self, net, client, resource, identity, posture, then=b"app-data"):
        conn = client.connect(
            WellKnownService.ZTNA, dest_addr=resource.address, allow_direct=False
        )
        packets = make_setup_packets(identity, posture, fragment_size=16)
        for i, tlvs in enumerate(packets):
            last = i == len(packets) - 1
            client.send(
                conn,
                then if last else b"",
                extra_tlvs=dict(tlvs),
                first=(i == 0),
                extra_flags=0 if last else Flags.MORE_HEADER,
            )
        net.run(1.0)
        return conn

    def test_authorized_posture_admitted(self, two_edomain_net):
        net = two_edomain_net
        sn, client, resource, module = self._world(net)
        self._send_setup(
            net, client, resource, "alice@corp", {"os_build": 120, "agent": True}
        )
        assert payloads(resource) == [b"app-data"]
        assert module.denials == 0

    def test_wrong_identity_denied(self, two_edomain_net):
        net = two_edomain_net
        sn, client, resource, module = self._world(net)
        self._send_setup(net, client, resource, "mallory", {"os_build": 120})
        assert payloads(resource) == []
        assert module.denials >= 1

    def test_stale_os_denied(self, two_edomain_net):
        net = two_edomain_net
        sn, client, resource, module = self._world(net)
        self._send_setup(net, client, resource, "alice@corp", {"os_build": 50})
        assert payloads(resource) == []

    def test_data_without_setup_denied(self, two_edomain_net):
        net = two_edomain_net
        sn, client, resource, module = self._world(net)
        conn = client.connect(
            WellKnownService.ZTNA, dest_addr=resource.address, allow_direct=False
        )
        client.send(conn, b"barge-in", first=False)
        net.run(1.0)
        assert payloads(resource) == []
        assert module.denials == 1

    def test_cache_eviction_readmits_without_reauth(self, two_edomain_net):
        """§B.2: the service's internal table survives cache eviction."""
        net = two_edomain_net
        sn, client, resource, module = self._world(net)
        conn = self._send_setup(
            net, client, resource, "alice@corp", {"os_build": 120}
        )
        sn.cache.evict_random_fraction(1.0)
        client.send(conn, b"more-data", first=False)
        net.run(1.0)
        assert payloads(resource) == [b"app-data", b"more-data"]
        assert module.readmissions == 1

    def test_fragmented_posture_reassembled(self, two_edomain_net):
        net = two_edomain_net
        sn, client, resource, module = self._world(net)
        big_posture = {"os_build": 120, "agent": True, "patches": ["p" * 40] * 4}
        packets = make_setup_packets("alice@corp", big_posture, fragment_size=16)
        assert len(packets) > 2  # genuinely fragmented
        self._send_setup(net, client, resource, "alice@corp", big_posture)
        assert payloads(resource) == [b"app-data"]


class TestDDoS:
    def _world(self, net):
        sn = sn_of(net, "west", 0)
        attacker = net.add_host(sn, name="attacker")
        victim = net.add_host(sn_of(net, "east", 0), name="victim")
        module = sn.env.service(WellKnownService.DDOS_PROTECT)
        module.protected.add(victim.address)
        return sn, attacker, victim, module

    def test_rate_limit_drops_flood(self, two_edomain_net):
        net = two_edomain_net
        sn, attacker, victim, module = self._world(net)
        module.policy.burst_bytes = 1000
        conn = attacker.connect(
            WellKnownService.DDOS_PROTECT, dest_addr=victim.address, allow_direct=False
        )
        for _ in range(50):
            attacker.send(conn, b"x" * 100)
        net.run(1.0)
        assert module.dropped_rate > 0
        assert len(payloads(victim)) < 50

    def test_unprotected_dest_untouched(self, two_edomain_net):
        net = two_edomain_net
        sn, attacker, victim, module = self._world(net)
        other = net.add_host(sn_of(net, "east", 0), name="other")
        conn = attacker.connect(
            WellKnownService.DDOS_PROTECT, dest_addr=other.address, allow_direct=False
        )
        for _ in range(5):
            attacker.send(conn, b"ok")
        net.run(1.0)
        assert len(payloads(other)) == 5

    def test_attack_mode_requires_puzzle(self, two_edomain_net):
        net = two_edomain_net
        sn, client, victim, module = self._world(net)
        module.policy.puzzle_difficulty = 8
        module.attack_mode.add(victim.address)
        conn = client.connect(
            WellKnownService.DDOS_PROTECT, dest_addr=victim.address, allow_direct=False
        )
        client.send(conn, b"no-puzzle")
        net.run(1.0)
        assert payloads(victim) == []
        assert module.dropped_puzzle == 1
        # Now solve the puzzle and retry.
        challenge = make_puzzle_challenge(
            victim.address, client.address, module.puzzle_epoch
        )
        solution = solve_puzzle(challenge, 8)
        client.send(conn, b"with-puzzle", extra_tlvs={TLV_PUZZLE_SOLUTION: solution})
        net.run(1.0)
        assert payloads(victim) == [b"with-puzzle"]
        # Once admitted, subsequent packets need no puzzle.
        client.send(conn, b"follow-up")
        net.run(1.0)
        assert payloads(victim) == [b"with-puzzle", b"follow-up"]


class TestSDWAN:
    def test_path_selector_prefers_best_score(self):
        selector = PathSelector()
        selector.configure_site(
            "10.0.9.1",
            [
                PathMetric(via_sn="10.0.9.2", latency_ms=50.0),
                PathMetric(via_sn="10.0.9.3", latency_ms=10.0),
            ],
        )
        assert selector.select("10.0.9.1") == "10.0.9.3"

    def test_loss_dominates_latency(self):
        selector = PathSelector()
        selector.configure_site(
            "s",
            [
                PathMetric(via_sn="lossy-fast", latency_ms=5.0, loss_pct=2.0),
                PathMetric(via_sn="clean-slow", latency_ms=60.0, loss_pct=0.0),
            ],
        )
        assert selector.select("s") == "clean-slow"

    def test_failover(self):
        selector = PathSelector()
        selector.configure_site(
            "s",
            [
                PathMetric(via_sn="primary", latency_ms=10.0),
                PathMetric(via_sn="backup", latency_ms=30.0),
            ],
        )
        selector.mark_down("s", "primary")
        assert selector.select("s") == "backup"
        assert selector.failovers == 1
        selector.mark_up("s", "primary")
        assert selector.select("s") == "primary"

    def test_all_paths_down(self):
        selector = PathSelector()
        selector.configure_site("s", [PathMetric(via_sn="only", latency_ms=1.0)])
        selector.mark_down("s", "only")
        assert selector.select("s") is None

    def test_service_steers_via_selected_sn(self, two_edomain_net):
        net = two_edomain_net
        sn_src = sn_of(net, "west", 0)
        sn_alt = sn_of(net, "west", 1)
        dest_sn = sn_of(net, "east", 0)
        client = net.add_host(sn_src, name="client")
        server = net.add_host(dest_sn, name="server")
        module = sn_src.env.service(WellKnownService.SDWAN)
        module.selector.configure_site(
            dest_sn.address,
            [PathMetric(via_sn=sn_alt.address, latency_ms=1.0)],
        )
        conn = client.connect(
            WellKnownService.SDWAN,
            dest_addr=server.address,
            dest_sn=dest_sn.address,
            allow_direct=False,
        )
        client.send(conn, b"steered")
        net.run(1.0)
        assert payloads(server) == [b"steered"]
        # The alternate SN actually carried the traffic.
        assert sn_alt.terminus.stats.packets_in >= 1
        assert module.path_decisions == 1


class TestVPN:
    def test_auth_flow(self, two_edomain_net):
        net = two_edomain_net
        sn = sn_of(net, "west", 0)
        public_addr = "203.0.113.10"
        inner = net.add_host(sn, name="inner")
        auth_host = net.add_host(sn_of(net, "west", 1), name="auth")
        visitor = net.add_host(sn_of(net, "east", 0), name="visitor")
        token_key = b"k" * 32
        register_vpn_endpoint(inner, public_addr, auth_host.address, token_key)
        authenticator = VPNAuthenticator(
            host=auth_host, token_key=token_key, credentials={"s3cret"}
        )
        authenticator.install()
        net.run(1.0)
        module = sn.env.service(WellKnownService.VPN)
        assert public_addr in module.endpoints

        # Unauthenticated traffic is redirected to the authenticator.
        conn = visitor.connect(
            WellKnownService.VPN,
            dest_addr=public_addr,
            dest_sn=sn.address,
            allow_direct=False,
        )
        visitor.send(conn, b"s3cret")  # credential as the redirected payload
        net.run(1.0)
        assert module.redirected == 1
        assert authenticator.approved == [visitor.address]
        token_msgs = [d for d in payloads(visitor) if d.startswith(b"VPN-TOKEN:")]
        assert token_msgs
        token = bytes.fromhex(token_msgs[0].split(b":", 1)[1].decode())

        # With the token, traffic reaches the inner host.
        visitor.send(conn, b"hello-inner", extra_tlvs={TLV_AUTH_TOKEN: token})
        net.run(1.0)
        assert payloads(inner) == [b"hello-inner"]
        assert module.admitted == 1

    def test_bad_credential_gets_no_token(self, two_edomain_net):
        net = two_edomain_net
        sn = sn_of(net, "west", 0)
        inner = net.add_host(sn, name="inner")
        auth_host = net.add_host(sn, name="auth")
        visitor = net.add_host(sn_of(net, "east", 0), name="visitor")
        token_key = b"k" * 32
        register_vpn_endpoint(inner, "203.0.113.11", auth_host.address, token_key)
        authenticator = VPNAuthenticator(
            host=auth_host, token_key=token_key, credentials={"right"}
        )
        authenticator.install()
        net.run(1.0)
        conn = visitor.connect(
            WellKnownService.VPN,
            dest_addr="203.0.113.11",
            dest_sn=sn.address,
            allow_direct=False,
        )
        visitor.send(conn, b"wrong")
        net.run(1.0)
        assert authenticator.approved == []
        assert payloads(inner) == []

    def test_forged_token_rejected(self, two_edomain_net):
        net = two_edomain_net
        sn = sn_of(net, "west", 0)
        inner = net.add_host(sn, name="inner")
        auth_host = net.add_host(sn, name="auth")
        visitor = net.add_host(sn_of(net, "east", 0), name="visitor")
        register_vpn_endpoint(inner, "203.0.113.12", auth_host.address, b"k" * 32)
        net.run(1.0)
        conn = visitor.connect(
            WellKnownService.VPN,
            dest_addr="203.0.113.12",
            dest_sn=sn.address,
            allow_direct=False,
        )
        visitor.send(conn, b"x", extra_tlvs={TLV_AUTH_TOKEN: b"\x00" * 32})
        net.run(1.0)
        assert payloads(inner) == []
        module = sn.env.service(WellKnownService.VPN)
        assert module.redirected == 1  # treated as unauthenticated
