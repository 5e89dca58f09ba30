"""Tests for automated service features: DDoS auto-trigger, queue
redelivery timers, and the `python -m repro` demo entry point."""

from repro import WellKnownService
from repro.services.msgqueue import ack, produce, queue_home, subscribe


def sn_of(net, edomain, index):
    dom = net.edomains[edomain]
    return dom.sns[dom.sn_addresses()[index]]


def payloads(host):
    return [p.data for _, p in host.delivered if p.data]


class TestDDoSAutoTrigger:
    def test_sustained_flood_flips_attack_mode(self, two_edomain_net):
        net = two_edomain_net
        sn = sn_of(net, "west", 0)
        attacker = net.add_host(sn, name="attacker")
        victim = net.add_host(sn_of(net, "east", 0), name="victim")
        module = sn.env.service(WellKnownService.DDOS_PROTECT)
        module.protected.add(victim.address)
        module.policy.burst_bytes = 500
        module.policy.auto_trigger_drops = 20
        conn = attacker.connect(
            WellKnownService.DDOS_PROTECT, dest_addr=victim.address, allow_direct=False
        )
        for _ in range(60):
            attacker.send(conn, b"x" * 200)
        net.run(1.0)
        assert module.auto_triggers == 1
        assert victim.address in module.attack_mode
        # After the flip, new unsolved traffic is puzzle-dropped.
        attacker.send(conn, b"post-trigger")
        net.run(1.0)
        assert module.dropped_puzzle >= 1

    def test_slow_senders_never_trigger(self, two_edomain_net):
        net = two_edomain_net
        sn = sn_of(net, "west", 0)
        client = net.add_host(sn, name="client")
        victim = net.add_host(sn_of(net, "east", 0), name="victim")
        module = sn.env.service(WellKnownService.DDOS_PROTECT)
        module.protected.add(victim.address)
        conn = client.connect(
            WellKnownService.DDOS_PROTECT, dest_addr=victim.address, allow_direct=False
        )
        for _ in range(10):
            client.send(conn, b"polite")
        net.run(1.0)
        assert module.auto_triggers == 0
        assert len(payloads(victim)) == 10

    def test_drop_window_resets(self, two_edomain_net):
        net = two_edomain_net
        sn = sn_of(net, "west", 0)
        module = sn.env.service(WellKnownService.DDOS_PROTECT)
        module.policy.auto_trigger_drops = 5
        module.policy.trigger_window = 1.0
        attacker = net.add_host(sn, name="attacker")
        victim = net.add_host(sn_of(net, "east", 0), name="victim")
        module.protected.add(victim.address)
        module.policy.burst_bytes = 300
        conn = attacker.connect(
            WellKnownService.DDOS_PROTECT, dest_addr=victim.address, allow_direct=False
        )
        # 3 drops, a long pause, 3 more drops: never 5 within one window.
        for _ in range(3):
            attacker.send(conn, b"y" * 200)
        net.run(5.0)
        for _ in range(3):
            attacker.send(conn, b"y" * 200)
        net.run(5.0)
        assert module.auto_triggers == 0


class TestRedeliveryTimer:
    def test_unacked_redelivered_until_acked(self, two_edomain_net):
        net = two_edomain_net
        producer = net.add_host(sn_of(net, "west", 0), name="producer")
        consumer = net.add_host(sn_of(net, "east", 0), name="consumer")
        subscribe(consumer, "retry-q")
        net.run(1.0)
        produce(producer, "retry-q", b"must-arrive")
        net.run(1.0)
        home = net.sn_at(
            queue_home("retry-q", sorted(net.lookup.service_nodes("msgqueue")))
        )
        module = home.env.service(WellKnownService.MSG_QUEUE)
        module.start_redelivery_timer("retry-q", interval=2.0)
        net.run(7.0)  # three timer fires
        copies = payloads(consumer).count(b"must-arrive")
        assert copies >= 3  # original + redeliveries (at-least-once)
        # Ack stops the retries.
        ack(consumer, "retry-q", 0)
        net.run(1.0)
        before = payloads(consumer).count(b"must-arrive")
        net.run(10.0)
        assert payloads(consumer).count(b"must-arrive") == before


class TestDemoEntryPoint:
    def test_main_runs_clean(self, capsys):
        from repro.__main__ import main

        assert main([]) == 0
        out = capsys.readouterr().out
        assert "peering pipes" in out
        assert "pub/sub" in out
        assert "done" in out
