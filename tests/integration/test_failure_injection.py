"""Integration: failure injection — loss, link failure, SN restart.

§3.3 resilience, exercised end to end: lossy pipes (PSP tolerates
arbitrary loss/reorder), link failures mid-connection with recovery, bulk
transfer over a lossy path with receiver-driven repair, and queue-state
survival across an SN restart via checkpoint/restore.
"""

from repro import WellKnownService
from repro.services.bulk import BulkReceiver, offer_object
from repro.services.msgqueue import produce, subscribe


def sn_of(net, edomain, index):
    dom = net.edomains[edomain]
    return dom.sns[dom.sn_addresses()[index]]


def payloads(host):
    return [p.data for _, p in host.delivered if p.data]


class TestLossTolerance:
    def test_delivery_continues_under_loss(self, two_edomain_net):
        """Loss drops packets but never wedges the datapath or crypto."""
        net = two_edomain_net
        sn = sn_of(net, "west", 0)
        a = net.add_host(sn, name="a")
        b = net.add_host(sn, name="b")
        # Make b's access pipe lossy (seeded for reproducibility).
        b.links[0].set_loss(0.3, seed=11)
        conn = a.connect(
            WellKnownService.IP_DELIVERY, dest_addr=b.address, allow_direct=False
        )
        for i in range(100):
            a.send(conn, f"{i}".encode())
        net.run(2.0)
        got = payloads(b)
        assert 40 < len(got) < 100  # loss happened, delivery continued
        # Whatever arrived decrypted fine (no auth failures from loss).
        assert b.undeliverable == 0

    def test_bulk_transfer_repairs_losses(self, two_edomain_net):
        """Receiver-driven re-requests complete a transfer over loss."""
        net = two_edomain_net
        publisher_sn = sn_of(net, "west", 0)
        publisher = net.add_host(publisher_sn, name="publisher")
        receiver = net.add_host(sn_of(net, "east", 0), name="receiver")
        receiver.links[0].set_loss(0.25, seed=3)
        data = bytes(range(256)) * 16  # 4 chunks
        offer_object(publisher, "big", data)
        net.run(1.0)
        fetch = BulkReceiver(
            host=receiver, object_name="big", origin_sn=publisher_sn.address
        )
        fetch.install()
        fetch.start()
        net.run(2.0)
        # Repair until complete (bounded rounds).
        for _ in range(20):
            if fetch.complete:
                break
            fetch.rerequest_missing()
            if fetch.manifest is None:
                fetch.start()
            net.run(2.0)
        assert fetch.complete
        assert fetch.data == data


class TestLinkFailure:
    def test_direct_pipe_failure_falls_back_to_border(self, two_edomain_net):
        """When an on-demand direct pipe dies, traffic re-relays (§3.2)."""
        net = two_edomain_net
        inner_w = sn_of(net, "west", 1)
        inner_e = sn_of(net, "east", 1)
        net.establish_direct(inner_w, inner_e)
        a = net.add_host(inner_w, name="a")
        b = net.add_host(inner_e, name="b")
        conn = a.connect(
            WellKnownService.IP_DELIVERY,
            dest_addr=b.address,
            dest_sn=inner_e.address,
            allow_direct=False,
        )
        a.send(conn, b"via-direct")
        net.run(1.0)
        assert payloads(b) == [b"via-direct"]

        # The direct pipe fails: tear down the association + link.
        direct_link = inner_w.link_to(inner_e)
        direct_link.set_down()
        inner_w.teardown_pipe(inner_e.address)
        # Flush stale fast-path state (eviction is always safe, §B).
        inner_w.cache.evict_random_fraction(1.0)

        a.send(conn, b"after-failure")
        net.run(1.0)
        assert payloads(b) == [b"via-direct", b"after-failure"]
        # The border SN carried the rerouted packet.
        border_w = net.edomains["west"].border_sn
        assert border_w.terminus.stats.packets_in >= 1


class TestBorderFailover:
    def test_border_crash_fails_over_within_two_seconds(self, two_edomain_net):
        """Keepalive timeout detects a dead border SN and an alternate is
        promoted federation-wide; endpoints see no errors after repair."""
        net = two_edomain_net
        coordinator = net.enable_resilience(interval=0.25)
        west = net.edomains["west"]
        border = west.border_sn
        alternate = sn_of(net, "west", 1)
        a = net.add_host(alternate, name="a")  # attached off the dying border
        b = net.add_host(sn_of(net, "east", 1), name="b")
        conn = a.connect(
            WellKnownService.IP_DELIVERY, dest_addr=b.address, allow_direct=False
        )
        a.send(conn, b"before")
        net.run(1.0)
        assert payloads(b) == [b"before"]

        crash_at = net.sim.now
        border.crash()
        net.run(3.0)
        failovers = coordinator.failovers()
        assert len(failovers) == 1
        assert failovers[0]["alternate"] == alternate.address
        assert failovers[0]["at"] - crash_at <= 2.0  # detection + repair SLO
        assert west.border_address == alternate.address

        # In-flight connection keeps working without endpoint changes.
        a.send(conn, b"after")
        net.run(1.0)
        assert payloads(b) == [b"before", b"after"]
        assert a.undeliverable == 0 and b.undeliverable == 0

        # Recovery: the old border rejoins as a regular SN.
        border.restart()
        net.run(3.0)
        assert any(entry["kind"] == "peer-recovered" for entry in coordinator.log)
        from repro.core.monitoring import FederationMonitor

        report = FederationMonitor(net).collect()
        assert report.dead_pipes == 0 and report.crashed_sns == 0
        net.disable_resilience()


class TestSNRestart:
    def test_queue_state_survives_restart(self, two_edomain_net):
        """Checkpoint → crash → restore: consumers keep their cursors."""
        net = two_edomain_net
        producer = net.add_host(sn_of(net, "west", 0), name="producer")
        consumer = net.add_host(sn_of(net, "east", 0), name="consumer")
        subscribe(consumer, "orders")
        net.run(1.0)
        produce(producer, "orders", b"order-1")
        net.run(1.0)
        assert payloads(consumer) == [b"order-1"]

        from repro.services.msgqueue import queue_home

        home = net.sn_at(
            queue_home("orders", sorted(net.lookup.service_nodes("msgqueue")))
        )
        module = home.env.service(WellKnownService.MSG_QUEUE)
        home.env.checkpoint_all()
        # "Crash": wipe in-memory state, then restore from checkpoints.
        module.queues = {}
        home.env.restore_all()
        assert module.queues["orders"].log == [b"order-1"]
        assert module.queues["orders"].cursors[consumer.address] == 1

        produce(producer, "orders", b"order-2")
        net.run(1.0)
        # No duplicate of order-1; delivery resumes where it left off.
        assert payloads(consumer) == [b"order-1", b"order-2"]

    def test_pubsub_retention_fails_over_to_standby(self, two_edomain_net):
        net = two_edomain_net
        primary = sn_of(net, "west", 0)
        standby = sn_of(net, "west", 1)
        pub = net.add_host(primary, name="pub")
        from tests.conftest import open_group
        from repro.services.multipoint import publish, register_sender, request_replay, join_group

        open_group(net, pub, "audit")
        register_sender(pub, WellKnownService.PUBSUB, "audit")
        net.run(1.0)
        publish(pub, WellKnownService.PUBSUB, "audit", b"critical-event")
        net.run(1.0)
        primary.failover_to(standby)
        # A subscriber on the standby replays the retained history.
        late = net.add_host(standby, name="late")
        join_group(late, WellKnownService.PUBSUB, "audit")
        request_replay(late, WellKnownService.PUBSUB, "audit")
        net.run(1.0)
        assert payloads(late) == [b"critical-event"]
