"""Integration soak: a metro federation under sustained mixed workloads.

A long-horizon health check of the whole stack: Poisson and bursty
sources drive delivery traffic across a 3-edomain federation while
pub/sub fan-out runs concurrently; the federation monitor verifies zero
drops, full delivery, and a high steady-state fast-path fraction.
"""

from repro import WellKnownService
from repro.core.monitoring import FederationMonitor
from repro.core.overload import BreakerState
from repro.netsim import FaultInjector, FaultPlan, link_name
from repro.netsim.workloads import OnOffSource, PoissonSource
from repro.scenarios import metro_federation
from repro.services.multipoint import join_group, publish, register_sender


class TestSoak:
    def test_mixed_workload_soak(self):
        handles = metro_federation(
            n_edomains=3, sns_per_edomain=2, hosts_per_sn=1
        )
        net = handles.net
        hosts = handles.hosts
        sim = net.sim

        # Point-to-point flows under Poisson + on-off load.
        pairs = [(hosts[0], hosts[3]), (hosts[1], hosts[4]), (hosts[2], hosts[5])]
        sent_counts = []
        for i, (src, dst) in enumerate(pairs):
            conn = src.connect(
                WellKnownService.IP_DELIVERY,
                dest_addr=dst.address,
                allow_direct=False,
            )
            sent = [0]

            def make_sink(src=src, conn=conn, sent=sent):
                def sink(seq, size):
                    src.send(conn, b"s" * min(size, 1000))
                    sent[0] += 1

                return sink

            if i % 2 == 0:
                PoissonSource(sim, make_sink(), rate_pps=50, seed=i).start(
                    duration=10.0
                )
            else:
                OnOffSource(
                    sim, make_sink(), rate_bps=400_000, packet_bytes=500, seed=i
                ).start(duration=10.0)
            sent_counts.append(sent)

        # Concurrent pub/sub fan-out.
        pub, subscriber = hosts[0], hosts[-1]
        net.lookup.register_group("pubsub:soak", pub.keypair)
        net.lookup.post_open_group("pubsub:soak", pub.keypair)
        join_group(subscriber, WellKnownService.PUBSUB, "soak")
        register_sender(pub, WellKnownService.PUBSUB, "soak")
        net.run(0.5)
        for i in range(20):
            publish(pub, WellKnownService.PUBSUB, "soak", f"tick-{i}".encode())

        net.run(15.0)

        # Everything sent was delivered, nothing dropped anywhere.
        monitor = FederationMonitor(net)
        report = monitor.collect()
        assert report.total_drops == 0
        for (src, dst), sent in zip(pairs, sent_counts):
            delivered = sum(
                1 for _, p in dst.delivered if p.data and p.data[0:1] == b"s"
            )
            assert delivered == sent[0]
        pubsub_got = [
            p.data for _, p in subscriber.delivered if p.data.startswith(b"tick-")
        ]
        assert len(pubsub_got) == 20
        # Steady state is overwhelmingly fast path (delivery flows cache).
        assert report.overall_fast_path_fraction > 0.75

    def test_soak_is_deterministic(self):
        """Same seeds, same virtual timeline — byte-identical outcomes."""

        def run() -> tuple[int, float]:
            handles = metro_federation(
                n_edomains=2, sns_per_edomain=1, hosts_per_sn=1
            )
            net = handles.net
            src, dst = handles.hosts
            conn = src.connect(
                WellKnownService.IP_DELIVERY,
                dest_addr=dst.address,
                allow_direct=False,
            )
            source = PoissonSource(
                net.sim,
                lambda seq, size: src.send(conn, b"d"),
                rate_pps=100,
                seed=99,
            )
            source.start(duration=5.0)
            net.run(10.0)
            return len(dst.delivered), net.sim.now

        assert run() == run()


def _chaos_run():
    """30 virtual seconds of a metro federation under a seeded FaultPlan.

    Crashes one border SN (restarting it later) and flaps two edomain-2
    links while a cross-edomain flow runs through the dying border.
    Returns everything a determinism comparison needs.
    """
    handles = metro_federation(n_edomains=3, sns_per_edomain=2, hosts_per_sn=1)
    net = handles.net
    coordinator = net.enable_resilience(interval=0.25)
    plan = (
        FaultPlan(seed=42)
        .crash("sn-0-0", at=5.0, restart_after=12.0)
        .link_flap(link_name("sn-2-0", "sn-2-1"), at=4.0, period=1.0, count=3)
        .link_flap(
            link_name("host-sn-2-1-0", "sn-2-1"), at=6.0, period=0.8, count=2
        )
    )
    injector = FaultInjector(net.sim, plan).bind(net)
    injector.arm()

    # hosts[1] (sn-0-1) → hosts[3] (sn-1-1): crosses the sn-0-0 border.
    src, dst = handles.hosts[1], handles.hosts[3]
    conn = src.connect(
        WellKnownService.IP_DELIVERY, dest_addr=dst.address, allow_direct=False
    )
    for i in range(20):  # phase A: healthy fabric
        net.sim.schedule_at(0.5 + i * 0.1, src.send, conn, b"pre-%d" % i)
    for i in range(40):  # phase B: after the failover SLO window
        net.sim.schedule_at(9.0 + i * 0.1, src.send, conn, b"post-%d" % i)
    net.run(30.0)

    delivered = [p.data for _, p in dst.delivered if p.data]
    return handles, injector, coordinator, delivered


class TestChaosSoak:
    def test_chaos_soak_survives_border_crash_and_flaps(self):
        handles, injector, coordinator, delivered = _chaos_run()
        net = handles.net
        sns = handles.sns

        # Exactly one failover, to sn-0-1, within the 2-second SLO.
        failovers = coordinator.failovers()
        assert len(failovers) == 1
        assert failovers[0]["alternate"] == sns[1].address
        assert failovers[0]["at"] - 5.0 <= 2.0
        assert net.edomains["edomain-0"].border_address == sns[1].address

        # Every repairable transfer completed: all of phase A (pre-crash)
        # and all of phase B (post-failover), no endpoint-visible errors.
        assert [d for d in delivered if d.startswith(b"pre-")] == [
            b"pre-%d" % i for i in range(20)
        ]
        assert [d for d in delivered if d.startswith(b"post-")] == [
            b"post-%d" % i for i in range(40)
        ]
        assert handles.hosts[1].undeliverable == 0
        assert handles.hosts[3].undeliverable == 0

        # The flaps actually happened.
        flapped = sns[4].link_to(sns[5])
        assert flapped.down_transitions == 3

        # The crashed border restarted and was seen alive again.
        assert sns[0].crashes == 1 and not sns[0].failed
        assert any(e["kind"] == "peer-recovered" for e in coordinator.log)

        # Steady state after the storm: no dead pipes, no crashed SNs,
        # and the datapath drains to idle (no wedged timers or retries).
        report = FederationMonitor(net).collect()
        assert report.crashed_sns == 0
        assert report.dead_pipes == 0
        net.disable_resilience()
        net.sim.run_until_idle()

    def test_chaos_soak_is_deterministic(self):
        """Same plan seed ⇒ identical fault trace and identical outcome."""

        def fingerprint():
            handles, injector, coordinator, delivered = _chaos_run()
            return (
                injector.trace_digest(),
                delivered,
                [(e["at"], e["kind"]) for e in coordinator.log],
                handles.net.sim.events_processed,
            )

        assert fingerprint() == fingerprint()


def _overload_chaos_run():
    """15 virtual seconds with one SN under punt_storm + service_slowdown.

    The source's SN runs IP delivery under a fail-static policy while a
    seeded FaultPlan slows the service past its slow-path deadline and
    repeatedly evicts the decision cache (a punt storm). Every evicted
    packet punts, times out, and must be served from the stale-decision
    shelf instead of dropping; the circuit breaker trips, short-circuits
    the storm, and recovers once the fault clears. Returns everything the
    assertions and the determinism fingerprint need.
    """
    from repro.core.overload import BreakerConfig, DegradeMode, ServicePolicy

    handles = metro_federation(n_edomains=3, sns_per_edomain=2, hosts_per_sn=1)
    net = handles.net
    victim = handles.sns[1]  # "sn-0-1", the source host's SN
    victim.set_service_policy(
        WellKnownService.IP_DELIVERY,
        ServicePolicy(
            deadline=2e-3,
            degrade=DegradeMode.FAIL_STATIC,
            breaker=BreakerConfig(
                min_samples=2,
                ewma_alpha=1.0,
                open_duration=0.5,
                half_open_probes=2,
                close_after=1,
            ),
        ),
    )
    plan = (
        FaultPlan(seed=7)
        .service_slowdown(
            "sn-0-1",
            WellKnownService.IP_DELIVERY,
            at=3.0,
            extra=0.05,  # far beyond the 2 ms slow-path deadline
            duration=4.0,  # auto service_recover at t=7.0
        )
        .punt_storm("sn-0-1", at=3.2, period=0.5, count=6, fraction=1.0)
    )
    injector = FaultInjector(net.sim, plan).bind(net)
    injector.arm()

    src, dst = handles.hosts[1], handles.hosts[3]
    conn = src.connect(
        WellKnownService.IP_DELIVERY, dest_addr=dst.address, allow_direct=False
    )
    for i in range(20):  # phase A: healthy — warms cache and stale shelf
        net.sim.schedule_at(0.5 + i * 0.1, src.send, conn, b"pre-%d" % i)
    for i in range(30):  # phase B: inside the fault window
        net.sim.schedule_at(3.5 + i * 0.1, src.send, conn, b"mid-%d" % i)
    for i in range(20):  # phase C: after recovery
        net.sim.schedule_at(8.0 + i * 0.1, src.send, conn, b"post-%d" % i)
    net.run(15.0)

    delivered = [p.data for _, p in dst.delivered if p.data]
    return handles, injector, victim, delivered


class TestOverloadSoak:
    def test_punt_storm_with_slowdown_degrades_to_stale_not_drops(self):
        handles, injector, victim, delivered = _overload_chaos_run()
        guard = victim.terminus.overload

        # The fault actually bit: punts missed their deadline, the storm's
        # evicted packets were served from the stale shelf, and the open
        # breaker short-circuited part of the storm.
        assert guard.stats.deadline_misses > 0
        assert guard.stats.degraded_static > 0
        assert guard.stats.short_circuits > 0
        assert guard.stats.static_misses == 0  # the shelf covered the flow

        # End-to-end goodput survived degradation: every phase delivered
        # completely and in order, including packets sent mid-fault.
        for phase, n in ((b"pre-", 20), (b"mid-", 30), (b"post-", 20)):
            assert [d for d in delivered if d.startswith(phase)] == [
                phase + b"%d" % i for i in range(n)
            ]
        assert handles.hosts[3].undeliverable == 0

        # Breaker lifecycle: tripped during the fault, recovered to CLOSED
        # within 2 sim-seconds of the fault clearing (t=7.0).
        breaker = guard.breakers[WellKnownService.IP_DELIVERY]
        assert breaker.state is BreakerState.CLOSED
        assert breaker.stats.trips >= 1
        recovered = breaker.recovered_at()
        assert recovered is not None
        assert 7.0 <= recovered <= 9.0

        # Bounded memory, federation-wide: nothing left parked, every
        # miss-queue ledger balances, every stale shelf within its cap.
        for sn in handles.sns:
            queue = sn.terminus.miss_queue
            assert queue.live == 0
            mq = queue.stats
            assert mq.offered == (
                mq.drained_fast
                + mq.replayed
                + mq.shed
                + mq.dropped
                + queue.live
            )
            assert sn.cache.stale_count <= sn.cache.stale_capacity
        report = FederationMonitor(handles.net).collect()
        assert report.total_drops == 0

    def test_federation_export_equals_the_stats_ledgers(self, monkeypatch):
        """One home per counter: with obs armed on every SN, the merged
        ``overload.*`` export is the sum of the ledgers that own the
        counts — nothing is bumped twice, nothing can drift."""
        monkeypatch.setenv("REPRO_OBS", "1")
        handles, _injector, victim, _delivered = _overload_chaos_run()
        sns = handles.sns
        assert all(sn.obs is not None for sn in sns)
        merged = FederationMonitor(handles.net).obs_registry()
        guards = [sn.terminus.overload for sn in sns]

        def exported(name):
            return merged.get(f"overload.{name}").value

        assert exported("sheds") == sum(g.stats.shed_packets for g in guards)
        assert exported("deadline_misses") == sum(
            g.stats.deadline_misses for g in guards
        )
        assert exported("short_circuits") == sum(
            g.stats.short_circuits for g in guards
        )
        assert exported("breaker_trips") == sum(
            b.stats.trips for g in guards for b in g.breakers.values()
        )
        assert exported("breakers_open") == sum(g.open_count() for g in guards)
        # The soak exercised them: the export is not trivially all zeros.
        assert exported("deadline_misses") == victim.terminus.overload.stats.deadline_misses > 0
        assert exported("short_circuits") > 0 and exported("breaker_trips") >= 1
        # The packet and cache counters ride the same export.
        assert merged.get("terminus.packets_in").value == sum(
            sn.terminus.stats.packets_in for sn in sns
        )
        assert merged.get("cache.hits").value == sum(sn.cache.stats.hits for sn in sns)

    def test_overload_soak_is_deterministic(self):
        """Same plan seed ⇒ identical degradation, breaker timeline, and
        delivery outcome — overload handling replays bit-identically."""

        def fingerprint():
            handles, injector, victim, delivered = _overload_chaos_run()
            guard = victim.terminus.overload
            breaker = guard.breakers[WellKnownService.IP_DELIVERY]
            return (
                injector.trace_digest(),
                delivered,
                (
                    guard.stats.deadline_misses,
                    guard.stats.short_circuits,
                    guard.stats.degraded_static,
                    guard.stats.static_misses,
                ),
                breaker.transitions,
                handles.net.sim.events_processed,
            )

        assert fingerprint() == fingerprint()
