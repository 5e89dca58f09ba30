"""Overload-resilience layer: breakers, degradation, shedding.

Unit coverage for :mod:`repro.core.overload` plus terminus-level
end-to-end scenarios (deadline misses, degradation modes, breaker trip
and recovery on a live ServiceNode) and the monitoring regression tests
for the overload columns in :func:`repro.core.monitoring.snapshot_sn`
(mirroring the drop-accounting regressions in ``test_obs.py``).
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro import sanitize
from repro.core.decision_cache import (
    Action,
    CacheError,
    CacheKey,
    Decision,
    DecisionCache,
)
from repro.core.ilp import Flags, ILPHeader
from repro.core.monitoring import snapshot_sn, FederationReport
from repro.core.overload import (
    AdmissionConfig,
    AdmissionControl,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    DegradeMode,
    OverloadError,
    ServicePolicy,
)
from repro.core.packet import ILPPacket, L3Header, make_payload
from repro.core.psp import PSPContext, pairwise_secret
from repro.core.service_module import ServiceError, ServiceModule, Verdict
from repro.core.service_node import ServiceNode
from repro.netsim import Simulator

SN_ADDR = "10.0.0.1"
PEER = "10.0.0.2"
EGRESS = "10.0.0.3"
DEGRADE_PEER = "10.0.0.4"
VICTIM = 70


# -- circuit breaker ------------------------------------------------------


def _tight_breaker(**overrides) -> CircuitBreaker:
    cfg = dict(
        failure_threshold=0.5,
        ewma_alpha=1.0,
        min_samples=1,
        open_duration=0.5,
        open_jitter=0.0,
        half_open_probes=2,
        close_after=1,
        seed=0,
    )
    cfg.update(overrides)
    return CircuitBreaker(BreakerConfig(**cfg))


class TestCircuitBreaker:
    def test_trips_after_threshold_with_min_samples(self):
        breaker = _tight_breaker(min_samples=3, ewma_alpha=1.0)
        assert not breaker.record_timeout(0.0)
        assert not breaker.record_timeout(0.0)
        assert breaker.record_timeout(0.0)  # third sample reaches min
        assert breaker.state is BreakerState.OPEN
        assert breaker.stats.trips == 1
        assert breaker.transitions[-1][1] is BreakerState.OPEN

    def test_successes_hold_ewma_below_threshold(self):
        breaker = _tight_breaker(min_samples=2, ewma_alpha=0.3)
        for _ in range(20):
            breaker.record_success(0.0)
        # One failure against a long success history must not trip.
        assert not breaker.record_error(0.0)
        assert breaker.state is BreakerState.CLOSED

    def test_open_short_circuits_then_half_open_recovers(self):
        breaker = _tight_breaker()
        assert breaker.record_timeout(0.0)
        assert not breaker.allow(0.1)
        assert breaker.stats.short_circuits == 1
        # Open period over: half-open, probes admitted, success closes.
        assert breaker.allow(1.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.stats.probes == 1
        assert breaker.record_success(1.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.stats.recoveries == 1
        assert breaker.recovered_at() == 1.0

    def test_failed_probe_reopens_immediately(self):
        breaker = _tight_breaker()
        breaker.record_timeout(0.0)
        assert breaker.allow(1.0)
        assert breaker.record_error(1.0)
        assert breaker.state is BreakerState.OPEN
        # The new open period starts at the failed probe.
        assert not breaker.allow(1.2)

    def test_probe_budget_is_bounded(self):
        breaker = _tight_breaker(half_open_probes=2, close_after=3)
        breaker.record_timeout(0.0)
        assert breaker.allow(1.0)
        assert breaker.allow(1.0)
        # Probe budget exhausted without a verdict: short-circuit again.
        assert not breaker.allow(1.0)

    def test_open_jitter_is_deterministic_in_seed(self):
        a = _tight_breaker(open_jitter=0.5, seed=7)
        b = _tight_breaker(open_jitter=0.5, seed=7)
        a.record_timeout(0.0)
        b.record_timeout(0.0)
        assert a.reopen_at == b.reopen_at
        c = _tight_breaker(open_jitter=0.5, seed=8)
        c.record_timeout(0.0)
        assert c.reopen_at != a.reopen_at

    def test_config_validation(self):
        with pytest.raises(OverloadError):
            CircuitBreaker(BreakerConfig(failure_threshold=0.0))
        with pytest.raises(OverloadError):
            CircuitBreaker(BreakerConfig(ewma_alpha=1.5))
        with pytest.raises(OverloadError):
            CircuitBreaker(BreakerConfig(open_duration=0.0))
        with pytest.raises(OverloadError):
            CircuitBreaker(BreakerConfig(half_open_probes=0))


# -- stale-decision shelf -------------------------------------------------


def _key(conn: int, src: str = PEER, service: int = VICTIM) -> CacheKey:
    return CacheKey(src=src, service_id=service, connection_id=conn)


class TestStaleShelf:
    def test_shelf_survives_capacity_eviction(self):
        cache = DecisionCache(capacity=1, stale_capacity=8)
        cache.install(_key(1), Decision.forward(EGRESS))
        cache.install(_key(2), Decision.forward(EGRESS))  # evicts key 1
        assert _key(1) not in cache
        assert cache.stale_lookup(_key(1)) is not None
        assert cache.stats.stale_hits == 1

    def test_shelf_survives_random_eviction(self):
        cache = DecisionCache(capacity=64, stale_capacity=64)
        for conn in range(8):
            cache.install(_key(conn), Decision.forward(EGRESS))
        cache.evict_random_fraction(1.0)
        assert len(cache) == 0
        assert cache.stale_count == 8
        assert cache.stale_lookup(_key(3)) is not None

    def test_shelf_is_lru_bounded(self):
        cache = DecisionCache(capacity=64, stale_capacity=2)
        for conn in range(3):
            cache.install(_key(conn), Decision.forward(EGRESS))
        assert cache.stale_count == 2
        assert cache.stats.stale_evictions == 1
        assert cache.stale_lookup(_key(0)) is None  # the LRU victim
        assert cache.stats.stale_misses == 1

    def test_zero_capacity_disables_shelf(self):
        cache = DecisionCache(capacity=64, stale_capacity=0)
        cache.install(_key(1), Decision.forward(EGRESS))
        assert cache.stale_count == 0
        assert cache.stale_lookup(_key(1)) is None

    def test_invalidate_purges_shelf(self):
        cache = DecisionCache(capacity=64)
        cache.install(_key(1), Decision.forward(EGRESS))
        cache.invalidate(_key(1))
        assert cache.stale_lookup(_key(1)) is None

    def test_invalidate_connection_purges_shelf(self):
        cache = DecisionCache(capacity=1)
        cache.install(_key(1), Decision.forward(EGRESS))
        cache.install(_key(9), Decision.forward(EGRESS))  # evicts key 1 live
        # Key 1 now lives only on the shelf; teardown must still reach it.
        cache.invalidate_connection(VICTIM, 1)
        assert cache.stale_lookup(_key(1)) is None
        assert cache.stale_lookup(_key(9)) is not None

    def test_invalidate_by_target_purges_shelf(self):
        cache = DecisionCache(capacity=64)
        cache.install(_key(1), Decision.forward(EGRESS))
        cache.install(_key(2), Decision.forward(DEGRADE_PEER))
        cache.invalidate_by_target(EGRESS)
        assert cache.stale_lookup(_key(1)) is None
        assert cache.stale_lookup(_key(2)) is not None

    def test_clear_stale_wipes_shelf(self):
        cache = DecisionCache(capacity=64)
        for conn in range(4):
            cache.install(_key(conn), Decision.forward(EGRESS))
        assert cache.clear_stale() == 4
        assert cache.stale_count == 0

    def test_stale_capacity_validation(self):
        with pytest.raises(CacheError):
            DecisionCache(stale_capacity=-1)


# -- policy + admission validation ---------------------------------------


class TestPolicyAndAdmission:
    def test_fail_open_requires_peer(self):
        with pytest.raises(OverloadError):
            ServicePolicy(degrade=DegradeMode.FAIL_OPEN)

    def test_deadline_must_be_positive(self):
        with pytest.raises(OverloadError):
            ServicePolicy(deadline=0.0)

    def test_admission_config_validation(self):
        with pytest.raises(OverloadError):
            AdmissionConfig(max_parked=0)
        with pytest.raises(OverloadError):
            AdmissionConfig(punt_rate=0.0)

    def test_admission_refuses_on_queue_depth(self):
        control = AdmissionControl(AdmissionConfig(max_parked=4))
        assert control.admit(0.0, queue_depth=3)
        assert not control.admit(0.0, queue_depth=4)

    def test_admission_rate_limits_punts(self):
        control = AdmissionControl(
            AdmissionConfig(max_parked=100, punt_rate=1.0, punt_burst=2)
        )
        assert control.admit(0.0, 0)
        assert control.admit(0.0, 0)
        assert not control.admit(0.0, 0)  # burst spent, no time elapsed
        assert control.admit(10.0, 0)  # tokens refilled


# -- terminus end-to-end --------------------------------------------------


class _ForwardingService(ServiceModule):
    """Forwards every punt to EGRESS without installing (stays cold)."""

    SERVICE_ID = VICTIM
    NAME = "forwarding"
    handled = 0

    def handle_packet(self, header, packet):
        self.handled += 1
        return Verdict.forward(EGRESS, header, packet.payload)

    def handle_control(self, header, packet):
        return Verdict.drop()


class _ErroringService(_ForwardingService):
    def handle_packet(self, header, packet):
        raise ServiceError("broken handler")


class _PuntRig:
    """One SN with a cold service and a recording transmit sink."""

    def __init__(self, service: ServiceModule | None = None) -> None:
        self.sim = Simulator()
        self.node = ServiceNode(self.sim, "sn", SN_ADDR)
        self.terminus = self.node.terminus
        self.sent: list[tuple[str, ILPPacket]] = []
        self.terminus.set_transmit(
            lambda peer, pkts: self.sent.extend((peer, p) for p in pkts) or len(pkts)
        )
        secret = pairwise_secret(SN_ADDR, PEER)
        self.node.keystore.establish(PEER, secret)
        self.tx = PSPContext(secret)
        for peer in (EGRESS, DEGRADE_PEER):
            self.node.keystore.establish(peer, pairwise_secret(SN_ADDR, peer))
        self.node.env.load(service or _ForwardingService())

    def packet(self, conn: int = 1, flags: Flags = Flags.NONE) -> ILPPacket:
        header = ILPHeader(
            service_id=VICTIM, connection_id=conn, flags=flags
        )
        return ILPPacket(
            l3=L3Header(src=PEER, dst=SN_ADDR),
            ilp_wire=self.tx.seal(header.encode()),
            payload=make_payload(b"z" * 8),
        )

    def inject(self, conn: int = 1, flags: Flags = Flags.NONE) -> None:
        self.terminus.receive(self.packet(conn, flags))


class TestTerminusOverload:
    def test_hung_service_without_policy_uses_default_deadline(self):
        rig = _PuntRig()
        rig.node.env.inject_hang(VICTIM)
        rig.inject()
        guard = rig.terminus.overload
        assert guard.stats.deadline_misses == 1
        assert rig.terminus.stats.drops_by_service == 1
        assert rig.terminus.stats.drops_degraded == 0

    def test_deadline_miss_fails_closed_with_obs(self):
        rig = _PuntRig()
        obs = rig.node.enable_observability()
        rig.node.env.inject_hang(VICTIM)
        rig.node.set_service_policy(VICTIM, ServicePolicy(deadline=1e-3))
        rig.inject()
        guard = rig.terminus.overload
        assert guard.stats.deadline_misses == 1
        assert guard.stats.degraded_closed == 1
        assert rig.terminus.stats.drops_degraded == 1
        assert obs.punt_latency.count == 1  # the timed-out punt was sampled
        assert rig.sent == []

    def test_fail_open_forwards_to_designated_peer(self):
        rig = _PuntRig()
        rig.node.env.inject_hang(VICTIM)
        rig.node.set_service_policy(
            VICTIM,
            ServicePolicy(
                deadline=1e-3,
                degrade=DegradeMode.FAIL_OPEN,
                fail_open_peer=DEGRADE_PEER,
            ),
        )
        rig.inject()
        guard = rig.terminus.overload
        assert guard.stats.degraded_open == 1
        assert [peer for peer, _ in rig.sent] == [DEGRADE_PEER]
        assert rig.sent[0][1].payload.data == b"z" * 8

    def test_fail_static_serves_stale_decision(self):
        rig = _PuntRig()
        rig.node.env.inject_hang(VICTIM)
        rig.node.set_service_policy(
            VICTIM,
            ServicePolicy(deadline=1e-3, degrade=DegradeMode.FAIL_STATIC),
        )
        cache = rig.terminus.cache
        cache.install(_key(7), Decision.forward(EGRESS))
        cache.evict_random_fraction(1.0)  # live entry gone, shelf survives
        rig.inject(conn=7)
        guard = rig.terminus.overload
        assert guard.stats.degraded_static == 1
        assert [peer for peer, _ in rig.sent] == [EGRESS]

    def test_fail_static_miss_falls_closed(self):
        rig = _PuntRig()
        rig.node.env.inject_hang(VICTIM)
        rig.node.set_service_policy(
            VICTIM,
            ServicePolicy(deadline=1e-3, degrade=DegradeMode.FAIL_STATIC),
        )
        rig.inject(conn=9)
        guard = rig.terminus.overload
        assert guard.stats.static_misses == 1
        assert guard.stats.degraded_closed == 1

    def test_slowdown_within_deadline_succeeds(self):
        rig = _PuntRig()
        rig.node.env.inject_slowdown(VICTIM, 1e-4)
        rig.node.set_service_policy(VICTIM, ServicePolicy(deadline=1e-2))
        rig.inject()
        assert rig.terminus.overload.stats.deadline_misses == 0
        assert [peer for peer, _ in rig.sent] == [EGRESS]

    def test_hung_punt_never_crosses(self):
        # The terminus owns the deadline: a punt its service cannot answer
        # in time is resolved without a crossing, so the handler never runs.
        rig = _PuntRig()
        rig.node.env.inject_hang(VICTIM)
        rig.inject()
        assert rig.terminus.overload.stats.deadline_misses == 1
        assert rig.terminus.channel.stats.invocations == 0
        assert rig.terminus.channel.stats.batches == 0
        assert rig.node.env.service(VICTIM).handled == 0

    def test_slowdown_within_deadline_crosses_once_in_the_healthy_frame(self):
        healthy = _PuntRig()
        healthy.inject()
        rig = _PuntRig()
        rig.node.env.inject_slowdown(VICTIM, 1e-4)
        rig.inject()
        channel = rig.terminus.channel.stats
        assert channel.invocations == channel.batches == 1
        assert rig.node.env.service(VICTIM).handled == 1
        # No deadline rides the request: the frame is the fault-free one.
        assert channel.ipc_bytes == healthy.terminus.channel.stats.ipc_bytes

    def test_slowdown_beyond_deadline_times_out(self):
        rig = _PuntRig()
        rig.node.env.inject_slowdown(VICTIM, 1e-1)
        rig.node.set_service_policy(VICTIM, ServicePolicy(deadline=1e-3))
        rig.inject()
        assert rig.terminus.overload.stats.deadline_misses == 1
        assert rig.sent == []

    def test_service_errors_feed_the_breaker(self):
        rig = _PuntRig(_ErroringService())
        rig.node.set_service_policy(
            VICTIM,
            ServicePolicy(
                breaker=BreakerConfig(
                    min_samples=2, ewma_alpha=1.0, open_jitter=0.0
                )
            ),
        )
        rig.inject(conn=1)
        rig.inject(conn=2)
        breaker = rig.terminus.overload.breakers[VICTIM]
        assert breaker.state is BreakerState.OPEN
        assert breaker.stats.errors == 2

    def test_breaker_trip_short_circuit_and_recovery(self):
        rig = _PuntRig()
        rig.node.env.inject_hang(VICTIM)
        rig.node.set_service_policy(
            VICTIM,
            ServicePolicy(
                deadline=1e-3,
                breaker=BreakerConfig(
                    min_samples=1,
                    ewma_alpha=1.0,
                    open_duration=0.5,
                    open_jitter=0.0,
                    half_open_probes=2,
                    close_after=1,
                ),
            ),
        )
        rig.inject(conn=1)  # timeout -> trip
        breaker = rig.terminus.overload.breakers[VICTIM]
        assert breaker.state is BreakerState.OPEN
        assert breaker.stats.trips == 1
        punts_after_trip = rig.terminus.stats.punts
        rig.inject(conn=2)  # short-circuited, never invoked
        guard = rig.terminus.overload
        assert guard.stats.short_circuits == 1
        assert rig.terminus.stats.punts == punts_after_trip
        # Heal the service and let the open period elapse in sim time.
        cleared_at = rig.sim.now
        assert rig.node.env.clear_service_fault(VICTIM)
        rig.sim.run(until=1.0)
        rig.inject(conn=3)  # half-open probe succeeds -> closed
        assert breaker.state is BreakerState.CLOSED
        recovered = breaker.recovered_at()
        assert recovered is not None
        assert recovered - cleared_at <= 2.0
        assert [peer for peer, _ in rig.sent] == [EGRESS]

    def test_barriers_are_exempt_from_short_circuit(self):
        rig = _PuntRig()
        rig.node.env.inject_hang(VICTIM)
        rig.node.set_service_policy(
            VICTIM,
            ServicePolicy(
                deadline=1e-3,
                degrade=DegradeMode.FAIL_OPEN,
                fail_open_peer=DEGRADE_PEER,
                breaker=BreakerConfig(
                    min_samples=1, ewma_alpha=1.0, open_jitter=0.0
                ),
            ),
        )
        rig.inject(conn=1)  # trips the breaker
        punts = rig.terminus.stats.punts
        rig.inject(conn=1, flags=Flags.CONTROL)
        # The barrier still punted (no short-circuit) and failed CLOSED,
        # never open: teardown must not be forwarded unserviced.
        assert rig.terminus.stats.punts == punts + 1
        guard = rig.terminus.overload
        assert guard.stats.degraded_closed == 1
        assert [peer for peer, _ in rig.sent] == [DEGRADE_PEER]  # data only

    def test_admission_sheds_cold_leads_only(self):
        rig = _PuntRig()
        rig.node.enable_admission_control(
            AdmissionConfig(max_parked=64, punt_rate=1.0, punt_burst=1)
        )
        rig.inject(conn=1)  # admitted (burst token)
        rig.inject(conn=2)  # shed: bucket empty at the same instant
        rig.inject(conn=3, flags=Flags.LAST)  # barrier: never shed
        stats = rig.terminus.stats
        guard = rig.terminus.overload
        assert stats.drops_shed == 1
        assert guard.stats.shed_packets == 1
        assert stats.punts == 2  # the admitted lead and the barrier

    def test_obs_export_equals_the_stats_ledgers(self):
        """One home per counter: the registry only mirrors the ledgers."""
        rig = _PuntRig()
        obs = rig.node.enable_observability()
        rig.node.env.inject_hang(VICTIM)
        rig.node.set_service_policy(
            VICTIM,
            ServicePolicy(
                deadline=1e-3,
                breaker=BreakerConfig(
                    min_samples=1, ewma_alpha=1.0, open_jitter=0.0
                ),
            ),
        )
        rig.node.enable_admission_control(
            AdmissionConfig(max_parked=64, punt_rate=1.0, punt_burst=2)
        )
        rig.inject(conn=1)  # timeout -> breaker trips
        rig.inject(conn=2)  # short-circuited by the open breaker
        rig.inject(conn=3)  # shed: both burst tokens are spent
        guard = rig.terminus.overload
        exported = json.loads(obs.export_json())["metrics"]
        for prefix, ledger in (
            ("terminus", rig.terminus.stats),
            ("cache", rig.node.cache.stats),
            ("miss_queue", rig.terminus.miss_queue.stats),
            ("overload", guard.stats),
        ):
            for name, value in asdict(ledger).items():
                assert exported[prefix][name] == value, f"{prefix}.{name}"
        overload = exported["overload"]
        assert overload["deadline_misses"] == 1
        assert overload["short_circuits"] == 1
        assert overload["sheds"] == guard.stats.shed_packets == 1
        assert overload["breaker_trips"] == guard.breakers[VICTIM].stats.trips == 1
        assert overload["breakers_open"] == guard.open_count() == 1
        assert "overload.sheds" in obs.export_table()

    def test_crash_resets_breakers_and_clears_shelf(self):
        rig = _PuntRig()
        rig.node.env.inject_hang(VICTIM)
        rig.node.set_service_policy(
            VICTIM,
            ServicePolicy(
                deadline=1e-3,
                breaker=BreakerConfig(
                    min_samples=1, ewma_alpha=1.0, open_jitter=0.0
                ),
            ),
        )
        cache = rig.terminus.cache
        cache.install(_key(5), Decision.forward(EGRESS))
        rig.inject(conn=1)
        assert rig.terminus.overload.breakers[VICTIM].state is BreakerState.OPEN
        assert cache.stale_count > 0
        rig.node.crash()
        # Breakers restart closed (volatile soft state); the shelf is gone
        # (a crashed node must not serve pre-crash stale decisions); the
        # policy itself survives (control-plane configuration).
        assert rig.terminus.overload.breakers[VICTIM].state is BreakerState.CLOSED
        assert cache.stale_count == 0
        assert VICTIM in rig.terminus.overload.policies


class TestOneBillingRule:
    """Billing and shedding are single-sited: one packet and one burst of
    the same packets account the same way."""

    def _burst(self, rig: _PuntRig, conns) -> None:
        rig.terminus.receive_batch([rig.packet(conn) for conn in conns])

    def test_failed_punt_bills_like_a_successful_one(self):
        rig = _PuntRig(_ErroringService())
        obs = rig.node.enable_observability()
        rig.inject()
        cost = rig.terminus.cost_model
        billed = (
            cost.batch_invocation_latency(rig.terminus.channel.mode, 0)
            + cost.service_packet
        )
        assert rig.terminus.stats.drops_by_service == 1
        assert rig.terminus.pending_delay == pytest.approx(
            cost.terminus_latency + billed
        )
        assert obs.punt_latency.count == 1
        assert obs.punt_latency.total == pytest.approx(billed)

    @pytest.mark.parametrize("burst", [False, True])
    def test_timed_out_punt_sample_is_crossing_share_plus_deadline(self, burst):
        rig = _PuntRig()
        obs = rig.node.enable_observability()
        rig.node.env.inject_hang(VICTIM)
        rig.node.set_service_policy(VICTIM, ServicePolicy(deadline=1e-3))
        if burst:
            self._burst(rig, [1, 2])
        else:
            rig.inject(conn=1)
            rig.inject(conn=2)
        cost = rig.terminus.cost_model
        crossing = cost.batch_invocation_latency(rig.terminus.channel.mode, 0)
        # Two singleton crossings, or one crossing shared by two leads:
        # either way every sample is its crossing share plus the deadline.
        crossings = 1 if burst else 2
        assert obs.punt_latency.count == 2
        assert obs.punt_latency.total == pytest.approx(
            crossings * crossing + 2 * 1e-3
        )
        assert obs.punt_latency.max == pytest.approx(
            crossing / (2 if burst else 1) + 1e-3
        )
        assert rig.terminus.overload.stats.deadline_misses == 2

    def test_slowed_punt_sample_includes_its_delay(self):
        rig = _PuntRig()
        obs = rig.node.enable_observability()
        rig.node.env.inject_slowdown(VICTIM, 1e-4)
        rig.node.set_service_policy(VICTIM, ServicePolicy(deadline=1e-2))
        rig.inject()
        cost = rig.terminus.cost_model
        billed = (
            cost.batch_invocation_latency(rig.terminus.channel.mode, 0)
            + cost.service_packet
            + 1e-4
        )
        assert rig.terminus.pending_delay == pytest.approx(
            cost.terminus_latency + billed
        )
        # The sample and the bill agree: the slowdown is in both.
        assert obs.punt_latency.count == 1
        assert obs.punt_latency.total == pytest.approx(billed)

    @pytest.mark.parametrize("burst", [False, True])
    def test_every_shed_group_counts_singletons_included(self, burst):
        rig = _PuntRig()
        rig.node.enable_admission_control(
            AdmissionConfig(max_parked=64, punt_rate=1.0, punt_burst=1)
        )
        if burst:
            self._burst(rig, [1, 2, 3])
        else:
            for conn in (1, 2, 3):
                rig.inject(conn=conn)
        guard = rig.terminus.overload
        assert guard.stats.shed_packets == 2
        assert guard.stats.shed_groups == 2
        assert rig.terminus.stats.drops_shed == 2


    def test_shed_followers_exit_through_the_miss_queue_ledger(self):
        """A shed group's would-be followers are offered to the miss queue
        and leave it through its ``shed`` exit, so its ledger balances."""
        rig = _PuntRig()
        rig.node.enable_admission_control(
            AdmissionConfig(max_parked=64, punt_rate=1.0, punt_burst=1)
        )
        self._burst(rig, [1, 2, 2, 2])
        queue = rig.terminus.miss_queue
        assert rig.terminus.overload.stats.shed_groups == 1
        assert rig.terminus.stats.drops_shed == 3
        assert queue.stats.shed == 2
        sanitize.check_ledger(queue.stats, "miss-queue-ledger", live=queue.live)

# -- monitoring regression (mirrors TestSnapshotDropAccounting) ----------


class TestSnapshotOverloadAccounting:
    def test_shed_and_degraded_drops_count_in_snapshot(self):
        node = ServiceNode(Simulator(), "sn", SN_ADDR)
        node.terminus.stats.drops_shed += 2
        node.terminus.stats.drops_degraded += 3
        snap = snapshot_sn(node)
        assert snap.drops == 5

    def test_snapshot_reports_breaker_states(self):
        node = ServiceNode(Simulator(), "sn", SN_ADDR)
        node.set_service_policy(
            VICTIM,
            ServicePolicy(
                breaker=BreakerConfig(
                    min_samples=1, ewma_alpha=1.0, open_jitter=0.0
                )
            ),
        )
        assert snapshot_sn(node).breakers_open == 0
        breaker = node.terminus.overload.breakers[VICTIM]
        breaker.record_timeout(0.0)
        snap = snapshot_sn(node)
        assert snap.breakers_open == 1
        assert snap.breakers_half_open == 0
        breaker.allow(10.0)  # open period elapsed -> half-open probe
        snap = snapshot_sn(node)
        assert snap.breakers_open == 0
        assert snap.breakers_half_open == 1

    def test_snapshot_reports_overload_counters(self):
        node = ServiceNode(Simulator(), "sn", SN_ADDR)
        guard = node.terminus.overload
        guard.stats.shed_packets = 4
        guard.stats.deadline_misses = 2
        node.terminus.stats.punts = 8
        node.cache.install(_key(1), Decision.forward(EGRESS))
        snap = snapshot_sn(node)
        assert snap.shed == 4
        assert snap.deadline_misses == 2
        assert snap.deadline_miss_rate == 0.25
        assert snap.stale_entries == 1

    def test_deadline_miss_rate_is_zero_without_punts(self):
        snap = snapshot_sn(ServiceNode(Simulator(), "sn", SN_ADDR))
        assert snap.deadline_miss_rate == 0.0

    def test_report_rows_carry_overload_columns(self):
        node = ServiceNode(Simulator(), "sn", SN_ADDR)
        node.set_service_policy(
            VICTIM,
            ServicePolicy(
                breaker=BreakerConfig(
                    min_samples=1, ewma_alpha=1.0, open_jitter=0.0
                )
            ),
        )
        node.terminus.overload.breakers[VICTIM].record_timeout(0.0)
        node.terminus.overload.stats.shed_packets = 7
        node.terminus.stats.drops_shed = 7
        report = FederationReport(taken_at=0.0, snapshots=[snapshot_sn(node)])
        (row,) = report.to_rows()
        assert row["shed"] == 7
        assert row["brk!"] == 1
        assert row["drops"] == 7
