"""Property: overload protection is invisible to healthy flows.

One hung service behind a :class:`~repro.core.overload.ServicePolicy` —
slow-path deadline, circuit breaker, degradation mode, optionally
admission control — must not change one observable byte of what the
*healthy* warm flows transmit. Six established flows forward over six
distinct egress associations (the :class:`_FanRig` layout, so each
egress nonce sequence depends on one flow alone); victim punts to the
hung service are interleaved arbitrarily between them, through both the
scalar and the batched ingress paths, with seeded wire faults applied
to the healthy traffic. For every degradation mode the per-egress
transmit sequences of the healthy flows — wire bytes included — must
equal a rig that never saw the victim traffic at all.

The same scenarios pin down the overload layer's own ledgers: the
miss-queue conservation ledger balances with the shed exit included,
nothing stays parked after a burst, the stale shelf respects its bound,
fail-open degradation reaches only its dedicated peer, and fail-static
misses fall through to fail-closed exactly once per victim data packet.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.ilp import Flags
from repro.core.overload import (
    AdmissionConfig,
    BreakerConfig,
    DegradeMode,
    ServicePolicy,
)
from repro.core.psp import pairwise_secret
from repro.core.service_module import ServiceModule, Verdict
from tests.property.test_terminus_batch_equivalence import (
    EGRESS_PEERS,
    PEER_A,
    PEER_B,
    SN_ADDR,
    _FanRig,
    _fan_spec_list,
    apply_wire_faults,
)

VICTIM_SERVICE = 77
DEGRADE_PEER = "10.0.2.1"


class _VictimService(ServiceModule):
    """Loaded but hung for the whole scenario: every punt times out."""

    SERVICE_ID = VICTIM_SERVICE
    NAME = "victim"

    def handle_packet(self, header, packet):  # pragma: no cover — hung
        return Verdict.drop()

    def handle_control(self, header, packet):  # pragma: no cover — hung
        return Verdict.drop()


class _OverloadRig(_FanRig):
    """The fan rig plus a hung victim service under an overload policy."""

    degrade = DegradeMode.FAIL_CLOSED
    admission: "AdmissionConfig | None" = None

    def __init__(self) -> None:
        super().__init__()
        self.node.keystore.establish(
            DEGRADE_PEER, pairwise_secret(SN_ADDR, DEGRADE_PEER)
        )
        self.node.env.load(_VictimService())
        self.node.env.inject_hang(VICTIM_SERVICE)
        self.node.set_service_policy(
            VICTIM_SERVICE,
            ServicePolicy(
                deadline=1e-3,
                degrade=self.degrade,
                fail_open_peer=(
                    DEGRADE_PEER
                    if self.degrade is DegradeMode.FAIL_OPEN
                    else None
                ),
                # A tight breaker so scenarios exercise both the invoking
                # (timeout) and the short-circuiting (open) paths.
                breaker=BreakerConfig(min_samples=3, open_duration=10.0),
            ),
        )
        if self.admission is not None:
            self.node.enable_admission_control(self.admission)


class _ClosedRig(_OverloadRig):
    degrade = DegradeMode.FAIL_CLOSED


class _OpenRig(_OverloadRig):
    degrade = DegradeMode.FAIL_OPEN


class _StaticRig(_OverloadRig):
    """FAIL_STATIC with an empty stale shelf: every miss falls closed."""

    degrade = DegradeMode.FAIL_STATIC


class _ShedRig(_OverloadRig):
    """Admission control tight enough to shed most victim cold work."""

    degrade = DegradeMode.FAIL_CLOSED
    admission = AdmissionConfig(max_parked=2, punt_rate=1.0, punt_burst=2)


# Victim traffic: cold data runs plus CONTROL/LAST barrier frames aimed
# at the hung service. Runs (repeat counts) make coalesced cold groups —
# lead punt plus parked followers — actually occur.
_victim_spec_list = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.sampled_from(["data", "data", "data", "control", "last"]),
        st.sampled_from([0, 8, 40]),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=0,
    max_size=10,
).map(
    lambda rows: [
        {
            "kind": kind,
            "peer": PEER_A if conn % 2 == 0 else PEER_B,
            "service_id": VICTIM_SERVICE,
            "conn": conn,
            "payload_len": payload_len,
            "src_host": False,
            "seq": None,
            "flags": Flags.CONTROL
            if kind == "control"
            else (Flags.LAST if kind == "last" else Flags.NONE),
        }
        for conn, kind, payload_len, run in rows
        for _ in range(run)
    ]
)


def _interleave(healthy: list, victim: list, seed: int) -> list:
    """Insert victim specs at seeded positions among the healthy ones.

    Wire faults are applied to the healthy sequence *before* this, so the
    attack rig and the clean rig see byte-identical healthy arrivals and
    only the victim insertions differ.
    """
    rng = random.Random(seed ^ 0x5EED)
    out = list(healthy)
    for spec in victim:
        out.insert(rng.randint(0, len(out)), spec)
    return out


def _drive_overload(healthy, victim, seed, rig_cls, batched):
    arrived = apply_wire_faults(healthy, seed)
    combined = _interleave(arrived, victim, seed)
    attack, clean = rig_cls(), _FanRig()
    attack_packets = [attack.build_packet(s) for s in combined]
    clean_packets = [clean.build_packet(s) for s in arrived]
    if batched:
        assert attack.terminus.receive_batch(attack_packets) == len(combined)
        clean.terminus.receive_batch(clean_packets)
    else:
        for packet in attack_packets:
            attack.terminus.receive(packet)
        for packet in clean_packets:
            clean.terminus.receive(packet)
    return attack, clean, combined


def _healthy_egress(rig) -> dict[str, list[tuple]]:
    out: dict[str, list[tuple]] = {}
    for row in rig.sent:
        if row[0] in EGRESS_PEERS:
            out.setdefault(row[0], []).append(row)
    return out


def _assert_invisible(attack, clean, allow_degrade_peer: bool) -> None:
    # Healthy flows: byte-identical per-egress transmit sequences.
    assert _healthy_egress(attack) == _healthy_egress(clean)
    # Victim traffic may reach only its dedicated degrade peer, never a
    # healthy egress association (that would desync its nonce stream).
    extra = {row[0] for row in attack.sent} - set(EGRESS_PEERS)
    if allow_degrade_peer:
        assert extra <= {DEGRADE_PEER}
    else:
        assert not extra
    # Bounded memory: nothing parked after the burst, shelf within cap.
    queue = attack.terminus.miss_queue
    assert queue.live == 0
    mq = queue.stats
    assert mq.offered == (
        mq.drained_fast
        + mq.replayed
        + mq.shed
        + mq.dropped
        + queue.live
    )
    assert mq.parked == mq.drained_fast + mq.replayed + mq.dropped + queue.live
    cache = attack.terminus.cache
    assert cache.stale_count <= cache.stale_capacity


def _victim_data_count(combined) -> int:
    return sum(
        1
        for s in combined
        if s["service_id"] == VICTIM_SERVICE and s["kind"] == "data"
    )


@settings(max_examples=40, deadline=None)
@given(
    _fan_spec_list,
    _victim_spec_list,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
def test_hung_service_fail_closed_is_invisible_to_healthy_flows(
    healthy, victim, seed, batched
):
    """Deadline misses, breaker trips, and fail-closed drops leave the
    healthy flows' wire output untouched, and every victim data packet is
    accounted a drop (degraded or shed), never silently lost."""
    attack, clean, combined = _drive_overload(
        healthy, victim, seed, _ClosedRig, batched
    )
    _assert_invisible(attack, clean, allow_degrade_peer=False)
    stats = attack.terminus.stats
    guard = attack.terminus.overload
    assert stats.drops_degraded == guard.stats.degraded_closed
    # Terminal accounting: every victim data packet degraded exactly once
    # (timeout or breaker short-circuit — barriers fail closed separately).
    assert guard.stats.degraded_closed >= _victim_data_count(combined)


@settings(max_examples=30, deadline=None)
@given(
    _fan_spec_list,
    _victim_spec_list,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
def test_fail_open_degrades_only_to_its_dedicated_peer(
    healthy, victim, seed, batched
):
    """FAIL_OPEN forwards victim data unmodified to the configured peer —
    and nowhere else; barrier frames still fail closed."""
    attack, clean, combined = _drive_overload(
        healthy, victim, seed, _OpenRig, batched
    )
    _assert_invisible(attack, clean, allow_degrade_peer=True)
    guard = attack.terminus.overload
    degraded = [row for row in attack.sent if row[0] == DEGRADE_PEER]
    assert len(degraded) == guard.stats.degraded_open
    assert guard.stats.degraded_open == _victim_data_count(combined)
    # Payload passes through unmodified on the fail-open path.
    victim_payloads = sorted(
        b"y" * s["payload_len"]
        for s in combined
        if s["service_id"] == VICTIM_SERVICE and s["kind"] == "data"
    )
    assert sorted(row[5] for row in degraded) == victim_payloads


@settings(max_examples=30, deadline=None)
@given(
    _fan_spec_list,
    _victim_spec_list,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
def test_fail_static_with_empty_shelf_falls_closed(
    healthy, victim, seed, batched
):
    """FAIL_STATIC consults the stale shelf once per degraded data packet;
    an empty shelf means every consult misses and the packet fails closed."""
    attack, clean, combined = _drive_overload(
        healthy, victim, seed, _StaticRig, batched
    )
    _assert_invisible(attack, clean, allow_degrade_peer=False)
    guard = attack.terminus.overload
    barriers = sum(
        1
        for s in combined
        if s["service_id"] == VICTIM_SERVICE and s["kind"] in ("control", "last")
    )
    assert guard.stats.static_misses == _victim_data_count(combined)
    assert guard.stats.degraded_static == 0
    # Data packets fall closed through the shelf miss; barrier frames skip
    # the mode entirely and fail closed directly.
    assert guard.stats.degraded_closed == guard.stats.static_misses + barriers


@settings(max_examples=30, deadline=None)
@given(
    _fan_spec_list,
    _victim_spec_list,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
def test_admission_shedding_never_touches_healthy_or_barrier_traffic(
    healthy, victim, seed, batched
):
    """With admission armed tight, victim cold work is shed — but healthy
    established flows and victim barrier frames are exempt, and the shed
    exit balances in both the guard ledger and the terminus drop counter."""
    attack, clean, combined = _drive_overload(
        healthy, victim, seed, _ShedRig, batched
    )
    _assert_invisible(attack, clean, allow_degrade_peer=False)
    guard = attack.terminus.overload
    stats = attack.terminus.stats
    assert stats.drops_shed == guard.stats.shed_packets
    # Shed + degraded together account for every victim data packet.
    assert (
        guard.stats.shed_packets + guard.stats.degraded_closed
        >= _victim_data_count(combined)
    )
    # Healthy warm flows never enter the miss path, so nothing healthy was
    # shed: the clean rig transmits exactly as many healthy packets.
    assert len(_healthy_egress(attack)) == len(_healthy_egress(clean))
