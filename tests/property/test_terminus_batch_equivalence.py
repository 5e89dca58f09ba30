"""Property: sharded batch ingress ≡ per-packet ingress, per flow.

``PipeTerminus.receive_batch`` shards a burst into flow groups — every
packet with the same (ingress peer, header plaintext) — and amortizes
decode/lookup/encode/seal across each group. Its contract (module
docstring of :mod:`repro.core.pipe_terminus`) has two strengths, and this
file tests both:

**Flow-contiguous bursts — full observable equality.** When each flow's
packets arrive adjacent (what a flow-local delivery event looks like),
sharding merges nothing across flows and every observable must match
per-packet :meth:`receive` exactly: terminus stats, decision-cache stats
and contents *including LRU order*, per-peer PSP stats, and the
transmitted packets — peers, outer L3, **wire bytes** (so nonce
sequencing is byte-identical), payloads, qos_src, in the same order.

**Arbitrary interleavings — per-flow equality.** Sharding reorders
*across* flows (sound: the PSP-style header crypto is order-independent
per packet — the nonce travels with the packet), but never within one.
For any interleaving, each flow's projected output sequence — opened
header plaintext, payload, qos_src, in order — must equal the scalar
path's, along with all aggregate stats and the decision-cache contents
as a set. When flows forward over *distinct* egress associations, the
per-flow wire bytes themselves must be identical too (each egress
context's nonce sequence then depends on one flow only).

The sequences mix flows (run lengths from 1 to the whole batch), cache
hits and cold groups, CONTROL/LAST barrier punts, offload rules (count,
forward, fall-through), bad auth, unknown peers, unknown services,
malformed headers, and fan-out decisions with TLV rewrites. Fault
variants feed the same sequences through a seeded wire-fault transform
(drops, duplicates, auth-tag corruption — the shapes a lossy or hostile
pipe produces) before both rigs see them: equivalence must hold, stats
included, for whatever actually arrives.

The batched rig's cold groups take the **coalesced miss path** (lead
punt + miss-queue drain, spans batched through ``invoke_batch`` — see
the terminus module docstring), so these properties also pin down its
equivalence: identical punt counts, invocation counts, installs, and
per-flow emissions whether the slow path runs per-packet or coalesced.
The cold-storm properties below drive that path directly — all-miss
interleaved bursts, installing and non-installing services mixed — and
additionally assert the miss-queue ledger balances (every parked packet
drained or replayed, none live after the burst).
"""

from __future__ import annotations

import random
import struct
from dataclasses import asdict
from typing import Any

from hypothesis import given, settings, strategies as st

from repro.core.decision_cache import (
    Action,
    CacheKey,
    Decision,
    ForwardTarget,
)
from repro.core.ilp import Flags, ILPHeader, TLV
from repro.core.offload import ActionKind, Match, MatchField, OffloadAction
from repro.core.packet import ILPPacket, L3Header, make_payload
from repro.core.psp import PSPContext, pairwise_secret
from repro.core.service_module import ServiceModule, Verdict
from repro.core.service_node import ServiceNode
from repro.netsim import Simulator

SN_ADDR = "10.0.0.1"
PEER_A = "10.0.0.2"
PEER_B = "10.0.0.3"
UNKNOWN_PEER = "9.9.9.9"
OFFLOAD_SERVICE = 43  # has offload rules, no module
MISSING_SERVICE = 44  # neither module nor offload program


class _DeterministicService(ServiceModule):
    """Slow-path behavior keyed off the connection ID, fully deterministic."""

    SERVICE_ID = 42
    NAME = "deterministic"

    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        conn = header.connection_id
        mode = conn % 4
        if mode == 0:
            return Verdict.drop()
        if mode == 1:
            # Install + emit: the rest of the run becomes a fast-path hit.
            verdict = Verdict.forward(PEER_B, header, packet.payload)
            verdict.installs.append(
                (
                    CacheKey(packet.l3.src, self.SERVICE_ID, conn),
                    Decision.forward(PEER_B),
                )
            )
            return verdict
        if mode == 2:
            # Emit without installing: every packet of the flow punts.
            return Verdict.forward(PEER_B, header, packet.payload)
        # mode == 3: install a fan-out decision with a TLV rewrite.
        verdict = Verdict(dropped=True)
        verdict.installs.append(
            (
                CacheKey(packet.l3.src, self.SERVICE_ID, conn),
                Decision(
                    action=Action.FORWARD,
                    targets=(
                        ForwardTarget(PEER_B),
                        ForwardTarget(
                            PEER_A, tlv_updates=((TLV.DEST_SN, b"10.0.9.9"),)
                        ),
                    ),
                ),
            )
        )
        return verdict

    def handle_control(self, header: ILPHeader, packet: Any) -> Verdict:
        return Verdict.drop()


class _Rig:
    """One SN whose terminus transmits into a recording sink."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.node = ServiceNode(self.sim, "sn", SN_ADDR)
        self.terminus = self.node.terminus
        self.sent: list[tuple] = []
        self.terminus.set_transmit(self._sink)
        self.tx: dict[str, PSPContext] = {}
        for peer in (PEER_A, PEER_B):
            secret = pairwise_secret(SN_ADDR, peer)
            self.node.keystore.establish(peer, secret)
            self.tx[peer] = PSPContext(secret)
        self.node.env.load(_DeterministicService())
        offload = self.terminus.offload
        offload.install_rule(
            OFFLOAD_SERVICE,
            (),
            OffloadAction(ActionKind.COUNT, "seen"),
        )
        offload.install_rule(
            OFFLOAD_SERVICE,
            (Match(MatchField.PAYLOAD_LEN_GT, 12),),
            OffloadAction(ActionKind.FORWARD, PEER_B),
        )

    def _sink(self, peer: str, pkts: list[ILPPacket]) -> int:
        self.sent.extend(
            (
                peer,
                pkt.l3.src,
                pkt.l3.dst,
                pkt.ilp_wire,
                pkt.payload.l4,
                pkt.payload.data,
                pkt.qos_src,
                pkt.created_at,
            )
            for pkt in pkts
        )
        return len(pkts)

    def build_packet(self, spec: dict) -> ILPPacket:
        kind = spec["kind"]
        peer = spec["peer"]
        tlvs = {}
        if spec["src_host"]:
            tlvs[TLV.SRC_HOST] = b"192.168.0.12"
        if spec["seq"] is not None:
            tlvs[TLV.SEQUENCE] = struct.pack(">Q", spec["seq"])
        header = ILPHeader(spec["service_id"], spec["conn"], spec["flags"], tlvs)
        plaintext = b"\x01\x02" if kind == "malformed" else header.encode()
        wire = self.tx[peer].seal(plaintext)
        if kind == "badauth":
            wire = wire[:-1] + bytes([wire[-1] ^ 0x01])
        l3_src = UNKNOWN_PEER if kind == "unknown_peer" else peer
        return ILPPacket(
            l3=L3Header(src=l3_src, dst=SN_ADDR),
            ilp_wire=wire,
            payload=make_payload(b"y" * spec["payload_len"]),
        )

    def observable_state(self) -> dict:
        cache = self.terminus.cache
        return {
            "terminus": asdict(self.terminus.stats),
            "cache_stats": asdict(cache.stats),
            "cache_entries": cache.snapshot_entries(),
            "psp": {
                peer: asdict(ctx.stats)
                for peer, ctx in self.node.keystore.contexts.items()
            },
            "offload_stats": self.terminus.offload.stats(),
            "sent": self.sent,
        }


_spec = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(
            [
                "data",
                "data",
                "data",  # weight toward runnable data packets
                "control",
                "last",
                "badauth",
                "unknown_peer",
                "malformed",
            ]
        ),
        "peer": st.sampled_from([PEER_A, PEER_B]),
        "service_id": st.sampled_from(
            [42, 42, 42, OFFLOAD_SERVICE, MISSING_SERVICE]
        ),
        "conn": st.integers(min_value=0, max_value=5),
        "payload_len": st.sampled_from([0, 8, 40]),
        "src_host": st.booleans(),
        # None keeps plaintexts identical within a flow (long runs); a
        # varying sequence TLV fragments runs down to length 1.
        "seq": st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
    }
).map(
    lambda s: {
        **s,
        "flags": Flags.CONTROL
        if s["kind"] == "control"
        else (Flags.LAST if s["kind"] == "last" else Flags.NONE),
    }
)

# Duplicate each drawn spec a few times so consecutive identical packets
# (the flow-run shape) actually occur instead of relying on collisions.
_spec_burst = st.tuples(_spec, st.integers(min_value=1, max_value=6)).map(
    lambda pair: [pair[0]] * pair[1]
)


_spec_list = st.lists(_spec_burst, min_size=0, max_size=12).map(
    lambda bursts: [spec for burst in bursts for spec in burst]
)


def apply_wire_faults(specs: list[dict], seed: int) -> list[dict]:
    """A seeded model of what a faulty pipe does to a packet sequence.

    Per packet: ~15% dropped in flight, ~10% arrive with a corrupted auth
    tag, ~15% arrive duplicated (loss-triggered retransmit racing the
    original). Deterministic in ``seed`` so both rigs — and any replay —
    see the identical arrival sequence.
    """
    rng = random.Random(seed)
    arrived: list[dict] = []
    for spec in specs:
        roll = rng.random()
        if roll < 0.15:
            continue
        if roll < 0.25 and spec["kind"] != "malformed":
            spec = {**spec, "kind": "badauth"}
        arrived.append(spec)
        if roll > 0.85:
            arrived.append(spec)
    return arrived


def _flow_sort(specs: list[dict]) -> list[dict]:
    """Stable-sort a sequence flow-contiguous.

    Sorts by every field that shapes the header plaintext (plus the
    ingress peer and kind), so each (peer, plaintext) flow's packets end
    up adjacent while their relative order — and therefore their payload
    sequence — is preserved. On such input the sharding stage merges
    nothing across flows, which is what makes full observable equality
    (LRU order and global emit order included) attainable.
    """
    return sorted(
        specs,
        key=lambda s: (
            s["peer"],
            s["kind"],
            s["service_id"],
            s["conn"],
            s["flags"],
            s["src_host"],
            -1 if s["seq"] is None else s["seq"],
        ),
    )


def _drive(specs: list[dict], rig_factory=None) -> tuple["_Rig", "_Rig"]:
    rig_factory = rig_factory or _Rig
    rig_scalar, rig_batch = rig_factory(), rig_factory()
    scalar_packets = [rig_scalar.build_packet(s) for s in specs]
    batch_packets = [rig_batch.build_packet(s) for s in specs]
    for packet in scalar_packets:
        rig_scalar.terminus.receive(packet)
    assert rig_batch.terminus.receive_batch(batch_packets) == len(specs)
    return rig_scalar, rig_batch


def _assert_batch_equals_scalar(specs: list[dict]) -> None:
    rig_scalar, rig_batch = _drive(specs)
    assert rig_batch.observable_state() == rig_scalar.observable_state()


def _per_flow_projection(rig: _Rig) -> dict:
    """``rig.sent`` regrouped by flow, order within each flow preserved.

    A flow on egress is keyed by (egress peer, opened header plaintext):
    the terminus never rewrites a header differently for two packets of
    one flow group, and the test strategies make that key injective over
    ingress flows. Wire bytes are deliberately opened away — nonce
    positions on a shared egress association are global-order-dependent,
    which per-flow equivalence does not promise.
    """
    openers = {
        peer: PSPContext(pairwise_secret(SN_ADDR, peer))
        for peer in (PEER_A, PEER_B)
    }
    flows: dict[tuple, list[tuple]] = {}
    for peer, l3s, l3d, wire, l4, data, qos_src, created in rig.sent:
        plain = openers[peer].open(wire)
        flows.setdefault((peer, plain), []).append(
            (l3s, l3d, plain, l4, data, qos_src, created)
        )
    return flows


def _relaxed_state(rig: _Rig) -> dict:
    """Observable state minus the two globally-ordered artifacts.

    Cross-flow reordering legitimately permutes the LRU order of the
    decision cache and the global emit sequence; everything else —
    every stats counter, the cache contents as a set (entries, hit
    counts, timestamps), PSP and offload counters — must still match
    exactly.
    """
    state = rig.observable_state()
    state["cache_entries"] = sorted(
        state["cache_entries"],
        key=lambda row: (row[0].src, row[0].service_id, row[0].connection_id),
    )
    del state["sent"]
    return state


def _assert_per_flow_equivalent(specs: list[dict]) -> None:
    rig_scalar, rig_batch = _drive(specs)
    assert _per_flow_projection(rig_batch) == _per_flow_projection(rig_scalar)
    assert _relaxed_state(rig_batch) == _relaxed_state(rig_scalar)


@settings(max_examples=60, deadline=None)
@given(_spec_list)
def test_flow_contiguous_batch_equals_per_packet(specs):
    """Flow-contiguous bursts: every observable matches, byte for byte."""
    _assert_batch_equals_scalar(_flow_sort(specs))


@settings(max_examples=40, deadline=None)
@given(_spec_list, st.integers(min_value=0, max_value=2**32 - 1))
def test_flow_contiguous_batch_equals_per_packet_under_faults(specs, seed):
    """Drops, duplicates, and corrupted frames keep the paths identical.

    Duplicates stress group coalescing (a duplicated packet extends its
    flow group), corruption stresses the mid-group auth-failure bailout,
    and drops reshuffle group boundaries — none may cause the batched
    path to diverge from per-packet processing in any observable. Faults
    preserve flow contiguity (drops remove, duplicates append adjacent,
    corruption mutates in place), so the full-equality contract applies.
    """
    _assert_batch_equals_scalar(apply_wire_faults(_flow_sort(specs), seed))


# For the arbitrary-interleaving properties the ingress peer is derived
# from the connection ID, making (egress peer, opened plaintext) an
# injective flow key — without this, two ingress flows with identical
# plaintext on different pipes would alias in the projection.
_ispec_list = _spec_list.map(
    lambda specs: [
        {**s, "peer": PEER_A if s["conn"] % 2 == 0 else PEER_B}
        for s in specs
    ]
)


@settings(max_examples=60, deadline=None)
@given(_ispec_list)
def test_interleaved_batch_preserves_per_flow_output(specs):
    """Arbitrary interleavings: per-flow output and aggregate state match.

    This is the sharding stage's reason to exist — run lengths of 1 —
    and its contract: each flow's opened output sequence is identical to
    scalar processing, stats agree exactly, and only globally-ordered
    artifacts (LRU order, cross-flow emit interleaving) may differ.
    """
    _assert_per_flow_equivalent(specs)


@settings(max_examples=40, deadline=None)
@given(_ispec_list, st.integers(min_value=0, max_value=2**32 - 1))
def test_interleaved_batch_preserves_per_flow_output_under_faults(specs, seed):
    """Per-flow equivalence survives seeded drops/dups/corruption."""
    _assert_per_flow_equivalent(apply_wire_faults(specs, seed))


# -- cold storms: the coalesced miss path ---------------------------------

# All-miss material: data packets only, caches start empty, connection IDs
# cover every verdict mode of _DeterministicService (install+emit,
# emit-no-install, drop, fan-out install) plus offload-programmed and
# missing services — i.e. every branch of the cold-span planner.
_storm_spec_list = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),
        st.sampled_from([42, 42, 42, OFFLOAD_SERVICE, MISSING_SERVICE]),
        st.sampled_from([0, 8, 40]),
        st.booleans(),
    ),
    min_size=0,
    max_size=64,
).map(
    lambda rows: [
        {
            "kind": "data",
            "peer": PEER_A if conn % 2 == 0 else PEER_B,
            "service_id": service_id,
            "conn": conn,
            "payload_len": payload_len,
            "src_host": src_host,
            "seq": None,
            "flags": Flags.NONE,
        }
        for conn, service_id, payload_len, src_host in rows
    ]
)


def _assert_storm_equivalent(specs: list[dict], rig_factory=None) -> None:
    rig_scalar, rig_batch = _drive(specs, rig_factory)
    assert _per_flow_projection(rig_batch) == _per_flow_projection(rig_scalar)
    assert _relaxed_state(rig_batch) == _relaxed_state(rig_scalar)
    # Coalescing must not change how much slow-path traffic the services
    # see: same punt count (also covered by _relaxed_state) and the same
    # number of invocations crossing the channel, however they are framed.
    scalar_ch, batch_ch = (
        rig_scalar.terminus.channel.stats,
        rig_batch.terminus.channel.stats,
    )
    assert batch_ch.invocations == scalar_ch.invocations
    # Miss-queue ledger: every parked packet left through exactly one
    # exit, and none is still parked after the burst.
    queue = rig_batch.terminus.miss_queue
    assert queue.live == 0
    mq = queue.stats
    assert mq.parked == mq.drained_fast + mq.replayed + mq.dropped
    # The scalar rig never parks anything.
    assert rig_scalar.terminus.miss_queue.stats.parked == 0


@settings(max_examples=60, deadline=None)
@given(_storm_spec_list)
def test_cold_storm_coalesced_miss_path_is_equivalent(specs):
    """All-miss interleaved bursts: coalesced punts ≡ per-packet punts.

    Installing flows punt once and drain their followers off the fresh
    install; non-installing/missing-service flows fall back to per-packet
    replay — either way every per-flow observable, every stats counter,
    and the total invocation count must equal the scalar slow path.
    """
    _assert_storm_equivalent(specs)


@settings(max_examples=40, deadline=None)
@given(_storm_spec_list, st.integers(min_value=0, max_value=2**32 - 1))
def test_cold_storm_equivalence_under_faults(specs, seed):
    """Seeded drops/dups/corruption cannot desynchronize the miss path."""
    _assert_storm_equivalent(apply_wire_faults(specs, seed))


# -- distinct egress associations: byte-identical wire output ------------

EGRESS_PEERS = tuple(f"10.0.1.{i + 1}" for i in range(6))


class _FanRig(_Rig):
    """A rig whose six data flows forward over six *distinct* pipes.

    One pre-installed decision per (ingress peer, conn) maps connection
    ``i`` to egress peer ``EGRESS_PEERS[i]``; with the ingress peer also
    derived from the conn, each egress association carries exactly one
    flow, so its nonce sequence depends on that flow alone and the wire
    bytes themselves must match the scalar path.
    """

    def __init__(self) -> None:
        super().__init__()
        for peer in EGRESS_PEERS:
            self.node.keystore.establish(peer, pairwise_secret(SN_ADDR, peer))
        for ingress in (PEER_A, PEER_B):
            for conn, egress in enumerate(EGRESS_PEERS):
                self.terminus.cache.install(
                    CacheKey(ingress, _DeterministicService.SERVICE_ID, conn),
                    Decision.forward(egress),
                    now=0.0,
                )


_fan_spec_list = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.sampled_from([0, 8, 40]),
        st.booleans(),
    ),
    min_size=0,
    max_size=48,
).map(
    lambda rows: [
        {
            "kind": "badauth" if corrupt else "data",
            "peer": PEER_A if conn % 2 == 0 else PEER_B,
            "service_id": _DeterministicService.SERVICE_ID,
            "conn": conn,
            "payload_len": payload_len,
            "src_host": False,
            "seq": None,
            "flags": Flags.NONE,
        }
        for conn, payload_len, corrupt in rows
    ]
)


@settings(max_examples=60, deadline=None)
@given(_fan_spec_list, st.integers(min_value=0, max_value=2**32 - 1))
def test_interleaved_flows_on_distinct_pipes_are_byte_identical(specs, seed):
    """Distinct egress associations: per-flow WIRE bytes match exactly.

    Six flows, one egress pipe each, arbitrarily interleaved (plus
    seeded drops/dups/corruption): grouping by egress peer recovers each
    flow's full transmit sequence, which must equal the scalar path's
    tuple-for-tuple — sealed wire bytes included, proving the gather
    egress consumes each association's nonces in exactly the per-packet
    order.
    """
    rig_scalar, rig_batch = _drive(apply_wire_faults(specs, seed), _FanRig)

    def by_egress(rig: _Rig) -> dict[str, list[tuple]]:
        out: dict[str, list[tuple]] = {}
        for row in rig.sent:
            out.setdefault(row[0], []).append(row)
        return out

    assert by_egress(rig_batch) == by_egress(rig_scalar)
    assert _relaxed_state(rig_batch) == _relaxed_state(rig_scalar)
