"""The pipe-terminus: an SN's fast path (Figure 2).

Every packet entering an SN hits the pipe-terminus, which:

1. decrypts the ILP header using the PSP context keyed by the packet's
   outer L3 source;
2. queries the decision cache on (L3 src, service ID, connection ID);
3. on a hit, seals a (possibly TLV-rewritten) header per forwarding target
   and transmits — multiple targets each get a copy;
4. on a miss, punts the decrypted header + packet to the service module
   over the invocation channel; the module's verdict may install cache
   entries and emit packets, which the terminus seals and sends.

The terminus is deliberately free of service logic; it is the part the
paper expects to land in switch ASICs eventually (Appendix B.1).

Flow-run batching and burst sharding
------------------------------------

:meth:`PipeTerminus.receive_batch` processes a burst the way the paper's
ASIC terminus would pipeline it: one decrypt pass over the burst
(:meth:`~repro.core.psp.PSPContext.open_batch` per same-peer span), then
consecutive packets carrying the *same* plaintext header from the same
peer form a **flow run** that shares one decode, one decision-cache
probe, one header encode, and a schedule-hoisted seal.

On top of the runs sits the **burst-sharding stage** (software RSS/GRO):
runs from the same flow — identical (peer, header plaintext) — that are
*not* adjacent in the burst are merged into one **flow group**, so a
fully interleaved burst (run length 1) regains the amortization a
flow-local burst gets for free. Groups are looked up in one
:meth:`~repro.core.decision_cache.DecisionCache.lookup_many` pass and
their egress is coalesced per next hop
(:meth:`send_gather` → :meth:`~repro.core.psp.PSPContext.seal_gather`).

Reordering discipline. Sharding regroups packets *across* flows but
never within one: a flow's packets stay in arrival order through decode,
decision, seal, and transmit, so every per-flow observable — the
sequence of forwarded headers, payloads, and QoS annotations, and (when
flows do not share an egress association) the exact wire bytes — is
identical to per-packet :meth:`receive`. This is sound because ILP's
PSP-style header crypto is explicitly order-independent per packet (§4:
the nonce travels with the packet; receivers impose no inter-packet
state), so cross-flow delivery order within one burst is not part of
wire semantics — the same liberty a multi-queue NIC takes when RSS
steers flows to different queues. Packets whose header sets a
``SLOW_PATH`` flag (CONTROL/LAST) act as **barriers**: everything that
arrived before one is processed before it, everything after it, after —
teardown and control ordering is preserved exactly, and such packets
still punt individually with a fresh header each (services may retain
or mutate what they are handed).

Miss coalescing and batched punts
---------------------------------

Cold groups (cache miss) take a **coalesced slow path** instead of
replaying per-packet: only the group's *lead* packet punts; the
followers park in a bounded per-flow :class:`MissQueue` and, once the
verdict installs a decision, drain through the freshly installed fast
path using the same batch machinery a warm group uses (one
``lookup_run`` charge, one :meth:`_apply_decision_run` egress). If the
verdict installs nothing — emit-only services, drops without installs,
service errors, missing services — the parked packets replay through
the per-packet slow path exactly as before, so the coalesced path is
observably equivalent to per-packet processing by construction.
Consecutive cold groups form a **cold span** whose distinct lead punts
cross the service boundary in one
:meth:`~repro.core.ipc.InvocationChannel.invoke_batch` round trip
(OVS-style upcall batching): a cold-flow storm — flash crowd, post-crash
cache wipe, membership churn — costs one boundary crossing per span
plus one punt per flow, not one marshal round trip per packet, so the
miss path can no longer collapse the node to per-packet throughput.
Groups whose service has an offload program still replay per-packet
(offload rules and meters are consulted per packet by contract), and
``SLOW_PATH`` barriers still punt individually and flush spans like any
other group.

Like the ASIC pipeline it models, the batched path assumes a slow-path
verdict within a burst does not retire the PSP association of packets
already in flight, and that verdicts only mutate their *own*
connection's fast-path state (cross-flow installs/invalidations take
effect at the next delivery event, exactly as they would across the
boundary of a hardware pipeline stage). Cross-flow *punt* order within
a burst follows span order rather than arrival order — the same liberty
the sharding stage already takes when it regroups interleaved arrivals
— while each flow's punts always reach its service in arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from .. import sanitize as _san
from ..obs.recorder import NULL_RECORDER
from .decision_cache import Action, CacheKey, Decision, DecisionCache
from .execution_env import PuntTimeout
from .ilp import FLAGS_WIRE_OFFSET, Flags, ILPError, ILPHeader, TLV
from .ipc import CostModel, InvocationChannel, InvocationMode
from .offload import ActionKind, TerminusOffloadEngine
from .overload import DegradeMode, OverloadGuard, ServicePolicy
from .packet import ILPPacket, L3Header, Payload
from .psp import PSPContext, PSPError, PeerKeyStore
from .service_module import ServiceError, ServiceTimeout, Verdict

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import NodeObs
    from ..obs.recorder import FlightRecorder, NullRecorder, Span
    from .execution_env import ExecutionEnvironment

#: Sentinel for "caller did not precompute qos_src" (None is a valid value).
_QOS_UNSET = object()

#: Cold-span plan modes (see :meth:`PipeTerminus._process_cold_span`).
_COLD_REPLAY = 0  # offload-programmed service: per-packet replay
_COLD_DRAIN = 1  # dup/revived cache key: drain off the span's installs
_COLD_LEAD = 2  # true cold flow: lead punts, followers park
_COLD_SHED = 3  # admission control refused the group: whole run dropped


def _san_check_header_wire(header: ILPHeader, wire: bytes) -> None:
    """Armed check: the wire form must equal a from-scratch re-encode.

    Catches a stale encode() memo (or a caller-passed ``encoded`` that has
    drifted from the header object) before the bytes are sealed for a peer.
    """
    fresh = ILPHeader(
        service_id=header.service_id,
        connection_id=header.connection_id,
        flags=header.flags,
        tlvs=dict(header.tlvs),
    ).encode()
    if fresh != wire:
        _san.fail(
            "header-reencode",
            f"wire form ({len(wire)}B) diverges from field re-encode "
            f"({len(fresh)}B) for service {header.service_id} "
            f"connection {header.connection_id}",
        )


@dataclass(slots=True)
class ShardStats:
    """Burst-sharding stage counters.

    Kept separate from :class:`TerminusStats` so the per-packet/batched
    stats-equality contract is untouched: sharding is an internal
    scheduling choice, not a packet outcome.
    """

    bursts: int = 0
    segments: int = 0
    groups: int = 0
    merged_runs: int = 0
    gathered_packets: int = 0
    barrier_flushes: int = 0
    cold_spans: int = 0
    cold_groups: int = 0


@dataclass(slots=True)
class MissQueueStats:
    """Miss-queue ledger.

    ``offered`` counts every packet the miss path was asked to absorb —
    parked followers, spill overflow, and packets shed by admission
    control before parking. Each leaves through exactly one exit:
    ``drained_fast`` (verdict installed, drained through the fast path),
    ``replayed`` (no install, replayed per-packet through the slow path),
    ``spilled`` (per-flow bound hit: went straight to per-packet replay),
    ``shed`` (refused by the overload detector), or ``dropped`` (queue
    discarded on node crash) — so
    ``offered == drained_fast + replayed + spilled + shed + dropped +
    live`` at all times (the armed conservation ledger). ``parked``
    keeps its physical meaning: packets that actually entered the queue,
    so ``parked == drained_fast + replayed + dropped + live`` holds too.
    """

    offered: int = 0
    parked: int = 0
    drained_fast: int = 0
    replayed: int = 0
    spilled: int = 0
    shed: int = 0
    dropped: int = 0


class MissQueue:
    """Bounded per-flow parking for a cold group's follower packets.

    While a flow's lead packet is punted, its followers wait here instead
    of punting too (miss coalescing). Each flow may park at most ``limit``
    packets; overflow **spills** — the excess is returned to the caller
    for ordinary per-packet processing, never silently dropped, so the
    bound degrades throughput rather than correctness. ``SLOW_PATH``
    barriers never park (they punt individually by contract). On node
    crash the queue is discarded wholesale and every live packet is
    accounted as ``dropped`` — parked packets are in-flight datapath
    state, not durable state, exactly like packets sitting in a real
    NIC ring at power loss.
    """

    __slots__ = ("limit", "_flows", "_live", "stats")

    def __init__(self, limit: int = 512) -> None:
        self.limit = limit
        self._flows: dict[tuple[str, bytes], list[ILPPacket]] = {}
        self._live = 0
        self.stats = MissQueueStats()

    @property
    def live(self) -> int:
        """Packets currently parked across all flows."""
        return self._live

    def park(
        self, flow: tuple[str, bytes], packets: list[ILPPacket]
    ) -> list[ILPPacket]:
        """Park up to the per-flow bound; return the spill (may be empty).

        A flow gets an entry only once a packet actually parks: a lead
        without followers (``packets`` empty) has nothing for ``drain`` to
        pop later, so it must leave nothing behind.
        """
        if not packets:
            return packets
        self.stats.offered += len(packets)
        queue = self._flows.get(flow)
        room = self.limit - (len(queue) if queue is not None else 0)
        if room <= 0:
            self.stats.spilled += len(packets)
            return packets
        take, spill = packets[:room], packets[room:]
        if queue is None:
            self._flows[flow] = take
        else:
            queue.extend(take)
        self._live += len(take)
        self.stats.parked += len(take)
        self.stats.spilled += len(spill)
        return spill

    def shed(self, count: int) -> None:
        """Account ``count`` would-be followers refused by admission control.

        They were offered to the miss path but the overload detector shed
        them before they parked — the ledger still balances because
        ``shed`` is a first-class exit.
        """
        self.stats.offered += count
        self.stats.shed += count

    def parked_count(self, flow: tuple[str, bytes]) -> int:
        queue = self._flows.get(flow)
        return len(queue) if queue else 0

    def drain(self, flow: tuple[str, bytes], *, fast: bool) -> list[ILPPacket]:
        """Remove and return a flow's parked packets, in arrival order.

        ``fast=True`` accounts them as drained through a freshly
        installed decision; ``fast=False`` as handed back for per-packet
        slow-path replay.
        """
        queue = self._flows.pop(flow, None)
        if queue is None:
            return []
        self._live -= len(queue)
        if fast:
            self.stats.drained_fast += len(queue)
        else:
            self.stats.replayed += len(queue)
        return queue

    def discard_all(self) -> int:
        """Drop every parked packet (node crash); returns the count."""
        n = self._live
        self._flows.clear()
        self._live = 0
        self.stats.dropped += n
        return n

    def check_drained(self) -> None:
        """Armed check: no packet may be left behind or double-counted.

        Called at the end of every batch ingress under ``REPRO_SANITIZE=1``:
        every parked packet must have been drained or accounted as dropped
        (``live == 0`` and no flow entry between bursts), and the ledger
        must balance.
        """
        if self._live != 0 or self._flows:
            _san.fail(
                "miss-queue-leak",
                f"{self._live} packet(s) still parked across "
                f"{len(self._flows)} flow(s) after batch ingress",
            )
        _san.check_ledger(self.stats, "miss-queue-ledger", live=self._live)


@dataclass(slots=True)
class TerminusStats:
    packets_in: int = 0
    packets_out: int = 0
    fast_path: int = 0
    offload_path: int = 0
    punts: int = 0
    drops_no_peer: int = 0
    drops_auth: int = 0
    drops_malformed: int = 0
    drops_no_service: int = 0
    drops_by_decision: int = 0
    drops_by_offload: int = 0
    drops_by_service: int = 0
    drops_shed: int = 0  # refused by admission control under overload
    drops_degraded: int = 0  # resolved fail-closed by a degradation mode


class PipeTerminus:
    """Fast-path packet engine of one service node."""

    __slots__ = (
        "node_address",
        "keystore",
        "cache",
        "env",
        "_transmit",
        "channel",
        "_clock",
        "cost_model",
        "offload",
        "stats",
        "shard_stats",
        "miss_queue",
        "overload",
        "pending_delay",
        "peer_activity",
        "obs",
        "recorder",
    )

    def __init__(
        self,
        node_address: str,
        keystore: PeerKeyStore,
        cache: DecisionCache,
        env: "ExecutionEnvironment",
        transmit: Callable[[str, ILPPacket], bool],
        invocation_mode: InvocationMode = InvocationMode.IPC,
        clock: Optional[Callable[[], float]] = None,
        cost_model: Optional[CostModel] = None,
        miss_queue_limit: int = 512,
    ) -> None:
        self.node_address = node_address
        self.keystore = keystore
        self.cache = cache
        self.env = env
        self._transmit = transmit
        self.channel = InvocationChannel(invocation_mode)
        self._clock = clock or (lambda: 0.0)
        self.cost_model = cost_model or CostModel()
        #: Appendix B.1: per-service offload programs (rules + meters)
        #: consulted between the decision cache and the slow-path punt.
        self.offload = TerminusOffloadEngine()
        self.stats = TerminusStats()
        self.shard_stats = ShardStats()
        #: Parks a cold group's followers while its lead packet punts
        #: (miss coalescing — see module docstring).
        self.miss_queue = MissQueue(miss_queue_limit)
        #: Overload-resilience state: per-service policies + circuit
        #: breakers and the admission detector. Inert until configured.
        self.overload = OverloadGuard()
        #: Simulated-time processing delay to apply to the packets produced
        #: by the *current* ingress event; read by the node's transmit hook.
        self.pending_delay = 0.0
        #: Optional liveness hook: called with the outer L3 source of
        #: arriving traffic so pipe-health monitoring can treat data as a
        #: heartbeat (keepalives then flow only over *idle* pipes). The
        #: batch ingress reports once per same-peer span rather than per
        #: packet — same liveness information, amortized like the rest of
        #: the batch work.
        self.peer_activity: Optional[Callable[[str], None]] = None
        #: Observability bundle (latency histograms); None when obs is off.
        self.obs: Optional["NodeObs"] = None
        #: Flight recorder for lifecycle spans — the shared no-op singleton
        #: until :meth:`ServiceNode.enable_observability` installs a real
        #: one, so uninstrumented runs pay one no-op call per stage.
        self.recorder: "FlightRecorder | NullRecorder" = NULL_RECORDER

    # -- ingress ----------------------------------------------------------
    def receive(self, packet: ILPPacket) -> None:
        """Process one packet arriving from any pipe."""
        self.stats.packets_in += 1
        self.pending_delay = self.cost_model.terminus_latency
        recorder = self.recorder
        if recorder.enabled:
            recorder.new_trace()
        span = recorder.begin_span("terminus.receive", n=1)
        if self.peer_activity is not None:
            self.peer_activity(packet.l3.src)
        self._ingress_one(packet, self._clock())
        recorder.end_span(span)

    def receive_batch(self, packets) -> int:
        """Process a burst of packets arriving back-to-back.

        The batch ingress amortizes work at three levels. Per burst: the
        clock is read once and the terminus processing delay is charged
        once (slow-path punts inside the batch still add their own
        invocation latency). Per flow run — consecutive packets from one
        peer carrying identical header plaintext: one decrypt span. Per
        flow *group* — all of a flow's runs between two slow-path
        barriers, merged by the sharding stage: one decode, one
        decision-cache probe (batched via ``lookup_many``), one header
        encode, one ``qos_src`` extraction, and a gather-coalesced
        seal/transmit. Cold groups coalesce their punts too: one lead
        punt per flow, batched per span, with followers parked in the
        miss queue and drained through the freshly installed decision
        (see the module docstring). Per-flow semantics are identical to calling
        :meth:`receive` per packet (see module docstring for the
        equivalence contract and the cross-flow reordering discipline).

        Returns the number of packets processed.
        """
        if not isinstance(packets, list):
            packets = list(packets)
        now = self._clock()
        self.pending_delay = self.cost_model.terminus_latency
        stats = self.stats
        contexts = self.keystore.contexts
        n_in = len(packets)
        recorder = self.recorder
        if recorder.enabled:
            recorder.new_trace()
        rec = recorder.recording
        burst_span = recorder.begin_span("terminus.receive", n=n_in)

        # Pass 1 — decrypt: one open_batch per consecutive same-peer span.
        peers: list[str] = []
        plains: list[Optional[bytes]] = []
        extend = plains.extend
        peer_activity = self.peer_activity
        i = 0
        while i < n_in:
            peer = packets[i].l3.src
            j = i + 1
            while j < n_in and packets[j].l3.src == peer:
                j += 1
            peers.extend([peer] * (j - i))
            if peer_activity is not None:
                peer_activity(peer)
            ctx = contexts.get(peer)
            if ctx is None:
                stats.drops_no_peer += j - i
                extend([None] * (j - i))
            else:
                opened = ctx.open_batch([p.ilp_wire for p in packets[i:j]])
                stats.drops_auth += sum(1 for pt in opened if pt is None)
                extend(opened)
                if rec:
                    recorder.event("terminus.decrypt", peer=peer, n=j - i)
            i = j

        # Pass 2 — burst sharding: merge flow runs (same peer, identical
        # plaintext) into flow groups, keeping each flow's packets in
        # arrival order. Slow-path packets are barriers: every group that
        # opened before one is flushed before it runs, and a fresh segment
        # starts after it.
        shard = self.shard_stats
        shard.bursts += 1
        flush_segment = self._flush_segment
        process_run = self._process_run
        open_groups: dict[tuple[str, bytes], list[ILPPacket]] = {}
        i = 0
        while i < n_in:
            plain = plains[i]
            if plain is None:
                i += 1
                continue
            peer = peers[i]
            j = i + 1
            while j < n_in and plains[j] == plain and peers[j] == peer:
                j += 1
            if (
                len(plain) > FLAGS_WIRE_OFFSET
                and plain[FLAGS_WIRE_OFFSET] & Flags.SLOW_PATH
            ):
                if open_groups:
                    flush_segment(open_groups, now)
                    open_groups = {}
                shard.barrier_flushes += 1
                process_run(peer, plain, packets[i:j], now)
            else:
                group = open_groups.get((peer, plain))
                if group is None:
                    open_groups[(peer, plain)] = packets[i:j]
                else:
                    group.extend(packets[i:j])
                    shard.merged_runs += 1
            i = j
        if open_groups:
            flush_segment(open_groups, now)

        if _san.ENABLED:
            # Every packet parked during this burst must be gone: drained
            # through the fast path, replayed, or (on crash) dropped.
            self.miss_queue.check_drained()
        recorder.end_span(burst_span)
        stats.packets_in += n_in
        return n_in

    def _ingress_one(self, packet: ILPPacket, now: float) -> None:
        """Decrypt → decode → cache/offload/punt for one packet."""
        peer = packet.l3.src
        ctx = self.keystore.contexts.get(peer)
        if ctx is None:
            self.stats.drops_no_peer += 1
            return
        try:
            plaintext = ctx.open(packet.ilp_wire)
        except PSPError:
            self.stats.drops_auth += 1
            return
        if self.recorder.recording:
            self.recorder.event("terminus.decrypt", peer=peer, n=1)
        self._ingress_decoded(peer, plaintext, packet, now)

    def _ingress_decoded(
        self, peer: str, plaintext: bytes, packet: ILPPacket, now: float
    ) -> None:
        """Decode → cache/offload/punt for one already-decrypted packet."""
        try:
            header = ILPHeader.decode(plaintext)
        except ILPError:
            self.stats.drops_malformed += 1
            return
        if header.flags & Flags.SLOW_PATH:
            # Control and teardown packets always take the slow path: the
            # service must see LAST to tear down its state and invalidate
            # cache entries (a fast-path hit would hide it).
            self._punt(header, packet)
            return
        key = CacheKey(
            src=peer,
            service_id=header.service_id,
            connection_id=header.connection_id,
        )
        decision = self.cache.lookup(key, now=now)
        if decision is not None:
            if self.recorder.recording:
                self.recorder.event("terminus.cache_hit", peer=peer, n=1)
            self.apply_decision(decision, header, packet.payload)
            self.stats.fast_path += 1
            return
        self._miss_path(peer, header, packet, now)

    def _miss_path(
        self, peer: str, header: ILPHeader, packet: ILPPacket, now: float
    ) -> None:
        """Offload consult → punt, after a decision-cache miss."""
        offload = self.offload
        if offload.has_program(header.service_id):
            offloaded = offload.process(
                peer, header, packet.payload.wire_size, now
            )
            if offloaded.kind is ActionKind.DROP:
                self.stats.drops_by_offload += 1
                return
            if offloaded.kind is ActionKind.FORWARD:
                self.stats.offload_path += 1
                self.send(offloaded.peer, header, packet.payload)
                return
        guard = self.overload
        if guard.admission is not None and not guard.admit(
            now, self.miss_queue.live
        ):
            # Priority-aware shedding: only true-cold data packets reach
            # this point — barriers punt directly and established flows hit
            # the cache — so CONTROL/LAST frames and warm flows are never
            # shed by construction.
            self.stats.drops_shed += 1
            guard.stats.shed_packets += 1
            obs = self.obs
            if obs is not None:
                obs.sheds.inc()
            if self.recorder.recording:
                self.recorder.event("overload.shed", peer=peer, n=1)
            return
        self._punt(header, packet)

    # -- flow runs --------------------------------------------------------
    def _process_run(
        self, peer: str, plain: bytes, run: list[ILPPacket], now: float
    ) -> None:
        """Process one flow run (same peer, identical header plaintext)."""
        try:
            header = ILPHeader.decode(plain)
        except ILPError:
            self.stats.drops_malformed += len(run)
            return
        if header.flags & Flags.SLOW_PATH:
            # Punts get a fresh header per packet: services may retain or
            # mutate the object they are handed.
            self._punt(header, run[0])
            for packet in run[1:]:
                self._punt(ILPHeader.decode(plain), packet)
            return
        key = CacheKey(
            src=peer,
            service_id=header.service_id,
            connection_id=header.connection_id,
        )
        decision = self.cache.lookup_run(key, len(run), now=now)
        if decision is None:
            # Cold run: replay per-packet — the first packet's punt may
            # install the decision the rest of the run then hits, and each
            # scalar lookup counts itself.
            ingress_decoded = self._ingress_decoded
            for packet in run:
                ingress_decoded(peer, plain, packet, now)
            return
        self.stats.fast_path += len(run)
        if self.recorder.recording:
            self.recorder.event("terminus.cache_hit", peer=peer, n=len(run))
        self._apply_decision_run(decision, header, run)

    def _apply_decision_run(
        self, decision: Decision, header: ILPHeader, run: list[ILPPacket]
    ) -> None:
        """Apply one cached decision to a whole flow run."""
        if decision.action is Action.DROP:
            self.stats.drops_by_decision += len(run)
            return
        targets = decision.targets
        encoded = header.encode()
        qos_src = header.get_str(TLV.SRC_HOST)
        if len(targets) == 1:
            target = targets[0]
            if target.tlv_updates:
                out_header = header.copy()
                for tlv_type, value in target.tlv_updates:
                    out_header.tlvs[tlv_type] = value
                self.send_run(
                    target.peer,
                    out_header.encode(),
                    out_header.get_str(TLV.SRC_HOST),
                    run,
                )
            else:
                self.send_run(target.peer, encoded, qos_src, run)
            return
        # Multi-target fan-out: precompute one (peer, wire, qos_src) plan per
        # target, then transmit packet-major so ordering (and therefore each
        # egress context's nonce sequence) matches the per-packet path.
        plans = []
        for target in targets:
            if target.tlv_updates:
                out_header = header.copy()
                for tlv_type, value in target.tlv_updates:
                    out_header.tlvs[tlv_type] = value
                plans.append(
                    (
                        target.peer,
                        out_header.encode(),
                        out_header.get_str(TLV.SRC_HOST),
                    )
                )
            else:
                plans.append((target.peer, encoded, qos_src))
        stats = self.stats
        contexts = self.keystore.contexts
        node_address = self.node_address
        created = self._clock()
        transmit = self._transmit
        for packet in run:
            payload = packet.payload
            for peer, wire_plain, qsrc in plans:
                ctx = contexts.get(peer)
                if ctx is None:
                    stats.drops_no_peer += 1
                    continue
                out = ILPPacket(
                    l3=L3Header(src=node_address, dst=peer),
                    ilp_wire=ctx.seal(wire_plain),
                    payload=payload,
                    created_at=created,
                    qos_src=qsrc,
                )
                if transmit(peer, out):
                    stats.packets_out += 1

    # -- burst sharding ---------------------------------------------------
    def _flush_segment(
        self,
        groups: dict[tuple[str, bytes], list[ILPPacket]],
        now: float,
    ) -> None:
        """Decide and egress one barrier-delimited segment of flow groups.

        One decode per group, one :meth:`DecisionCache.lookup_many` pass
        over every group's key, then egress in group (first-appearance)
        order. Consecutive single-target hit groups coalesce into a
        per-next-hop gather; anything that can emit through another code
        path — cold spans (punt verdicts emit), multi-target fan-out,
        TLV rewrites — flushes the gather first so emissions keep segment
        order. Consecutive *cold* groups accumulate into a span handled
        by :meth:`_process_cold_span` (coalesced punts); a hot group or
        the segment end flushes the span before anything later emits.
        """
        shard = self.shard_stats
        shard.segments += 1
        shard.groups += len(groups)
        stats = self.stats
        recorder = self.recorder
        decoded: list[
            tuple[str, bytes, ILPHeader, list[ILPPacket], CacheKey]
        ] = []
        keys: list[CacheKey] = []
        counts: list[int] = []
        for (peer, plain), run in groups.items():
            try:
                header = ILPHeader.decode(plain)
            except ILPError:
                stats.drops_malformed += len(run)
                continue
            key = CacheKey(
                src=peer,
                service_id=header.service_id,
                connection_id=header.connection_id,
            )
            decoded.append((peer, plain, header, run, key))
            keys.append(key)
            counts.append(len(run))
        if not decoded:
            return
        decisions = self.cache.lookup_many(keys, counts, now=now)

        gather: dict[str, list[tuple[bytes, Optional[str], list[ILPPacket]]]]
        gather = {}

        def flush_gather() -> None:
            if not gather:
                return
            ctxs = self.keystore.prefetch(list(gather))
            for g_peer, items in gather.items():
                ctx = ctxs.get(g_peer)
                if ctx is None:
                    stats.drops_no_peer += sum(len(r) for _, _, r in items)
                else:
                    self.send_gather(g_peer, items, ctx=ctx)
            gather.clear()

        span: list[tuple[str, bytes, ILPHeader, list[ILPPacket], CacheKey]]
        span = []
        for row, decision in zip(decoded, decisions):
            peer, plain, header, run, _key = row
            if decision is None:
                # Cold group: open (or extend) a cold span. Its emissions
                # happen at span flush, which precedes the next hot
                # group's, so segment emission order is preserved.
                flush_gather()
                span.append(row)
                continue
            if span:
                self._process_cold_span(span, now)
                span = []
            stats.fast_path += len(run)
            if recorder.recording:
                recorder.event("terminus.cache_hit", peer=peer, n=len(run))
            if decision.action is Action.DROP:
                stats.drops_by_decision += len(run)
                continue
            targets = decision.targets
            if len(targets) == 1 and not targets[0].tlv_updates:
                items = gather.get(targets[0].peer)
                entry = (header.encode(), header.get_str(TLV.SRC_HOST), run)
                if items is None:
                    gather[targets[0].peer] = [entry]
                else:
                    items.append(entry)
                shard.gathered_packets += len(run)
            else:
                flush_gather()
                self._apply_decision_run(decision, header, run)
        if span:
            self._process_cold_span(span, now)
        flush_gather()

    def _process_cold_span(
        self,
        rows: list[tuple[str, bytes, ILPHeader, list[ILPPacket], CacheKey]],
        now: float,
    ) -> None:
        """Coalesce a span of consecutive cold groups through the slow path.

        Three phases, each preserving per-flow order and the exact charges
        the per-packet path would make:

        1. **Plan.** Each group gets a mode. Offload-programmed services
           replay per-packet (rules and meters are consulted per packet).
           A group whose cache key already appeared in this span (the key
           is not injective over flows: same connection, different TLVs)
           or is already back in the cache (revived by an earlier span's
           install in this segment) *drains* in phase 3 — its packets hit
           whatever the span installs, exactly as they would per-packet,
           and crucially without a second punt. Everything else is a true
           cold flow: its **lead** is charged the scalar miss (one lookup)
           and queued for the batch punt, its followers park in the miss
           queue (overflow spills to per-packet replay).
        2. **Punt.** All lead packets cross the service boundary in one
           :meth:`_punt_batch` (one marshal round trip in IPC mode).
        3. **Apply + drain.** In span order: a lead's verdict is applied
           (installs + emits), then its parked followers take one
           ``lookup_run`` — a hit drains them through the installed fast
           path; a miss (the verdict installed nothing, or errored) hands
           them back to per-packet replay, which re-punts each exactly as
           the scalar path would. Drain/spill groups do the same minus
           the lead punt. Drained runs — and verdict emits that forward
           the lead's own payload — coalesce into the same per-next-hop
           gather egress the hot path uses; anything emitting through
           another code path flushes the gather first, keeping the same
           ordering discipline as :meth:`_flush_segment`.
        """
        shard = self.shard_stats
        shard.cold_spans += 1
        shard.cold_groups += len(rows)
        stats = self.stats
        cache = self.cache
        queue = self.miss_queue
        offload = self.offload
        ingress_decoded = self._ingress_decoded
        recorder = self.recorder
        rec = recorder.recording
        punt_spans: list["Span"] = []

        gather: dict[str, list[tuple[bytes, Optional[str], list[ILPPacket]]]]
        gather = {}

        def flush_gather() -> None:
            if not gather:
                return
            ctxs = self.keystore.prefetch(list(gather))
            for g_peer, items in gather.items():
                ctx = ctxs.get(g_peer)
                if ctx is None:
                    stats.drops_no_peer += sum(len(r) for _, _, r in items)
                else:
                    self.send_gather(g_peer, items, ctx=ctx)
            gather.clear()

        def gather_append(
            peer: str, entry: tuple[bytes, Optional[str], list[ILPPacket]]
        ) -> None:
            items = gather.get(peer)
            if items is None:
                gather[peer] = [entry]
            else:
                items.append(entry)

        # Phase 1 — plan.
        guard = self.overload
        admission = guard.admission
        obs = self.obs
        modes: list[int] = []
        leads: list[tuple[ILPHeader, ILPPacket]] = []
        spills: dict[tuple[str, bytes], list[ILPPacket]] = {}
        seen_keys: set[CacheKey] = set()
        for peer, plain, header, run, key in rows:
            if offload.has_program(header.service_id):
                modes.append(_COLD_REPLAY)
                continue
            if key in seen_keys or key in cache:
                # Membership only: no charge, no LRU touch — phase 3's
                # lookup_run makes the (position-correct) charged probe.
                modes.append(_COLD_DRAIN)
                continue
            if admission is not None and not guard.admit(now, queue.live):
                # Priority-aware shedding, batch flavor: only true-cold
                # groups reach this check — barriers flushed before the
                # span, warm flows hit the cache, dup/revived keys drain —
                # so CONTROL/LAST and established flows are never shed.
                # One token covers the whole group (the batch analogue of
                # the per-packet scalar consume); the would-be followers
                # join the miss-queue ledger through its ``shed`` exit.
                modes.append(_COLD_SHED)
                n = len(run)
                stats.drops_shed += n
                guard.stats.shed_packets += n
                guard.stats.shed_groups += 1
                if n > 1:
                    queue.shed(n - 1)
                if obs is not None:
                    obs.sheds.inc(n)
                if rec:
                    recorder.event("overload.shed", peer=peer, n=n)
                continue
            seen_keys.add(key)
            modes.append(_COLD_LEAD)
            # Charge the lead's scalar miss (lookup_many charged nothing);
            # misses touch no LRU state, so the early charge is invisible.
            cache.lookup(key, now=now)
            # Fresh header for the punt: services may retain or mutate
            # what they are handed; the row header must stay pristine for
            # the drain egress.
            leads.append((ILPHeader.decode(plain), run[0]))
            if rec:
                punt_spans.append(
                    recorder.begin_span(
                        "terminus.punt",
                        service=header.service_id,
                        connection=header.connection_id,
                    )
                )
            spill = queue.park((peer, plain), run[1:])
            if spill:
                spills[(peer, plain)] = spill
            if rec and len(run) > 1 + len(spill):
                recorder.event(
                    "miss.park", peer=peer, n=len(run) - 1 - len(spill)
                )

        # Phase 2 — one batched boundary crossing for every lead.
        verdicts = self._punt_batch(leads) if leads else []
        if rec:
            for punt_span in punt_spans:
                recorder.end_span(punt_span)

        # Phase 3 — apply verdicts and drain, in span order.
        def drain_or_replay(
            peer: str,
            plain: bytes,
            header: ILPHeader,
            key: CacheKey,
            packets: list[ILPPacket],
            count_charge: int,
        ) -> None:
            """One charged probe, then gather-drain or per-packet replay."""
            decision = cache.lookup_run(key, count_charge, now=now)
            if decision is None:
                flush_gather()
                for packet in packets:
                    ingress_decoded(peer, plain, packet, now)
                return
            stats.fast_path += len(packets)
            if rec:
                recorder.event("terminus.cache_hit", peer=peer, n=len(packets))
            targets = decision.targets
            if (
                decision.action is not Action.DROP
                and len(targets) == 1
                and not targets[0].tlv_updates
            ):
                gather_append(
                    targets[0].peer,
                    (header.encode(), header.get_str(TLV.SRC_HOST), packets),
                )
            else:
                flush_gather()
                self._apply_decision_run(decision, header, packets)

        lead_i = 0
        install_many = cache.install_many
        for (peer, plain, header, run, key), mode in zip(rows, modes):
            if mode == _COLD_SHED:
                continue
            if mode == _COLD_REPLAY:
                flush_gather()
                for packet in run:
                    ingress_decoded(peer, plain, packet, now)
                continue
            if mode == _COLD_DRAIN:
                drain_or_replay(peer, plain, header, key, run, len(run))
                continue
            verdict = verdicts[lead_i]
            lead_i += 1
            if verdict is not None:
                if verdict.installs:
                    install_many(verdict.installs, now=now)
                if verdict.dropped:
                    stats.drops_by_service += 1
                for emit in verdict.emits:
                    # Ride the gather: send_gather only reads .payload
                    # off the carrier, so the lead's (frozen) L3 header
                    # is reused rather than re-parsed.
                    gather_append(
                        emit.peer,
                        (
                            emit.header.encode(),
                            emit.header.get_str(TLV.SRC_HOST),
                            [
                                ILPPacket(
                                    l3=run[0].l3,
                                    ilp_wire=b"",
                                    payload=emit.payload,
                                )
                            ],
                        ),
                    )
            flow = (peer, plain)
            count = queue.parked_count(flow)
            if count:
                decision = cache.lookup_run(key, count, now=now)
                if decision is None:
                    if rec:
                        recorder.event("miss.replay", peer=peer, n=count)
                    flush_gather()
                    for packet in queue.drain(flow, fast=False):
                        ingress_decoded(peer, plain, packet, now)
                else:
                    stats.fast_path += count
                    if rec:
                        recorder.event("miss.drain", peer=peer, n=count)
                    parked = queue.drain(flow, fast=True)
                    targets = decision.targets
                    if (
                        decision.action is not Action.DROP
                        and len(targets) == 1
                        and not targets[0].tlv_updates
                    ):
                        gather_append(
                            targets[0].peer,
                            (
                                header.encode(),
                                header.get_str(TLV.SRC_HOST),
                                parked,
                            ),
                        )
                    else:
                        flush_gather()
                        self._apply_decision_run(decision, header, parked)
            spill = spills.get(flow)
            if spill:
                flush_gather()
                for packet in spill:
                    ingress_decoded(peer, plain, packet, now)
        flush_gather()

    # -- fast path --------------------------------------------------------
    def apply_decision(
        self, decision: Decision, header: ILPHeader, payload: Payload
    ) -> None:
        """Apply one (cached or recomputed) decision to a single packet."""
        if decision.action is Action.DROP:
            self.stats.drops_by_decision += 1
            return
        # One encode and one qos_src extraction serve every target without
        # TLV rewrites; targets that rewrite get a copy (whose memo is
        # invalidated by the rewrite) and re-extract from it.
        encoded = header.encode()
        qos_src = header.get_str(TLV.SRC_HOST)
        for target in decision.targets:
            if target.tlv_updates:
                out_header = header.copy()
                for tlv_type, value in target.tlv_updates:
                    out_header.tlvs[tlv_type] = value
                self.send(target.peer, out_header, payload)
            else:
                self.send(
                    target.peer, header, payload, encoded=encoded, qos_src=qos_src
                )

    def set_transmit(self, transmit: Callable[[str, ILPPacket], bool]) -> None:
        """Replace the transmit hook (tests, fault injection, rewiring)."""
        self._transmit = transmit

    # -- slow path ----------------------------------------------------------
    def _punt(self, header: ILPHeader, packet: ILPPacket) -> None:
        guard = self.overload
        policy = (
            guard.policies.get(header.service_id) if guard.policies else None
        )
        now = self._clock() if policy is not None else 0.0
        if (
            policy is not None
            and not header.flags & Flags.SLOW_PATH
            and not guard.breakers[header.service_id].allow(now)
        ):
            # Open circuit: resolve via the service's degradation mode
            # without crossing the boundary — the struggling service never
            # sees the packet and the terminus bills no invocation latency,
            # so healthy services on this SN keep their goodput. Barriers
            # (CONTROL/LAST) are exempt: teardown must reach the service
            # (or fail closed in :meth:`_degrade`), never be short-cut into
            # a forward or a stale replay.
            guard.stats.short_circuits += 1
            obs = self.obs
            if obs is not None:
                obs.short_circuits.inc()
                obs.breakers_open.set(float(guard.open_count()))
            if self.recorder.recording:
                self.recorder.event(
                    "overload.short_circuit", service=header.service_id, n=1
                )
            self._degrade(policy, header, packet)
            return
        self.stats.punts += 1
        if not self.env.has_service(header.service_id):
            self.stats.drops_no_service += 1
            return
        recorder = self.recorder
        span = recorder.begin_span(
            "terminus.punt",
            service=header.service_id,
            connection=header.connection_id,
        )
        try:
            verdict = self._invoke_one(header, packet, policy, now)
        finally:
            recorder.end_span(span)
        if verdict is not None:
            self.apply_verdict(verdict)

    def _invoke_one(
        self,
        header: ILPHeader,
        packet: ILPPacket,
        policy: Optional[ServicePolicy],
        now: float,
    ) -> Optional[Verdict]:
        """Invoke one punt scalar-style, with deadline + breaker accounting.

        The caller has already counted the punt, checked service presence,
        and cleared the circuit breaker; this helper owns the invocation,
        the billing, and failure resolution — degradation when a policy is
        set, the classic by-service drop otherwise. One boundary round
        trip plus the service's per-packet CPU; a failed invocation still
        crossed the boundary and burned that CPU, so by default it bills
        the same latency (see :attr:`CostModel.bill_failed_invocations`).
        A timed-out punt bills the crossing plus the full deadline — the
        wait *is* the overload cost the breaker then removes.
        """
        env = self.env
        cost = self.cost_model
        guard = self.overload
        service_id = header.service_id
        in_enclave = env.enclave_for(service_id) is not None
        base = cost.invocation_latency(self.channel.mode, in_enclave)
        latency = base + cost.service_packet
        deadline = (
            policy.deadline
            if policy is not None and policy.deadline is not None
            else cost.punt_deadline
        )
        fault = env.service_fault(service_id)
        breaker = (
            guard.breakers.get(service_id) if policy is not None else None
        )
        recorder = self.recorder
        obs = self.obs
        try:
            if fault is None:
                verdict: Verdict = self.channel.invoke(
                    env.dispatch, header, packet
                )
            else:
                verdict = self.channel.invoke(
                    lambda h, p: env.dispatch(h, p, deadline), header, packet
                )
        except ServiceTimeout:
            guard.stats.deadline_misses += 1
            if breaker is not None and breaker.record_timeout(now):
                if obs is not None:
                    obs.breaker_trips.inc()
                if recorder.recording:
                    recorder.event(
                        "overload.breaker_open", service=service_id
                    )
            waited = base + (deadline or 0.0)
            self.pending_delay += waited
            if obs is not None:
                obs.deadline_misses.inc()
                obs.punt_latency.record(waited)
            if recorder.recording:
                recorder.event("overload.timeout", service=service_id, n=1)
            if policy is not None:
                self._degrade(policy, header, packet)
            else:
                self.stats.drops_by_service += 1
            return None
        except ServiceError:
            if breaker is not None and breaker.record_error(now):
                if obs is not None:
                    obs.breaker_trips.inc()
                if recorder.recording:
                    recorder.event(
                        "overload.breaker_open", service=service_id
                    )
            if cost.bill_failed_invocations:
                self.pending_delay += latency
                if obs is not None:
                    obs.punt_latency.record(latency)
            if policy is not None:
                self._degrade(policy, header, packet)
            else:
                self.stats.drops_by_service += 1
            return None
        if breaker is not None:
            breaker.record_success(now)
        if fault is not None:
            # A slowed-but-within-deadline service billed its slowdown.
            latency += fault.slowdown
        self.pending_delay += latency
        if obs is not None:
            obs.punt_latency.record(latency)
        return verdict

    def _degrade(
        self, policy: ServicePolicy, header: ILPHeader, packet: ILPPacket
    ) -> None:
        """Resolve a punt its service could not handle, per declared mode.

        ``fail_open`` forwards to the policy's designated next hop (the
        packet keeps moving, unserviced); ``fail_static`` replays the
        connection's last-known decision from the stale shelf (falling
        closed when there is none); ``fail_closed`` drops. CONTROL/LAST
        barriers always fail closed regardless of mode: forwarding a
        teardown the service never saw — or replaying a stale decision for
        it — would desynchronize connection state across the federation.
        """
        guard = self.overload
        if not header.flags & Flags.SLOW_PATH:
            mode = policy.degrade
            if mode is DegradeMode.FAIL_OPEN:
                guard.stats.degraded_open += 1
                assert policy.fail_open_peer is not None
                self.send(policy.fail_open_peer, header, packet.payload)
                return
            if mode is DegradeMode.FAIL_STATIC:
                key = CacheKey(
                    src=packet.l3.src,
                    service_id=header.service_id,
                    connection_id=header.connection_id,
                )
                decision = self.cache.stale_lookup(key)
                if decision is not None:
                    guard.stats.degraded_static += 1
                    self.apply_decision(decision, header, packet.payload)
                    return
                guard.stats.static_misses += 1
        guard.stats.degraded_closed += 1
        self.stats.drops_degraded += 1

    def _punt_batch(
        self, punts: list[tuple[ILPHeader, ILPPacket]]
    ) -> list[Optional[Verdict]]:
        """Punt a cold span's leads across the boundary in one round trip.

        Accounting matches :meth:`_punt` per lead — one punt each, missing
        services count as no-service drops, failed ones as service drops —
        but the invocation cost is amortized: one
        :meth:`~repro.core.ipc.CostModel.batch_invocation_latency` for the
        whole batch (the span's single marshal round trip, plus one
        enclave crossing pair per enclave-hosted service group) and
        ``service_packet`` per invoked lead. The shared crossing is always
        billed once the batch is sent; with
        ``bill_failed_invocations=False`` only the failed leads' service
        CPU is waived. A single eligible lead takes the scalar
        :meth:`~repro.core.ipc.InvocationChannel.invoke` path so its byte
        accounting matches per-packet processing exactly.

        Returns one entry per punt, in order (``None`` = no service,
        service error, timeout, or circuit short-circuit — in every case
        the punt installed nothing, so the caller's followers replay
        per-packet exactly as the scalar path would). Verdicts are **not**
        applied here — the caller applies them in span order.

        Overload handling mirrors the scalar path per lead: an open
        breaker short-circuits the lead to its degradation mode before the
        punt is even counted; a timed-out lead (``PuntTimeout`` slot from
        the execution environment) bills its deadline as latency, feeds
        its breaker, and degrades. The batch consumes one admission token
        per *span* rather than per packet — the same liberty the sharding
        stage takes with cross-flow order.
        """
        stats = self.stats
        env = self.env
        cost = self.cost_model
        guard = self.overload
        obs = self.obs
        recorder = self.recorder
        results: list[Optional[Verdict]] = [None] * len(punts)
        eligible: list[int] = []
        deadlines: list[Optional[float]] = []
        enclave_services: set[int] = set()
        has_policies = bool(guard.policies)
        now = self._clock() if has_policies else 0.0
        for i, (header, _packet) in enumerate(punts):
            service_id = header.service_id
            policy = guard.policies.get(service_id) if has_policies else None
            if (
                policy is not None
                and not header.flags & Flags.SLOW_PATH
                and not guard.breakers[service_id].allow(now)
            ):
                guard.stats.short_circuits += 1
                if obs is not None:
                    obs.short_circuits.inc()
                    obs.breakers_open.set(float(guard.open_count()))
                if recorder.recording:
                    recorder.event(
                        "overload.short_circuit", service=service_id, n=1
                    )
                self._degrade(policy, header, punts[i][1])
                continue
            stats.punts += 1
            if not env.has_service(service_id):
                stats.drops_no_service += 1
                continue
            eligible.append(i)
            deadlines.append(
                policy.deadline
                if policy is not None and policy.deadline is not None
                else cost.punt_deadline
            )
            if env.enclave_for(service_id) is not None:
                enclave_services.add(service_id)
        if not eligible:
            return results
        if len(eligible) == 1:
            i = eligible[0]
            header, packet = punts[i]
            policy = (
                guard.policies.get(header.service_id) if has_policies else None
            )
            results[i] = self._invoke_one(header, packet, policy, now)
            return results
        batch = [punts[i] for i in eligible]
        has_faults = env.has_faults
        if has_faults:
            # Deadlines ride the marshal only when a fault could trip them,
            # so the fault-free wire format (and byte accounting) is
            # unchanged.
            verdicts = self.channel.invoke_batch(
                env.dispatch_batch, batch, deadlines=deadlines
            )
        else:
            verdicts = self.channel.invoke_batch(env.dispatch_batch, batch)
        failed = 0
        timed_out = 0
        extra = 0.0
        for pos, (i, verdict) in enumerate(zip(eligible, verdicts)):
            header = punts[i][0]
            service_id = header.service_id
            policy = guard.policies.get(service_id) if has_policies else None
            breaker = (
                guard.breakers.get(service_id) if policy is not None else None
            )
            if isinstance(verdict, PuntTimeout):
                timed_out += 1
                guard.stats.deadline_misses += 1
                if breaker is not None and breaker.record_timeout(now):
                    if obs is not None:
                        obs.breaker_trips.inc()
                    if recorder.recording:
                        recorder.event(
                            "overload.breaker_open", service=service_id
                        )
                waited = deadlines[pos] or 0.0
                self.pending_delay += waited
                if obs is not None:
                    obs.deadline_misses.inc()
                    if waited:
                        obs.punt_latency.record(waited)
                if recorder.recording:
                    recorder.event(
                        "overload.timeout", service=service_id, n=1
                    )
                if policy is not None:
                    self._degrade(policy, header, punts[i][1])
                else:
                    stats.drops_by_service += 1
                continue
            if verdict is None:
                failed += 1
                if breaker is not None and breaker.record_error(now):
                    if obs is not None:
                        obs.breaker_trips.inc()
                    if recorder.recording:
                        recorder.event(
                            "overload.breaker_open", service=service_id
                        )
                if policy is not None:
                    self._degrade(policy, header, punts[i][1])
                else:
                    stats.drops_by_service += 1
                continue
            if breaker is not None:
                breaker.record_success(now)
            if has_faults:
                # Slowed-but-within-deadline services bill their slowdown.
                extra += env.fault_latency(service_id)
            results[i] = verdict
        # Timed-out leads billed their own deadline above and never burned
        # service CPU; failed ones did (unless the fail-fast policy waives
        # it). The shared crossing is always billed once the batch is sent.
        billed = len(eligible) - timed_out
        if not cost.bill_failed_invocations:
            billed -= failed
        crossing = cost.batch_invocation_latency(
            self.channel.mode, len(enclave_services)
        )
        self.pending_delay += crossing + cost.service_packet * billed + extra
        if obs is not None and billed:
            # Per-lead view of the amortized crossing: each billed punt
            # carries its share of the batch round trip plus its own CPU.
            obs.punt_latency.record_many(
                crossing / billed + cost.service_packet, billed
            )
        return results

    def apply_verdict(self, verdict: Verdict) -> None:
        """Install cache entries and transmit a verdict's emitted packets."""
        now = self._clock()
        if verdict.installs:
            self.cache.install_many(verdict.installs, now=now)
        if verdict.dropped:
            self.stats.drops_by_service += 1
        for emit in verdict.emits:
            self.send(emit.peer, emit.header, emit.payload)

    # -- egress ----------------------------------------------------------
    def send(
        self,
        peer: str,
        header: ILPHeader,
        payload: Payload,
        *,
        encoded: Optional[bytes] = None,
        qos_src=_QOS_UNSET,
    ) -> bool:
        """Seal a header for ``peer`` and transmit the packet to it.

        ``encoded`` lets a caller that already holds the header's wire form
        (e.g. :meth:`_apply_decision` fanning one header out to N targets)
        skip re-encoding; it must equal ``header.encode()``. ``qos_src``
        likewise lets the caller pass a precomputed SRC_HOST extraction
        (``None`` is a valid precomputed value — "no SRC_HOST TLV").
        """
        ctx = self.keystore.contexts.get(peer)
        if ctx is None:
            self.stats.drops_no_peer += 1
            return False
        wire_plain = header.encode() if encoded is None else encoded
        if _san.ENABLED:
            _san_check_header_wire(header, wire_plain)
        wire = ctx.seal(wire_plain)
        recorder = self.recorder
        if recorder.recording:
            recorder.event("terminus.seal", peer=peer, n=1)
        out = ILPPacket(
            l3=L3Header(src=self.node_address, dst=peer),
            ilp_wire=wire,
            payload=payload,
            created_at=self._clock(),
            qos_src=header.get_str(TLV.SRC_HOST)
            if qos_src is _QOS_UNSET
            else qos_src,
        )
        sent = self._transmit(peer, out)
        if sent:
            self.stats.packets_out += 1
            if recorder.recording:
                recorder.event("terminus.send", peer=peer, n=1)
            obs = self.obs
            if obs is not None:
                obs.terminus_latency.record(self.pending_delay)
        return sent

    def send_run(
        self,
        peer: str,
        encoded: bytes,
        qos_src: Optional[str],
        run: list[ILPPacket],
    ) -> int:
        """Seal one header wire form over a run's packets and transmit.

        The run egress: one keystore probe, one
        :meth:`~repro.core.psp.PSPContext.seal_run` (schedule and framing
        hoisted), one outer L3 header shared by every copy (it is frozen),
        one clock read. Wire bytes equal per-packet :meth:`send` calls in
        the same order.

        Returns the number of packets transmitted.
        """
        ctx = self.keystore.contexts.get(peer)
        stats = self.stats
        if ctx is None:
            stats.drops_no_peer += len(run)
            return 0
        if _san.ENABLED:
            # One check per run: the run shares a single wire form.
            _san_check_header_wire(ILPHeader.decode(encoded), encoded)
        wires = ctx.seal_run(encoded, len(run))
        recorder = self.recorder
        if recorder.recording:
            recorder.event("terminus.seal", peer=peer, n=len(run))
        l3 = L3Header(src=self.node_address, dst=peer)
        created = self._clock()
        transmit = self._transmit
        sent = 0
        for packet, wire in zip(run, wires):
            out = ILPPacket(
                l3=l3,
                ilp_wire=wire,
                payload=packet.payload,
                created_at=created,
                qos_src=qos_src,
            )
            if transmit(peer, out):
                sent += 1
        stats.packets_out += sent
        if sent:
            if recorder.recording:
                recorder.event("terminus.send", peer=peer, n=sent)
            obs = self.obs
            if obs is not None:
                obs.terminus_latency.record_many(self.pending_delay, sent)
        return sent

    def send_gather(
        self,
        peer: str,
        items: list[tuple[bytes, Optional[str], list[ILPPacket]]],
        *,
        ctx: Optional[PSPContext] = None,
    ) -> int:
        """Seal several flow groups bound for one next hop in one gather.

        ``items`` is ``[(encoded, qos_src, run), ...]`` in emission order.
        The scatter-gather egress: one keystore probe (or a prefetched
        ``ctx``), one :meth:`~repro.core.psp.PSPContext.seal_gather` with
        the key schedule hoisted across every group, one outer L3 header,
        one clock read. Per group the wire bytes equal a :meth:`send_run`
        call in the same position of the egress context's nonce sequence.

        Returns the number of packets transmitted.
        """
        if ctx is None:
            ctx = self.keystore.contexts.get(peer)
        stats = self.stats
        if ctx is None:
            stats.drops_no_peer += sum(len(run) for _, _, run in items)
            return 0
        if _san.ENABLED:
            # One check per group: each group shares a single wire form.
            for encoded, _qos, _run in items:
                _san_check_header_wire(ILPHeader.decode(encoded), encoded)
        wires = ctx.seal_gather(
            [(encoded, len(run)) for encoded, _qos, run in items]
        )
        recorder = self.recorder
        if recorder.recording:
            recorder.event("terminus.seal", peer=peer, n=len(wires))
        l3 = L3Header(src=self.node_address, dst=peer)
        created = self._clock()
        transmit = self._transmit
        sent = 0
        w = 0
        for _encoded, qos_src, run in items:
            for packet in run:
                out = ILPPacket(
                    l3=l3,
                    ilp_wire=wires[w],
                    payload=packet.payload,
                    created_at=created,
                    qos_src=qos_src,
                )
                w += 1
                if transmit(peer, out):
                    sent += 1
        stats.packets_out += sent
        if sent:
            if recorder.recording:
                recorder.event("terminus.send", peer=peer, n=sent)
            obs = self.obs
            if obs is not None:
                obs.terminus_latency.record_many(self.pending_delay, sent)
        return sent
