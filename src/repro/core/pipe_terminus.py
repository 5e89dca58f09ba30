"""The pipe-terminus: an SN's fast path (Figure 2).

The terminus is deliberately free of service logic; it is the part the
paper expects to land in switch ASICs eventually (Appendix B.1). There is
**one pipeline**. :meth:`PipeTerminus.receive_batch` runs it over a burst
of packets that arrived back to back; :meth:`PipeTerminus.receive` is a
burst of one. Stage by stage:

1. **Decrypt.** One :meth:`~repro.core.psp.PSPContext.open_batch` per
   consecutive same-peer span, keyed by the packets' outer L3 source.
   Unknown peers and failed tags are counted drops.
2. **Shard** (software RSS/GRO). Consecutive packets carrying the same
   header plaintext from the same peer form a **flow run**; runs of one
   flow that are not adjacent in the burst merge into one **flow group**,
   so a fully interleaved burst (run length 1) regains the amortization a
   flow-local burst gets for free. A packet whose header sets a
   ``SLOW_PATH`` flag (CONTROL/LAST) is a **barrier**: every group opened
   before it is decided and egressed before it runs, everything after it,
   after — teardown and control ordering is exact.
3. **Decide.** One header decode per group and one
   :meth:`~repro.core.decision_cache.DecisionCache.lookup_many` pass over
   a barrier-delimited segment's groups. A hit goes to egress; consecutive
   misses form a **cold span**.
4. **Cold span.** Per missed group, in Figure-2 order: if the service
   has an offload program (App. B.1's second match-action table), it
   meets the group's packets in arrival order, each charged its own cache
   miss; every packet it resolves is an ordinary forward or drop
   :class:`~repro.core.decision_cache.Decision`, and the first one it
   passes on becomes the group's **lead**. Without a program the first
   packet leads, charged the miss. Admission control may shed the lead
   with its followers; otherwise the lead punts while its followers park
   in the per-flow :class:`MissQueue`. All leads of a span cross the
   service boundary in one :meth:`_punt_batch` →
   :meth:`~repro.core.ipc.InvocationChannel.invoke_batch` round trip
   (OVS-style upcall batching: a cold-flow storm costs one crossing per
   span plus one punt per flow). Then, in span order, a group's offload
   forwards egress and its lead's verdict is applied; its parked
   followers take one probe — a hit drains them through the freshly
   installed decision, a miss (the verdict installed nothing, errored, or
   the service is missing) **replays** them.
5. **Punt.** Every punt — a span's leads, a barrier — crosses through
   :meth:`_punt_batch`, the only place that consults a circuit breaker,
   enforces the slow-path deadline, bills invocation latency and
   dispatches to a degradation mode. Barriers punt strictly one at a
   time, each verdict applied before the next packet is looked at. A
   punt hands the service the decoded header itself: headers are
   immutable values, so a service may keep one but never edit it.
6. **Egress.** Every outgoing packet — decision targets, verdict emits,
   offload forwards, degraded forwards — leaves through
   :meth:`send_gather`, the only place that seals a header
   (:meth:`~repro.core.psp.PSPContext.seal_gather`) and builds an outgoing
   :class:`~repro.core.packet.ILPPacket`, and hands a next hop's packets
   to the transmit hook as one list in one call — a burst reaches the
   link as a burst. Egress queues on a per-next-hop
   gather that is flushed before every boundary crossing and at the end
   of the burst, so a packet is transmitted with the processing delay
   accumulated when it was decided; multi-target fan-out flushes the
   gather and transmits packet-major at once, as bursts of one would.

A **replay** — followers whose lead installed nothing — is not a second
path: each packet re-enters stage 3 as a group of one.

Equivalence contract
--------------------

Sharding regroups packets *across* flows but never within one: a flow's
packets stay in arrival order through decode, decision, seal and
transmit, so every per-flow observable — the sequence of forwarded
headers, payloads and QoS annotations, and (when flows do not share an
egress association) the exact wire bytes — is identical to feeding the
same packets as bursts of one, and a flow-contiguous burst matches bursts
of one in *every* observable, LRU order and nonce sequence included. This
is sound because ILP's PSP-style header crypto is order-independent per
packet (§4: the nonce travels with the packet; receivers impose no
inter-packet state), so cross-flow delivery order within one burst is not
part of wire semantics — the liberty a multi-queue NIC takes when RSS
steers flows to different queues. Cross-flow *punt* order within a burst
follows span order rather than arrival order, while each flow's punts
always reach its service in arrival order. Likewise, a meter that an
offload program shares across flows is charged in plan order — each
group up to its lead, then replayed followers after the punt — rather
than in arrival order across those flows; each flow's own packets meet
it in arrival order.

Like the ASIC pipeline it models, a burst assumes that a slow-path verdict
does not retire the PSP association of packets already in flight, and that
verdicts only mutate their *own* connection's fast-path state (cross-flow
installs and invalidations take effect at the next delivery event, as they
would across the boundary of a hardware pipeline stage).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .. import sanitize as _san
from ..obs.recorder import NULL_RECORDER
from .decision_cache import Action, CacheKey, Decision, DecisionCache
from .ilp import FLAGS_WIRE_OFFSET, Flags, ILPError, ILPHeader, TLV
from .ipc import CostModel, InvocationChannel, InvocationMode
from .offload import TerminusOffloadEngine
from .overload import DegradeMode, OverloadGuard, ServicePolicy
from .packet import ILPPacket, L3Header, Payload
from .psp import PeerKeyStore
from .service_module import Verdict

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import NodeObs
    from ..obs.recorder import FlightRecorder, NullRecorder, Span
    from .execution_env import ExecutionEnvironment

#: One decoded flow group: (peer, header plaintext, header, packets, key).
_Row = tuple[str, bytes, ILPHeader, list[ILPPacket], CacheKey]
#: One egress gather entry: (header wire form, qos_src, payloads in order).
_GatherItem = tuple[bytes, Optional[str], list[Payload]]

#: (decision, payload) of each packet a cold group's offload program forwarded.
_Forwards = Sequence[tuple[Decision, Payload]]

#: Cold-span plan modes (see :meth:`PipeTerminus._process_cold_span`).
_COLD_DRAIN = 0  # dup/revived cache key: drain off the span's installs
_COLD_LEAD = 1  # true cold flow: lead punts, followers park
_COLD_SETTLED = 2  # no lead left: resolved by the offload program, or shed


@functools.lru_cache(maxsize=4096)
def _outer_l3(src: str, dst: str) -> L3Header:
    """The outer header of every packet ``src`` sends to next hop ``dst``.

    Memoised (bounded): the header is frozen, so all copies share it, and
    a node speaks to a small set of next hops.
    """
    return L3Header(src=src, dst=dst)


def _san_check_header_wire(header: ILPHeader, wire: bytes) -> None:
    """Armed check: the wire form must equal a from-scratch re-encode.

    Catches a stale encode() memo (or a caller-passed ``encoded`` that has
    drifted from the header object) before the bytes are sealed for a peer.
    """
    fresh = ILPHeader(
        header.service_id, header.connection_id, header.flags, header.tlvs
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
    barrier_flushes: int = 0
    cold_spans: int = 0
    cold_groups: int = 0


@dataclass(slots=True)
class MissQueueStats:
    """Miss-queue ledger.

    ``offered`` counts every packet the miss path was asked to absorb —
    parked followers and packets shed by admission control before
    parking. Each leaves through exactly one exit: ``drained_fast``
    (verdict installed, drained through the fast path), ``replayed`` (no
    install, replayed per-packet through the slow path), ``shed`` (refused
    by the overload detector), or ``dropped`` (queue discarded on node
    crash) — so ``offered == drained_fast + replayed + shed + dropped +
    live`` at all times (the armed conservation ledger). ``parked`` keeps
    its physical meaning: packets that actually entered the queue, so
    ``parked == drained_fast + replayed + dropped + live`` holds too.
    """

    offered: int = 0
    parked: int = 0
    drained_fast: int = 0
    replayed: int = 0
    shed: int = 0
    dropped: int = 0


class MissQueue:
    """Per-flow parking for a cold group's follower packets.

    While a flow's lead packet is punted, its followers wait here instead
    of punting too (miss coalescing). Parking never outlives the cold span
    that parks — every parked packet is drained or replayed before the
    burst ends (the armed ``miss-queue-leak`` check) — so the queue holds
    at most one burst and needs no bound of its own. ``SLOW_PATH``
    barriers never park (they punt individually by contract). On node
    crash the queue is discarded wholesale and every live packet is
    accounted as ``dropped`` — parked packets are in-flight datapath
    state, not durable state, exactly like packets sitting in a real
    NIC ring at power loss.
    """

    __slots__ = ("_flows", "_live", "stats")

    def __init__(self) -> None:
        self._flows: dict[tuple[str, bytes], list[ILPPacket]] = {}
        self._live = 0
        self.stats = MissQueueStats()

    @property
    def live(self) -> int:
        """Packets currently parked across all flows."""
        return self._live

    def park(self, flow: tuple[str, bytes], packets: list[ILPPacket]) -> None:
        """Park ``packets`` behind the flow's lead, in arrival order.

        A flow gets an entry only once a packet actually parks: a lead
        without followers (``packets`` empty) has nothing for ``drain`` to
        pop later, so it must leave nothing behind.
        """
        if not packets:
            return
        n = len(packets)
        self.stats.offered += n
        self.stats.parked += n
        self._live += n
        queue = self._flows.get(flow)
        if queue is None:
            self._flows[flow] = packets
        else:
            queue.extend(packets)

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
    drops_no_route: int = 0  # egress: no PSP association with the next hop


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
        "_gather",
    )

    def __init__(
        self,
        node_address: str,
        keystore: PeerKeyStore,
        cache: DecisionCache,
        env: "ExecutionEnvironment",
        transmit: Callable[[str, list[ILPPacket]], int],
        invocation_mode: InvocationMode = InvocationMode.IPC,
        clock: Optional[Callable[[], float]] = None,
        cost_model: Optional[CostModel] = None,
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
        self.miss_queue = MissQueue()
        #: Overload-resilience state: per-service policies + circuit
        #: breakers and the admission detector. Inert until configured.
        self.overload = OverloadGuard()
        #: Simulated-time processing delay to apply to the packets produced
        #: by the *current* ingress event; read by the node's transmit hook.
        self.pending_delay = 0.0
        #: Optional liveness hook: called with the outer L3 source of
        #: arriving traffic so pipe-health monitoring can treat data as a
        #: heartbeat (keepalives then flow only over *idle* pipes). Ingress
        #: reports once per same-peer span rather than per packet — same
        #: liveness information, amortized like the rest of the burst work.
        self.peer_activity: Optional[Callable[[str], None]] = None
        #: Observability bundle (latency histograms); None when obs is off.
        self.obs: Optional["NodeObs"] = None
        #: Flight recorder for lifecycle spans — the shared no-op singleton
        #: until :meth:`ServiceNode.enable_observability` installs a real
        #: one, so uninstrumented runs pay one no-op call per stage.
        self.recorder: "FlightRecorder | NullRecorder" = NULL_RECORDER
        #: Egress decided but not yet transmitted, per next hop, in emission
        #: order; empty between bursts (see :meth:`_flush_gather`).
        self._gather: dict[str, list[_GatherItem]] = {}

    # -- ingress ----------------------------------------------------------
    def receive(self, packet: ILPPacket) -> None:
        """Process one packet arriving from any pipe: a burst of one."""
        self.receive_batch([packet])

    def receive_batch(self, packets) -> int:
        """Process a burst of packets arriving back-to-back.

        The work amortizes at three levels. Per burst: the clock is read
        once and the terminus processing delay is charged once (slow-path
        punts inside the burst still add their own invocation latency).
        Per same-peer span: one decrypt pass. Per flow *group* — all of a
        flow's runs between two slow-path barriers, merged by the sharding
        stage: one decode, one decision-cache probe (batched via
        ``lookup_many``), one header encode, one ``qos_src`` extraction,
        and a gather-coalesced seal/transmit. Cold groups coalesce their
        punts too: one lead punt per flow, batched per span, with followers
        parked in the miss queue and drained through the freshly installed
        decision. Per-flow semantics are identical to feeding the same
        packets as bursts of one (see the module docstring for the
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
        burst_span = recorder.begin_span("terminus.receive", n=n_in)

        # Stage 1 — decrypt: one open_batch per consecutive same-peer span.
        # Stage 2 — shard: within the span, merge flow runs (identical
        # plaintext) into flow groups, keeping each flow's packets in
        # arrival order; groups stay open across spans. Slow-path packets
        # are barriers: every group that opened before one is flushed
        # before it runs, and a fresh segment starts after.
        shard = self.shard_stats
        shard.bursts += 1
        peer_activity = self.peer_activity
        open_groups: dict[tuple[str, bytes], list[ILPPacket]] = {}
        i = 0
        while i < n_in:
            peer = packets[i].l3.src
            j = i + 1
            while j < n_in and packets[j].l3.src == peer:
                j += 1
            if peer_activity is not None:
                peer_activity(peer)
            ctx = contexts.get(peer)
            if ctx is None:
                stats.drops_no_peer += j - i
                i = j
                continue
            plains = ctx.open_batch([p.ilp_wire for p in packets[i:j]])
            stats.drops_auth += plains.count(None)
            if recorder.recording:
                recorder.event("terminus.decrypt", peer=peer, n=j - i)
            n_span = j - i
            k = 0
            while k < n_span:
                plain = plains[k]
                m = k + 1
                if plain is None:
                    k = m
                    continue
                while m < n_span and plains[m] == plain:
                    m += 1
                run = packets[i + k : i + m]
                if (
                    len(plain) > FLAGS_WIRE_OFFSET
                    and plain[FLAGS_WIRE_OFFSET] & Flags.SLOW_PATH
                ):
                    if open_groups:
                        self._flush_segment(open_groups, now)
                        open_groups = {}
                    shard.barrier_flushes += 1
                    self._punt_barriers(plain, run, now)
                else:
                    flow = (peer, plain)
                    group = open_groups.get(flow)
                    if group is None:
                        open_groups[flow] = run
                    else:
                        group += run
                        shard.merged_runs += 1
                k = m
            i = j
        if open_groups:
            self._flush_segment(open_groups, now)
        self._flush_gather()

        if _san.ENABLED:
            # Every packet parked during this burst must be gone: drained
            # through the fast path, replayed, or (on crash) dropped.
            self.miss_queue.check_drained()
        recorder.end_span(burst_span)
        stats.packets_in += n_in
        if _san.ENABLED:
            # Every packet that ever arrived met exactly one first fate; a
            # short-circuited punt is booked on the overload guard's ledger.
            _san.check_ledger(
                stats, "packet-fate-ledger", live=self.overload.stats.short_circuits
            )
        return n_in

    # -- decide -----------------------------------------------------------
    def _flush_segment(
        self,
        groups: dict[tuple[str, bytes], list[ILPPacket]],
        now: float,
    ) -> None:
        """Decode one barrier-delimited segment of flow groups and decide it.

        One decode per group; a group whose header does not parse is a
        counted drop.
        """
        shard = self.shard_stats
        shard.segments += 1
        shard.groups += len(groups)
        rows: list[_Row] = []
        for (peer, plain), run in groups.items():
            try:
                header = ILPHeader.decode(plain)
            except ILPError:
                self.stats.drops_malformed += len(run)
                continue
            key = CacheKey(peer, header.service_id, header.connection_id)
            rows.append((peer, plain, header, run, key))
        self._decide(rows, now)

    def _decide(self, rows: list[_Row], now: float) -> None:
        """Probe the decision cache for decoded groups; egress or go cold.

        One :meth:`DecisionCache.lookup_many` pass over every group's key,
        then group (first-appearance) order: a hit queues on the egress
        gather, consecutive misses accumulate into a cold span handled by
        :meth:`_process_cold_span` before any later group is looked at.
        """
        stats = self.stats
        recorder = self.recorder
        decisions = self.cache.lookup_many(
            [row[4] for row in rows], [len(row[3]) for row in rows], now=now
        )
        span: list[_Row] = []
        for row, decision in zip(rows, decisions):
            if decision is None:
                span.append(row)
                continue
            if span:
                self._process_cold_span(span, now)
                span = []
            run = row[3]
            stats.fast_path += len(run)
            if recorder.recording:
                recorder.event("terminus.cache_hit", peer=row[0], n=len(run))
            self._egress(decision, row[2], [p.payload for p in run])
        if span:
            self._process_cold_span(span, now)

    def _replay(self, row: _Row, packets: list[ILPPacket], now: float) -> None:
        """Feed a group's packets back through :meth:`_decide`, one by one.

        Each becomes a group of one sharing the row's decoded header.
        """
        peer, plain, header, _run, key = row
        for packet in packets:
            self._decide([(peer, plain, header, [packet], key)], now)

    def _process_cold_span(self, rows: list[_Row], now: float) -> None:
        """Coalesce a span of consecutive cold groups through the slow path.

        Three phases, each preserving per-flow order and the charges
        bursts of one would make:

        1. **Plan.** Each group gets one of three modes. A group whose
           cache key already appeared in this span (the key is not
           injective over flows: same connection, different TLVs) or is
           already back in the cache (revived by an earlier span's install
           in this segment) *drains* in phase 3 — its packets hit whatever
           the span installs, crucially without a second punt. Every other
           group is a true cold flow, taken in Figure-2 order. If its
           service has an offload program, the program walks the packets
           in arrival order, each charged its own miss, and books each one
           it resolves, up to the first it passes on; otherwise only the
           first packet is charged the miss. That packet is the group's
           **lead**, the rest its followers: admission control may shed
           them all, and otherwise the lead is queued for the batch punt
           while its followers park in the miss queue. A group left with
           no lead — resolved by its program, or shed — is *settled*.
        2. **Punt.** All lead packets cross the service boundary in one
           :meth:`_punt_batch`.
        3. **Apply + drain.** In span order: a group's offload forwards
           egress, its lead's verdict is applied (installs + emits), then
           its parked followers take one probe — a hit drains them
           through the installed decision; a miss (the verdict installed
           nothing, or errored) replays them, each a group of one that
           meets the cache, the program and the punt again. Drain groups
           do the same minus the lead punt.
        """
        shard = self.shard_stats
        shard.cold_spans += 1
        shard.cold_groups += len(rows)
        stats = self.stats
        cache = self.cache
        queue = self.miss_queue
        offload = self.offload
        recorder = self.recorder
        rec = recorder.recording
        guard = self.overload
        admission = guard.admission

        # Phase 1 — plan: per row, a mode and the program's forwards.
        plan: list[tuple[int, _Forwards]] = []
        leads: list[tuple[ILPHeader, ILPPacket]] = []
        punt_spans: list["Span"] = []
        seen_keys: set[CacheKey] = set()
        for peer, plain, header, run, key in rows:
            if key in seen_keys or key in cache:
                # Membership only: no charge, no LRU touch — phase 3 makes
                # the (position-correct) charged probe.
                plan.append((_COLD_DRAIN, ()))
                continue
            offloaded: _Forwards = ()
            if offload.has_program(header.service_id):
                # App. B.1's second table: each packet misses the cache
                # and meets the program, until the first one it passes on.
                forwarded: list[tuple[Decision, Payload]] = []
                resolved = 0
                for packet in run:
                    cache.lookup(key, now=now)
                    decision = offload.process(
                        peer, header, packet.payload.wire_size, now
                    )
                    if decision is None:
                        break
                    resolved += 1
                    if decision.action is Action.DROP:
                        stats.drops_by_offload += 1
                    else:
                        stats.offload_path += 1
                        forwarded.append((decision, packet.payload))
                offloaded = forwarded
                if resolved == len(run):
                    plan.append((_COLD_SETTLED, offloaded))
                    continue
                run = run[resolved:]
            else:
                # Charge the lead's miss (lookup_many charged nothing);
                # misses touch no LRU state, so the early charge is
                # invisible.
                cache.lookup(key, now=now)
            if admission is not None and not guard.admit(now, queue.live):
                # Priority-aware shedding: only true-cold groups reach this
                # check — barriers punt directly, warm flows hit the cache,
                # dup/revived keys drain — so CONTROL/LAST and established
                # flows are never shed. One token covers the lead and its
                # followers; the would-be followers join the miss-queue
                # ledger through its ``shed`` exit.
                plan.append((_COLD_SETTLED, offloaded))
                n = len(run)
                stats.drops_shed += n
                guard.stats.shed_packets += n
                guard.stats.shed_groups += 1
                if n > 1:
                    queue.shed(n - 1)
                if rec:
                    recorder.event("overload.shed", peer=peer, n=n)
                continue
            seen_keys.add(key)
            plan.append((_COLD_LEAD, offloaded))
            leads.append((header, run[0]))
            if rec:
                punt_spans.append(
                    recorder.begin_span(
                        "terminus.punt",
                        service=header.service_id,
                        connection=header.connection_id,
                    )
                )
            queue.park((peer, plain), run[1:])
            if rec and len(run) > 1:
                recorder.event("miss.park", peer=peer, n=len(run) - 1)

        # Phase 2 — one batched boundary crossing for every lead.
        verdicts = self._punt_batch(leads) if leads else []
        for punt_span in punt_spans:
            recorder.end_span(punt_span)

        # Phase 3 — egress forwards, apply verdicts and drain, in span order.
        lead_i = 0
        for row, (mode, offloaded) in zip(rows, plan):
            peer, plain, header, run, key = row
            for decision, payload in offloaded:
                self._egress(decision, header, [payload])
            if mode == _COLD_SETTLED:
                continue
            if mode == _COLD_DRAIN:
                decision = cache.lookup_many([key], [len(run)], now=now)[0]
                if rec and decision is not None:
                    recorder.event("terminus.cache_hit", peer=peer, n=len(run))
                self._drain(decision, row, run, now)
                continue
            verdict = verdicts[lead_i]
            lead_i += 1
            if verdict is not None:
                self._apply_verdict(verdict, now)
            flow = (peer, plain)
            count = queue.parked_count(flow)
            if count:
                decision = cache.lookup_many([key], [count], now=now)[0]
                hit = decision is not None
                if rec:
                    recorder.event(
                        "miss.drain" if hit else "miss.replay", peer=peer, n=count
                    )
                self._drain(decision, row, queue.drain(flow, fast=hit), now)

    def _drain(
        self,
        decision: Optional[Decision],
        row: _Row,
        packets: list[ILPPacket],
        now: float,
    ) -> None:
        """Egress a probed run through its decision, or replay it on a miss."""
        if decision is None:
            self._replay(row, packets, now)
            return
        self.stats.fast_path += len(packets)
        self._egress(decision, row[2], [p.payload for p in packets])

    # -- fast path --------------------------------------------------------
    def _egress(
        self, decision: Decision, header: ILPHeader, payloads: list[Payload]
    ) -> None:
        """Queue one decision's egress for a flow's payloads on the gather.

        One encode and one ``qos_src`` extraction serve every target
        without TLV rewrites; a target that rewrites gets its own header
        (one :meth:`~repro.core.ilp.ILPHeader.with_tlvs`) and re-extracts
        from it. Multi-target fan-out transmits packet-major, right away, so
        emission order — and therefore each egress context's nonce
        sequence — is what bursts of one would produce.
        """
        if decision.action is Action.DROP:
            self.stats.drops_by_decision += len(payloads)
            return
        encoded = header.encode()
        qos_src = header.get_str(TLV.SRC_HOST)
        plans: list[tuple[str, bytes, Optional[str]]] = []
        for target in decision.targets:
            if target.tlv_updates:
                out = header.with_tlvs(dict(target.tlv_updates))
                plans.append(
                    (target.peer, out.encode(), out.get_str(TLV.SRC_HOST))
                )
            else:
                plans.append((target.peer, encoded, qos_src))
        if len(plans) == 1:
            peer, encoded, qos_src = plans[0]
            self._gather_add(peer, encoded, qos_src, payloads)
            return
        self._flush_gather()
        for payload in payloads:
            for peer, encoded, qos_src in plans:
                self.send_gather(peer, [(encoded, qos_src, [payload])])

    def apply_decision(
        self, decision: Decision, header: ILPHeader, payload: Payload
    ) -> None:
        """Apply one (cached or recomputed) decision to a single packet."""
        self._egress(decision, header, [payload])
        self._flush_gather()

    def set_transmit(self, transmit: Callable[[str, list[ILPPacket]], int]) -> None:
        """Replace the transmit hook (tests, fault injection, rewiring).

        Called as ``transmit(peer, packets)`` once per next hop, packets in
        emission order; returns how many it took and owns the list afterwards.
        """
        self._transmit = transmit

    # -- slow path ----------------------------------------------------------
    def _punt_barriers(
        self, plain: bytes, run: list[ILPPacket], now: float
    ) -> None:
        """Punt a run of CONTROL/LAST packets strictly one at a time.

        Control and teardown packets always take the slow path: the
        service must see LAST to tear down its state and invalidate cache
        entries (a fast-path hit would hide it). Each punt is a batch of
        one, its verdict applied before the next. The run shares one
        plaintext, decoded once; if it is malformed, every packet of the
        run is a malformed drop.
        """
        try:
            header = ILPHeader.decode(plain)
        except ILPError:
            self.stats.drops_malformed += len(run)
            return
        recorder = self.recorder
        for packet in run:
            span = recorder.begin_span(
                "terminus.punt",
                service=header.service_id,
                connection=header.connection_id,
            )
            try:
                verdict = self._punt_batch([(header, packet)])[0]
            finally:
                recorder.end_span(span)
            if verdict is not None:
                self._apply_verdict(verdict, now)

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
        """Punt packets across the service boundary in one round trip.

        The only crossing: a cold span's leads and a barrier all come
        through here. Per punt: an open breaker short-circuits a
        data packet to its degradation mode without crossing — the
        struggling service never sees it and no invocation latency is
        billed, so healthy services on this SN keep their goodput;
        barriers (CONTROL/LAST) are exempt, because teardown must reach
        the service (or fail closed in :meth:`_degrade`), never be
        short-cut into a forward or a stale replay. Otherwise the punt is
        counted, and a missing service is a no-service drop.

        The terminus owns each punt's deadline (the policy's, else
        ``CostModel.punt_deadline``): a punt whose service would answer
        after it — ``env.service_delay``, ``inf`` when hung — times out
        here and never crosses. It bills its crossing share plus the full
        deadline — the wait *is* the overload cost the breaker then
        removes. Every other eligible punt crosses in one
        :meth:`~repro.core.ipc.InvocationChannel.invoke_batch`, billed as
        one :meth:`~repro.core.ipc.CostModel.batch_invocation_latency`
        (the single marshal round trip, plus one enclave crossing pair
        per enclave-hosted service group) plus ``service_packet`` per
        punt that burned service CPU, plus its service's delay when it
        answered late but in time. A failed punt still crossed the
        boundary and burned that CPU, so it bills like a successful one.
        Failures and timeouts feed the service's breaker and resolve
        through :meth:`_degrade` when a policy is set, as by-service drops
        otherwise.

        Returns one entry per punt, in order (``None`` = no service,
        service error, timeout, or circuit short-circuit — in every case
        the punt installed nothing, so parked followers replay). Verdicts
        are **not** applied here — the caller applies them in order.
        """
        # Everything decided so far leaves with the delay accumulated so
        # far, ahead of whatever the services emit.
        self._flush_gather()
        stats = self.stats
        env = self.env
        cost = self.cost_model
        guard = self.overload
        obs = self.obs
        recorder = self.recorder
        results: list[Optional[Verdict]] = [None] * len(punts)
        eligible: list[int] = []
        # Punts whose service would answer after their deadline -> deadline.
        late: dict[int, float] = {}
        delays = env.service_delay
        enclave_services: set[int] = set()
        policies = guard.policies
        now = self._clock() if policies else 0.0
        for i, (header, packet) in enumerate(punts):
            service_id = header.service_id
            policy = policies.get(service_id) if policies else None
            if (
                policy is not None
                and not header.flags & Flags.SLOW_PATH
                and not guard.breakers[service_id].allow(now)
            ):
                guard.stats.short_circuits += 1
                if recorder.recording:
                    recorder.event(
                        "overload.short_circuit", service=service_id, n=1
                    )
                self._degrade(policy, header, packet)
                continue
            stats.punts += 1
            if not env.has_service(service_id):
                stats.drops_no_service += 1
                continue
            eligible.append(i)
            if delays:
                deadline = (
                    policy.deadline
                    if policy is not None and policy.deadline is not None
                    else cost.punt_deadline
                )
                if delays.get(service_id, 0.0) > deadline:
                    late[i] = deadline
            if env.enclave_for(service_id) is not None:
                enclave_services.add(service_id)
        if not eligible:
            return results
        crossed = [punts[i] for i in eligible if i not in late]
        verdicts = iter(
            self.channel.invoke_batch(env.dispatch_batch, crossed)
            if crossed
            else ()
        )
        crossing = cost.batch_invocation_latency(
            self.channel.mode, len(enclave_services)
        )
        # Per-punt view of the amortized crossing: every eligible punt
        # carries an equal share of the round trip.
        share = crossing / len(eligible)
        sample = share + cost.service_packet
        billed = 0
        slowed = 0
        extra = 0.0
        for i in eligible:
            header, packet = punts[i]
            service_id = header.service_id
            policy = policies.get(service_id) if policies else None
            breaker = (
                guard.breakers.get(service_id) if policy is not None else None
            )
            if i in late:
                guard.stats.deadline_misses += 1
                tripped = breaker is not None and breaker.record_timeout(now)
                waited = late[i]
                self.pending_delay += waited
                if obs is not None:
                    obs.punt_latency.record(share + waited)
                if recorder.recording:
                    recorder.event(
                        "overload.timeout", service=service_id, n=1
                    )
            else:
                verdict = next(verdicts)
                billed += 1
                if verdict is not None:
                    if breaker is not None:
                        breaker.record_success(now)
                    delay = delays.get(service_id, 0.0) if delays else 0.0
                    if delay:
                        extra += delay
                        if obs is not None:
                            slowed += 1
                            obs.punt_latency.record(sample + delay)
                    results[i] = verdict
                    continue
                tripped = breaker is not None and breaker.record_error(now)
            if tripped and recorder.recording:
                recorder.event("overload.breaker_open", service=service_id)
            if policy is not None:
                self._degrade(policy, header, packet)
            else:
                stats.drops_by_service += 1
        self.pending_delay += crossing + cost.service_packet * billed + extra
        if obs is not None:
            obs.punt_latency.record_many(sample, billed - slowed)
        return results

    def _apply_verdict(self, verdict: Verdict, now: float) -> None:
        """Install a verdict's cache entries and queue its emits."""
        if verdict.installs:
            self.cache.install_many(verdict.installs, now=now)
        if verdict.dropped:
            self.stats.drops_by_service += 1
        for emit in verdict.emits:
            self._gather_add(
                emit.peer,
                emit.header.encode(),
                emit.header.get_str(TLV.SRC_HOST),
                [emit.payload],
            )

    def apply_verdict(self, verdict: Verdict) -> None:
        """Install cache entries and transmit a verdict's emitted packets."""
        self._apply_verdict(verdict, self._clock())
        self._flush_gather()

    # -- egress ----------------------------------------------------------
    def _gather_add(
        self,
        peer: str,
        encoded: bytes,
        qos_src: Optional[str],
        payloads: list[Payload],
    ) -> None:
        """Queue payloads sharing one header wire form toward ``peer``."""
        items = self._gather.get(peer)
        if items is None:
            self._gather[peer] = [(encoded, qos_src, payloads)]
        else:
            items.append((encoded, qos_src, payloads))

    def _flush_gather(self) -> None:
        """Transmit everything queued, one :meth:`send_gather` per next hop."""
        gather = self._gather
        if gather:
            self._gather = {}
            for peer, items in gather.items():
                self.send_gather(peer, items)

    def send(
        self,
        peer: str,
        header: ILPHeader,
        payload: Payload,
        *,
        encoded: Optional[bytes] = None,
    ) -> bool:
        """Seal ``header`` for ``peer`` and transmit one packet to it.

        A gather of one. ``encoded`` lets a caller that already holds the
        header's wire form skip re-encoding; it must equal
        ``header.encode()``.
        """
        wire = header.encode() if encoded is None else encoded
        if _san.ENABLED:
            _san_check_header_wire(header, wire)
        qos_src = header.get_str(TLV.SRC_HOST)
        return self.send_gather(peer, [(wire, qos_src, [payload])]) == 1

    def send_run(
        self,
        peer: str,
        encoded: bytes,
        qos_src: Optional[str],
        run: list[ILPPacket],
    ) -> int:
        """Seal one header wire form over a run's packets and transmit."""
        return self.send_gather(
            peer, [(encoded, qos_src, [p.payload for p in run])]
        )

    def send_gather(self, peer: str, items: list[_GatherItem]) -> int:
        """Seal and transmit several flows' packets bound for one next hop.

        The egress — the only place a header is sealed and an outgoing
        packet built. ``items`` is ``[(encoded, qos_src, payloads), ...]``
        in emission order: one keystore probe, one
        :meth:`~repro.core.psp.PSPContext.seal_gather` with the key
        schedule hoisted across every item, one outer L3 header (it is
        frozen, so every copy shares it), one clock read. Nonces advance
        exactly as they would sealing packet by packet in the same order.

        Returns the number of packets transmitted.
        """
        ctx = self.keystore.contexts.get(peer)
        stats = self.stats
        if ctx is None:
            stats.drops_no_route += sum(len(item[2]) for item in items)
            return 0
        if _san.ENABLED:
            # One check per item: its payloads share a single wire form.
            for encoded, _qos, _payloads in items:
                _san_check_header_wire(ILPHeader.decode(encoded), encoded)
        wires = ctx.seal_gather(
            [(encoded, len(payloads)) for encoded, _qos, payloads in items]
        )
        recorder = self.recorder
        if recorder.recording:
            recorder.event("terminus.seal", peer=peer, n=len(wires))
        l3 = _outer_l3(self.node_address, peer)
        created = self._clock()
        wire = iter(wires)
        out = [
            ILPPacket(
                l3=l3,
                ilp_wire=next(wire),
                payload=payload,
                created_at=created,
                qos_src=qos_src,
            )
            for _encoded, qos_src, payloads in items
            for payload in payloads
        ]
        sent = self._transmit(peer, out)
        stats.packets_out += sent
        if sent:
            if recorder.recording:
                recorder.event("terminus.send", peer=peer, n=sent)
            obs = self.obs
            if obs is not None:
                obs.terminus_latency.record_many(self.pending_delay, sent)
        return sent
