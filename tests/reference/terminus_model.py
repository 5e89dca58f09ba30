"""Executable specification of the pipe-terminus, one packet at a time.

A literal transcription of Figure 2 / §4 (and Appendix B.1 for offload)::

    open -> decode -> barrier? -> cache -> offload -> punt -> apply verdict

It is the *oracle* the production terminus is checked against
(``tests/test_terminus_conformance.py``), so it deliberately shares no
code with :mod:`repro.core.pipe_terminus` and none of its machinery: no
bursts, no sharding, no miss queue, no gather, no batched boundary
crossing, no sealing. It keeps its own match-action table and its own
counters, its own offload-rule interpreter and meters, and records what
it would transmit as plaintext projections ``(next hop, header plaintext,
payload bytes, qos_src)``.

Out of scope, as in the paper's figure: overload policies, admission
control, cache eviction (the table is unbounded) and simulated latency.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Optional

from repro.core.decision_cache import Action, Decision
from repro.core.ilp import Flags, ILPError, ILPHeader, TLV
from repro.core.packet import ILPPacket, Payload
from repro.core.psp import PSPContext, PSPError
from repro.core.service_module import ServiceError, ServiceModule

#: One transmitted packet, as the next hop would see it after opening it.
Projection = tuple[str, bytes, bytes, Optional[str]]
CacheKey = tuple[str, int, int]
#: One offload rule in the model's own terms: ``(matches, action)``; every
#: match ``(field, operand)`` must hold, then ``action = (kind, operand)``
#: applies. Field and kind names are App. B.1's ASIC-parser fields and
#: actions, spelled as the production ``MatchField`` / ``ActionKind`` values.
Rule = tuple[tuple[tuple[str, Any], ...], tuple[str, Any]]


class Meter:
    """A token bucket ``burst`` bytes deep, refilled at ``rate_bps / 8`` B/s
    from time 0."""

    def __init__(self, rate_bps: float, burst: int) -> None:
        self.rate = rate_bps / 8.0
        self.burst = float(burst)
        self.tokens = float(burst)
        self.at = 0.0

    def admit(self, size: int, now: float) -> bool:
        if now > self.at:
            self.tokens = min(self.burst, self.tokens + (now - self.at) * self.rate)
            self.at = now
        if self.tokens < size:
            return False
        self.tokens -= size
        return True


def _holds(match: tuple[str, Any], src: str, header: ILPHeader, size: int) -> bool:
    field, operand = match
    if field == "connection_id":
        return header.connection_id == operand
    if field == "flags":
        return bool(header.flags & operand)
    if field == "tlv_present":
        return operand in header.tlvs
    if field == "tlv_equals":
        return header.tlvs.get(operand[0]) == operand[1]
    if field == "payload_len_gt":
        return size > operand
    if field == "src_addr":
        return src == operand
    raise ValueError(f"unknown match field {field!r}")


class ReferenceTerminus:
    """Figure 2, per packet. Feed it with :meth:`receive`; read ``out``,
    ``stats`` (``TerminusStats`` field names) and ``cache_stats``
    (``CacheStats`` field names)."""

    def __init__(
        self,
        peers: dict[str, bytes],
        services: dict[int, ServiceModule],
        programs: Optional[dict[int, list[Rule]]] = None,
        meters: Optional[dict[tuple[int, str], Meter]] = None,
    ) -> None:
        #: One PSP association per ILP peer (§4): opens what the peer sealed.
        self.contexts = {peer: PSPContext(secret) for peer, secret in peers.items()}
        self.services = services
        #: App. B.1: per-service offload rules, in order, and named meters.
        self.programs = programs or {}
        self.meters = meters or {}
        #: COUNT-action counters: (service, counter name) -> packets.
        self.counters: Counter[tuple[int, str]] = Counter()
        #: The match-action table: (L3 src, service, connection) -> decision.
        self.table: dict[CacheKey, Decision] = {}
        self.stats: Counter[str] = Counter()
        self.cache_stats: Counter[str] = Counter()
        self.out: list[Projection] = []

    # -- the decision cache, as §4 describes it ---------------------------
    def install(self, key: CacheKey, decision: Decision) -> None:
        if key not in self.table:
            self.cache_stats["installs"] += 1
        self.table[key] = decision

    def _lookup(self, key: CacheKey) -> Optional[Decision]:
        self.cache_stats["lookups"] += 1
        decision = self.table.get(key)
        self.cache_stats["hits" if decision is not None else "misses"] += 1
        return decision

    # -- Figure 2 ---------------------------------------------------------
    def receive(self, packet: ILPPacket, now: float = 0.0) -> None:
        stats = self.stats
        stats["packets_in"] += 1
        # 1. Decrypt the ILP header with the context of the outer L3 source.
        src = packet.l3.src
        ctx = self.contexts.get(src)
        if ctx is None:
            stats["drops_no_peer"] += 1
            return
        try:
            plaintext = ctx.open(packet.ilp_wire)
        except PSPError:
            stats["drops_auth"] += 1
            return
        try:
            header = ILPHeader.decode(plaintext)
        except ILPError:
            stats["drops_malformed"] += 1
            return
        # Control and teardown packets always go to the service.
        if header.flags & (Flags.CONTROL | Flags.LAST):
            self._punt(header, packet)
            return
        # 2. Query the decision cache on (L3 src, service ID, connection ID).
        decision = self._lookup((src, header.service_id, header.connection_id))
        if decision is not None:
            # 3. Hit: forward a copy per target, rewriting TLVs as told.
            stats["fast_path"] += 1
            self._apply(decision, header, packet.payload)
            return
        # App. B.1: an offload program sits between the cache and the punt.
        decision = self._offload(src, header, packet.payload.wire_size, now)
        if decision is not None:
            if decision.action is Action.DROP:
                stats["drops_by_offload"] += 1
                return
            stats["offload_path"] += 1
            self._apply(decision, header, packet.payload)
            return
        # 4. Miss: punt the decrypted header + packet to the service module.
        self._punt(header, packet)

    def _offload(
        self, src: str, header: ILPHeader, size: int, now: float
    ) -> Optional[Decision]:
        """The first rule that resolves the packet, in program order: COUNT
        and an in-rate METER fall through; FORWARD forwards; DROP and an
        over-rate METER drop. None: the program passes the packet on."""
        sid = header.service_id
        for matches, (kind, operand) in self.programs.get(sid, ()):
            if not all(_holds(m, src, header, size) for m in matches):
                continue
            if kind == "count":
                self.counters[sid, operand] += 1
            elif kind == "forward":
                return Decision.forward(operand)
            elif kind == "drop":
                return Decision.drop()
            elif not self.meters[sid, operand].admit(size, now):  # "meter"
                return Decision.drop()
        return None

    def _punt(self, header: ILPHeader, packet: ILPPacket) -> None:
        stats = self.stats
        stats["punts"] += 1
        service = self.services.get(header.service_id)
        if service is None:
            stats["drops_no_service"] += 1
            return
        handler: Any = (
            service.handle_control if header.is_control else service.handle_packet
        )
        try:
            verdict = handler(header, packet)
        except ServiceError:
            stats["drops_by_service"] += 1
            return
        # The verdict may install cache entries and emit packets.
        for key, decision in verdict.installs:
            self.install((key.src, key.service_id, key.connection_id), decision)
        if verdict.dropped:
            stats["drops_by_service"] += 1
        for emit in verdict.emits:
            self._transmit(emit.peer, emit.header, emit.payload)

    def _apply(self, decision: Decision, header: ILPHeader, payload: Payload) -> None:
        if decision.action is Action.DROP:
            self.stats["drops_by_decision"] += 1
            return
        for target in decision.targets:
            tlvs = {**header.tlvs, **dict(target.tlv_updates)}
            out = ILPHeader(header.service_id, header.connection_id, header.flags, tlvs)
            self._transmit(target.peer, out, payload)

    def _transmit(self, peer: str, header: ILPHeader, payload: Payload) -> None:
        """Seal for ``peer`` and send — recorded here as what ``peer`` opens."""
        if peer not in self.contexts:
            self.stats["drops_no_route"] += 1
            return
        self.stats["packets_out"] += 1
        self.out.append(
            (peer, header.encode(), payload.data, header.get_str(TLV.SRC_HOST))
        )

    def per_flow(self) -> dict[tuple[str, bytes], list[Projection]]:
        return per_flow(self.out)


def per_flow(out: list[Projection]) -> dict[tuple[str, bytes], list[Projection]]:
    """Egress regrouped by (next hop, header plaintext), order kept within."""
    flows: dict[tuple[str, bytes], list[Projection]] = {}
    for row in out:
        flows.setdefault((row[0], row[1]), []).append(row)
    return flows
