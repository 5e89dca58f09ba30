"""Pipe-terminus offload programs (Appendix B.1).

Appendix B: "our design allows services to offload functionality to the
pipe-terminus if a programmable ASIC with an appropriate isolation
mechanism (e.g., using Menshen) is used." This module models that:

* an :class:`OffloadProgram` is a bounded sequence of match+action rules
  over the fields an ASIC parser exposes (service ID, connection ID,
  selected TLVs, payload length) — no arbitrary computation;
* actions are the ASIC-feasible set: forward to a peer, drop, count,
  rate-limit (token-bucket meters are standard ASIC hardware);
* a :class:`TerminusOffloadEngine` enforces Menshen-style isolation:
  per-service quotas on rules and meters, with programs unable to match
  on (or affect) other services' traffic.

The terminus consults offload programs *between* the decision cache and
the slow-path punt, as a second match-action table: a cache hit is still
the fastest path; a rule that resolves a packet answers with an ordinary
:class:`~repro.core.decision_cache.Decision` (forward or drop), avoiding
the slow path without the generality of software.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from .decision_cache import Decision
from .ilp import ILPHeader
from ..sched.token_bucket import TokenBucket


class OffloadError(Exception):
    """Raised on quota violations or malformed programs."""


class MatchField(enum.Enum):
    """Header fields an ASIC parser exposes to offload rules."""

    CONNECTION_ID = "connection_id"
    FLAGS = "flags"
    TLV_PRESENT = "tlv_present"  # operand: TLV type
    TLV_EQUALS = "tlv_equals"  # operand: (TLV type, value bytes)
    PAYLOAD_LEN_GT = "payload_len_gt"  # operand: threshold
    SRC_ADDR = "src_addr"  # operand: exact source


@dataclass(frozen=True)
class Match:
    field: MatchField
    operand: Any = None

    def evaluate(self, src: str, header: ILPHeader, payload_len: int) -> bool:
        if self.field is MatchField.CONNECTION_ID:
            return header.connection_id == self.operand
        if self.field is MatchField.FLAGS:
            return bool(header.flags & self.operand)
        if self.field is MatchField.TLV_PRESENT:
            return self.operand in header.tlvs
        if self.field is MatchField.TLV_EQUALS:
            tlv_type, value = self.operand
            return header.tlvs.get(tlv_type) == value
        if self.field is MatchField.PAYLOAD_LEN_GT:
            return payload_len > self.operand
        if self.field is MatchField.SRC_ADDR:
            return src == self.operand
        return False


class ActionKind(enum.Enum):
    FORWARD = "forward"  # operand: peer address
    DROP = "drop"
    COUNT = "count"  # falls through to the next rule / slow path
    METER = "meter"  # operand: meter name; over-rate packets drop


@dataclass(frozen=True)
class OffloadAction:
    kind: ActionKind
    operand: Any = None


@dataclass
class OffloadRule:
    """All matches must hold (AND); then the action applies."""

    matches: tuple[Match, ...]
    action: OffloadAction
    hits: int = 0

    def matches_packet(self, src: str, header: ILPHeader, payload_len: int) -> bool:
        return all(m.evaluate(src, header, payload_len) for m in self.matches)


@dataclass
class OffloadProgram:
    """One service's rules + meters at the terminus."""

    service_id: int
    rules: list[OffloadRule] = field(default_factory=list)
    meters: dict[str, TokenBucket] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class OffloadQuota:
    """The Menshen-style per-service resource bound."""

    max_rules: int = 16
    max_meters: int = 4


#: The one drop decision every DROP rule and over-rate meter answers with.
_DROP = Decision.drop()


class TerminusOffloadEngine:
    """Holds every service's offload program with isolation enforced."""

    def __init__(self, quota: Optional[OffloadQuota] = None) -> None:
        self.quota = quota if quota is not None else OffloadQuota()
        self._programs: dict[int, OffloadProgram] = {}

    # -- programming (service-facing API) ----------------------------------
    def program_for(self, service_id: int) -> OffloadProgram:
        return self._programs.setdefault(service_id, OffloadProgram(service_id))

    def install_rule(
        self, service_id: int, matches: tuple[Match, ...], action: OffloadAction
    ) -> OffloadRule:
        """Append a rule to the service's program; a rejected call changes
        nothing (no program is created for it)."""
        program = self._programs.get(service_id) or OffloadProgram(service_id)
        if len(program.rules) >= self.quota.max_rules:
            raise OffloadError(
                f"service {service_id} exceeded its rule quota "
                f"({self.quota.max_rules})"
            )
        if action.kind is ActionKind.METER and action.operand not in program.meters:
            raise OffloadError(f"meter {action.operand!r} not provisioned")
        rule = OffloadRule(matches=matches, action=action)
        program.rules.append(rule)
        self._programs[service_id] = program
        return rule

    def provision_meter(
        self, service_id: int, name: str, rate_bps: float, burst_bytes: int
    ) -> None:
        """Provision (or re-provision, refilled) a named meter; a rejected
        call changes nothing. Re-provisioning does not count against the
        quota: the service still holds the same number of meters."""
        program = self._programs.get(service_id) or OffloadProgram(service_id)
        meters = program.meters
        if name not in meters and len(meters) >= self.quota.max_meters:
            raise OffloadError(
                f"service {service_id} exceeded its meter quota "
                f"({self.quota.max_meters})"
            )
        meters[name] = TokenBucket(rate_bps, burst_bytes)
        self._programs[service_id] = program

    def programs(self) -> tuple[OffloadProgram, ...]:
        """All installed programs (inspection/tests)."""
        return tuple(self._programs.values())

    def has_program(self, service_id: int) -> bool:
        """Cheap datapath guard: does any program exist for this service?

        The terminus checks this before :meth:`process` so that services
        with nothing offloaded (the overwhelmingly common case) cost one
        dict probe per *run* instead of a full engine call per packet.
        """
        return service_id in self._programs

    # -- datapath -----------------------------------------------------------
    def process(
        self,
        src: str,
        header: ILPHeader,
        payload_len: int,
        now: float,
    ) -> Optional[Decision]:
        """Run the owning service's program over a packet.

        Rules apply in order: COUNT and an in-rate METER fall through; the
        first FORWARD answers ``Decision.forward(peer)``, and a DROP or an
        over-rate METER the shared ``Decision.drop()``. ``None`` means no
        rule resolved the packet, which goes on to the slow path.

        Isolation is structural: only the program registered under the
        packet's own service ID ever sees it.
        """
        program = self._programs.get(header.service_id)
        if program is None:
            return None
        for rule in program.rules:
            if not rule.matches_packet(src, header, payload_len):
                continue
            rule.hits += 1
            action = rule.action
            if action.kind is ActionKind.COUNT:
                program.counters[str(action.operand)] = (
                    program.counters.get(str(action.operand), 0) + 1
                )
                continue  # counting falls through
            if action.kind is ActionKind.METER:
                meter = program.meters[action.operand]
                if meter.try_consume(payload_len, now):
                    continue  # within rate: fall through
                return _DROP
            if action.kind is ActionKind.DROP:
                return _DROP
            if action.kind is ActionKind.FORWARD:
                return Decision.forward(action.operand)
        return None

    def stats(self) -> dict[int, dict[str, Any]]:
        return {
            sid: {
                "rules": len(p.rules),
                "meters": len(p.meters),
                "counters": dict(p.counters),
                "rule_hits": [r.hits for r in p.rules],
            }
            for sid, p in self._programs.items()
        }
