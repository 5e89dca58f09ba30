"""Firewall / NGFW service (§1.2, §3.2 operator-imposed example).

Two deployment shapes, matching the paper:

* :class:`ImposedFirewall` — the operator-imposed form a pass-through SN
  runs on *all* traffic entering/leaving an enterprise (§3.2's third
  invocation mode). Implements the ``impose`` protocol.
* :class:`FirewallService` — the standardized service-module form (an
  in-network next-generation firewall) that endpoints can invoke, with
  payload inspection via the execution environment's regex library.

Rules are ordered allow/deny entries over (source prefix, dest prefix,
service id), plus optional payload-signature rules for the NGFW.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Any, Optional

from ..core.ilp import ILPHeader, TLV
from ..core.packet import Payload
from ..core.service_module import ServiceModule, Verdict, WellKnownService
from .common import deliver_toward


@dataclass(frozen=True)
class Rule:
    """One ordered firewall rule; None fields match anything."""

    allow: bool
    src_prefix: Optional[str] = None
    dst_prefix: Optional[str] = None
    service_id: Optional[int] = None

    def matches(
        self, src: Optional[str], dst: Optional[str], service_id: int
    ) -> bool:
        if self.service_id is not None and self.service_id != service_id:
            return False
        if self.src_prefix is not None:
            if src is None:
                return False
            try:
                if ipaddress.IPv4Address(src) not in ipaddress.IPv4Network(
                    self.src_prefix
                ):
                    return False
            except ValueError:
                return False
        if self.dst_prefix is not None:
            if dst is None:
                return False
            try:
                if ipaddress.IPv4Address(dst) not in ipaddress.IPv4Network(
                    self.dst_prefix
                ):
                    return False
            except ValueError:
                return False
        return True


class RuleSet:
    """First-match-wins rule evaluation with a default policy."""

    def __init__(self, default_allow: bool = True) -> None:
        self.rules: list[Rule] = []
        self.default_allow = default_allow
        self.evaluations = 0
        self.denials = 0

    def add(self, rule: Rule) -> None:
        self.rules.append(rule)

    def check(self, src: Optional[str], dst: Optional[str], service_id: int) -> bool:
        self.evaluations += 1
        for rule in self.rules:
            if rule.matches(src, dst, service_id):
                if not rule.allow:
                    self.denials += 1
                return rule.allow
        if not self.default_allow:
            self.denials += 1
        return self.default_allow


class ImposedFirewall:
    """The pass-through-SN form: ``impose()`` on every packet (§3.2)."""

    NAME = "imposed-firewall"

    def __init__(self, rules: Optional[RuleSet] = None) -> None:
        self.rules = rules or RuleSet()

    def impose(
        self, header: ILPHeader, payload: Payload, inbound: bool
    ) -> Optional[ILPHeader]:
        src = header.get_str(TLV.SRC_HOST)
        dst = header.get_str(TLV.DEST_ADDR)
        if self.rules.check(src, dst, header.service_id):
            return header
        return None


class FirewallService(ServiceModule):
    """NGFW as an invocable service: address rules + payload signatures."""

    SERVICE_ID = WellKnownService.FIREWALL
    NAME = "firewall"
    VERSION = "1.0"

    def __init__(self, rules: Optional[RuleSet] = None) -> None:
        super().__init__()
        self.rules = rules or RuleSet()
        self.signature_rules: list[str] = []
        self.payload_blocks = 0

    def add_signature(self, name: str, pattern: bytes) -> None:
        """Register a payload-inspection signature (regex library)."""
        assert self.ctx is not None
        self.ctx.libs.get("regex").add_rule(name, pattern)
        self.signature_rules.append(name)

    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        src = header.get_str(TLV.SRC_HOST)
        dst = header.get_str(TLV.DEST_ADDR)
        if not self.rules.check(src, dst, header.service_id):
            return Verdict.drop()
        if self.signature_rules and packet.payload.data:
            regex = self.ctx.libs.get("regex")
            for name in self.signature_rules:
                if regex.match(name, packet.payload.data):
                    self.payload_blocks += 1
                    return Verdict.drop()
        # Clean traffic: forward like basic delivery.
        return deliver_toward(self.ctx, header, packet.payload)
