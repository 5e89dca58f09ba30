"""DDoS protection service (§1.2, §6).

Protects a subscribed destination at the *first-hop SNs of the senders* —
the InterEdge advantage being that scrubbing happens at the edge where
traffic enters, long before it concentrates at the victim.

Mechanisms (both standard industry practice):

* per-source token-bucket rate limiting toward protected destinations;
* under attack (an operator signal or automatic trigger), unknown sources
  must present a hashcash-style **admission puzzle** solution in a TLV;
  solving costs the sender CPU, making large-scale floods expensive.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Optional

from ..core.ilp import ILPHeader, TLV
from ..core.service_module import ServiceModule, Verdict, WellKnownService
from ..sched import TokenBucket
from .common import deliver_toward

TLV_PUZZLE_SOLUTION = TLV.SERVICE_PRIVATE + 2
OP_PROTECT = b"protect"
OP_UNPROTECT = b"unprotect"
OP_ATTACK_MODE = b"attack-mode"
OP_CALM_MODE = b"calm-mode"


@dataclass
class ProtectionPolicy:
    rate_bps: float = 1_000_000.0  # per-source allowance
    burst_bytes: int = 15_000
    puzzle_difficulty: int = 12  # leading zero bits required under attack
    #: automatic attack-mode trigger: this many rate-limit drops toward one
    #: destination within ``trigger_window`` seconds flips it to attack mode
    auto_trigger_drops: int = 100
    trigger_window: float = 5.0


def make_puzzle_challenge(dest: str, source: str, epoch: int) -> bytes:
    """The deterministic challenge a sender must solve for (dest, epoch)."""
    return hashlib.sha256(f"ddos|{dest}|{source}|{epoch}".encode()).digest()


def solve_puzzle(challenge: bytes, difficulty: int, max_tries: int = 1 << 22) -> bytes:
    """Client-side: find a nonce giving ``difficulty`` leading zero bits."""
    for i in range(max_tries):
        nonce = i.to_bytes(8, "big")
        if _leading_zero_bits(hashlib.sha256(challenge + nonce).digest()) >= difficulty:
            return nonce
    raise RuntimeError("puzzle too hard for max_tries")


def _leading_zero_bits(digest: bytes) -> int:
    bits = 0
    for byte in digest:
        if byte == 0:
            bits += 8
            continue
        for shift in range(7, -1, -1):
            if byte >> shift:
                return bits + (7 - shift)
        break
    return bits


class DDoSProtectionService(ServiceModule):
    """Edge scrubbing for subscribed destinations."""

    SERVICE_ID = WellKnownService.DDOS_PROTECT
    NAME = "ddos-protect"
    VERSION = "1.0"

    def __init__(self, policy: Optional[ProtectionPolicy] = None) -> None:
        super().__init__()
        self.policy = policy or ProtectionPolicy()
        self.protected: set[str] = set()
        self.attack_mode: set[str] = set()
        self.puzzle_epoch = 0
        self._buckets: dict[tuple[str, str], TokenBucket] = {}
        self._admitted_sources: dict[str, set[str]] = {}
        #: dest -> (window start, drops in window) for auto attack detection
        self._drop_windows: dict[str, tuple[float, int]] = {}
        self.dropped_rate = 0
        self.dropped_puzzle = 0
        self.auto_triggers = 0

    # -- control ----------------------------------------------------------
    def handle_control(self, header: ILPHeader, packet: Any) -> Verdict:
        op = header.tlvs.get(TLV.SERVICE_OPTS, b"")
        dest = header.get_str(TLV.DEST_ADDR) or header.get_str(TLV.SRC_HOST)
        if dest is None:
            return Verdict.drop()
        if op == OP_PROTECT:
            self.protected.add(dest)
        elif op == OP_UNPROTECT:
            self.protected.discard(dest)
            self.attack_mode.discard(dest)
        elif op == OP_ATTACK_MODE:
            self.attack_mode.add(dest)
            self.puzzle_epoch += 1
            self._admitted_sources.pop(dest, None)
        elif op == OP_CALM_MODE:
            self.attack_mode.discard(dest)
        else:
            return Verdict.drop()
        return Verdict(dropped=False)

    # -- datapath ----------------------------------------------------------
    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        dest = header.get_str(TLV.DEST_ADDR)
        source = header.get_str(TLV.SRC_HOST)
        if dest is None:
            return Verdict.drop()
        if dest not in self.protected or source is None:
            return deliver_toward(self.ctx, header, packet.payload)

        # Attack mode: unknown sources must have solved the puzzle.
        if dest in self.attack_mode:
            admitted = self._admitted_sources.setdefault(dest, set())
            if source not in admitted:
                solution = header.tlvs.get(TLV_PUZZLE_SOLUTION)
                if solution is None or not self._check_puzzle(dest, source, solution):
                    self.dropped_puzzle += 1
                    return Verdict.drop()
                admitted.add(source)

        # Always-on per-source rate limit.
        bucket = self._buckets.get((dest, source))
        if bucket is None:
            bucket = TokenBucket(self.policy.rate_bps, self.policy.burst_bytes)
            self._buckets[(dest, source)] = bucket
        if not bucket.try_consume(packet.wire_size, self.ctx.now()):
            self.dropped_rate += 1
            self._note_drop(dest)
            return Verdict.drop()
        return deliver_toward(self.ctx, header, packet.payload)

    def _note_drop(self, dest: str) -> None:
        """Auto-escalation: sustained rate-limit drops flip attack mode."""
        now = self.ctx.now() if self.ctx else 0.0
        start, count = self._drop_windows.get(dest, (now, 0))
        if now - start > self.policy.trigger_window:
            start, count = now, 0
        count += 1
        self._drop_windows[dest] = (start, count)
        if count >= self.policy.auto_trigger_drops and dest not in self.attack_mode:
            self.attack_mode.add(dest)
            self.puzzle_epoch += 1
            self._admitted_sources.pop(dest, None)
            self.auto_triggers += 1

    def _check_puzzle(self, dest: str, source: str, solution: bytes) -> bool:
        challenge = make_puzzle_challenge(dest, source, self.puzzle_epoch)
        return (
            _leading_zero_bits(hashlib.sha256(challenge + solution).digest())
            >= self.policy.puzzle_difficulty
        )


def subscribe_protection(host) -> bool:
    """Victim-side helper: enroll this host for DDoS protection."""
    return host.send_control(
        DDoSProtectionService.SERVICE_ID,
        {TLV.SERVICE_OPTS: OP_PROTECT, TLV.DEST_ADDR: host.address.encode()},
    )
