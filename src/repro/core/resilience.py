"""Pipe health and border-SN failover (§3.3 resilience, made operational).

The paper's resilience story has two halves. PSP already tolerates
arbitrary loss and reordering on a pipe; what production needs on top is
*detection* (is the SN at the other end of this pipe still alive?) and
*repair* (if a designated border SN dies, the edomain must publish an
alternate so inter-edomain traffic keeps flowing without endpoint
involvement). This module supplies both:

* :class:`KeepaliveFrame` — a tiny liveness probe exchanged over idle
  SN↔SN pipes. Data traffic counts as liveness too (the terminus reports
  per-peer activity), so busy pipes carry no probe overhead.
* :class:`FailureDetector` — a phi-accrual-style detector: it tracks an
  EWMA of heartbeat inter-arrival times and grades silence as a multiple
  of that mean (``phi``). State walks up → suspect → dead as phi crosses
  the configured multiples, and snaps back to up (counting a recovery)
  the moment the peer is heard again.
* :class:`PipeHealthMonitor` — one per SN: sends keepalives over idle
  watched pipes on a fixed virtual-time period, answers probes, feeds
  the detectors, and fires ``on_peer_dead`` / ``on_peer_recovered``.
* :class:`FailoverCoordinator` — the control-plane reaction. When a
  dead peer turns out to be an edomain's designated border SN, the
  coordinator picks the first alive alternate, pre-establishes its
  border pipes, publishes the change through the edomain **core stores**
  (``resilience/border`` and ``resilience/remote-border/<edomain>``
  keys), purges the dead SN from membership state, and evicts every
  decision-cache entry that forwarded via the dead SN — so in-flight
  connections re-resolve onto the new border on their next punt, with no
  endpoint changes.
* :class:`ResilienceAgent` — the SN-side watcher: a core-store prefix
  watch that remaps the SN's border-peer table whenever the store's
  resilience keys change (and resyncs on restart, since a crashed SN
  misses updates).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from .. import sanitize as _san
from ..netsim.engine import PeriodicTask
from ..obs.recorder import NULL_RECORDER

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..control.core_store import CoreStore
    from ..obs.recorder import FlightRecorder, NullRecorder
    from .federation import InterEdge
    from .service_node import ServiceNode


class ResilienceError(Exception):
    """Raised for invalid resilience configuration."""


#: Wire size of a keepalive probe: outer L3 (20) + minimal sealed ILP
#: control stub (4). Small enough to be negligible against data traffic.
KEEPALIVE_WIRE_SIZE = 24


@dataclass(slots=True)
class KeepaliveFrame:
    """A liveness probe (or its echo) on an SN↔SN pipe."""

    src: str
    dst: str
    seq: int
    reply: bool = False
    wire_size: int = KEEPALIVE_WIRE_SIZE


class PeerState(enum.Enum):
    UP = "up"
    SUSPECT = "suspect"
    DEAD = "dead"


#: Severity order used to make silence-driven transitions monotonic.
_SEVERITY = {PeerState.UP: 0, PeerState.SUSPECT: 1, PeerState.DEAD: 2}


class FailureDetector:
    """Phi-accrual-style failure detector for one peer.

    ``phi(now)`` is the current silence measured in multiples of the
    EWMA mean heartbeat interval. Crossing ``suspect_multiple`` marks the
    peer SUSPECT; crossing ``dead_multiple`` marks it DEAD. Hearing the
    peer at any point snaps the state back to UP (a DEAD → UP transition
    increments :attr:`recoveries`).

    Inter-arrival samples are clamped to ``4 × expected_interval`` so one
    long outage does not inflate the mean and blunt the next detection;
    the mean is floored at half the expected interval so bursty arrivals
    cannot make the detector hair-triggered.
    """

    def __init__(
        self,
        expected_interval: float,
        suspect_multiple: float = 3.0,
        dead_multiple: float = 6.0,
        ewma_alpha: float = 0.2,
    ) -> None:
        if expected_interval <= 0:
            raise ResilienceError("expected_interval must be positive")
        if not 0 < suspect_multiple < dead_multiple:
            raise ResilienceError("need 0 < suspect_multiple < dead_multiple")
        self.expected_interval = expected_interval
        self.suspect_multiple = suspect_multiple
        self.dead_multiple = dead_multiple
        self.ewma_alpha = ewma_alpha
        self.mean_interval = expected_interval
        self.last_heard: Optional[float] = None
        self.state = PeerState.UP
        #: (virtual time, new state) — the full transition history.
        self.transitions: list[tuple[float, PeerState]] = []
        self.recoveries = 0

    def heard(self, now: float) -> PeerState:
        """Record a heartbeat (probe, echo, or data); returns the *prior* state."""
        previous = self.state
        if self.last_heard is not None:
            sample = min(now - self.last_heard, 4.0 * self.expected_interval)
            self.mean_interval += self.ewma_alpha * (sample - self.mean_interval)
            self.mean_interval = max(
                self.mean_interval, 0.5 * self.expected_interval
            )
        self.last_heard = now
        if previous is not PeerState.UP:
            if previous is PeerState.DEAD:
                self.recoveries += 1
            self._transition(now, PeerState.UP)
        return previous

    def phi(self, now: float) -> float:
        """Silence since last heartbeat, in multiples of the mean interval."""
        if self.last_heard is None:
            return 0.0
        return (now - self.last_heard) / self.mean_interval

    def evaluate(self, now: float) -> PeerState:
        """Grade current silence; only escalates (hearing is what de-escalates)."""
        phi = self.phi(now)
        if phi >= self.dead_multiple:
            target = PeerState.DEAD
        elif phi >= self.suspect_multiple:
            target = PeerState.SUSPECT
        else:
            target = PeerState.UP
        if _SEVERITY[target] > _SEVERITY[self.state]:
            self._transition(now, target)
        return self.state

    def reset(self, now: float) -> None:
        """Fresh start (e.g. after the *local* SN restarts): assume alive."""
        self.last_heard = now
        self.mean_interval = self.expected_interval
        if self.state is not PeerState.UP:
            self._transition(now, PeerState.UP)

    def _transition(self, now: float, state: PeerState) -> None:
        self.state = state
        self.transitions.append((now, state))


@dataclass
class PipeHealthStats:
    """Counters the monitor keeps per SN (surfaced via monitoring.py)."""

    keepalives_sent: int = 0
    keepalives_received: int = 0
    echoes_sent: int = 0
    deaths_detected: int = 0
    recoveries_detected: int = 0


class PipeHealthMonitor:
    """Keepalive scheduling + failure detection for one SN's pipes.

    The monitor ticks every ``interval`` virtual seconds. On each tick,
    for every watched peer: if the pipe has been idle for at least one
    interval (no data, probe, or echo heard), a keepalive is sent; then
    the peer's detector is evaluated and DEAD transitions fire
    :attr:`on_peer_dead`. Hearing a dead peer again fires
    :attr:`on_peer_recovered`.
    """

    def __init__(
        self,
        sn: "ServiceNode",
        interval: float = 0.25,
        suspect_multiple: float = 3.0,
        dead_multiple: float = 6.0,
    ) -> None:
        self.sn = sn
        self.interval = interval
        self.suspect_multiple = suspect_multiple
        self.dead_multiple = dead_multiple
        self.detectors: dict[str, FailureDetector] = {}
        self.stats = PipeHealthStats()
        self.on_peer_dead: Optional[Callable[[str], None]] = None
        self.on_peer_recovered: Optional[Callable[[str], None]] = None
        self._seq = itertools.count()
        self._task = PeriodicTask(sn.sim, interval, self._tick)
        self.running = False

    # -- lifecycle ---------------------------------------------------------
    def start(self, initial_delay: Optional[float] = None) -> None:
        if not self.running:
            self.running = True
            self._task.start(initial_delay=initial_delay)

    def stop(self) -> None:
        if self.running:
            self.running = False
            self._task.stop()

    def reset(self) -> None:
        """Give every peer a fresh grace period (local SN just restarted)."""
        now = self.sn.sim.now
        for detector in self.detectors.values():
            detector.reset(now)

    # -- peer registry -----------------------------------------------------
    def watch_peer(self, address: str) -> FailureDetector:
        detector = self.detectors.get(address)
        if detector is None:
            detector = FailureDetector(
                self.interval, self.suspect_multiple, self.dead_multiple
            )
            detector.last_heard = self.sn.sim.now  # alive until proven silent
            self.detectors[address] = detector
        return detector

    def state_counts(self) -> dict[PeerState, int]:
        counts = {state: 0 for state in PeerState}
        for detector in self.detectors.values():
            counts[detector.state] += 1
        return counts

    # -- liveness input ----------------------------------------------------
    def heard(self, peer: str) -> None:
        """Any traffic from ``peer`` counts as a heartbeat."""
        detector = self.detectors.get(peer)
        if detector is None:
            return
        previous = detector.heard(self.sn.sim.now)
        if previous is PeerState.DEAD:
            self.stats.recoveries_detected += 1
            if self.on_peer_recovered is not None:
                self.on_peer_recovered(peer)

    def handle_keepalive(self, frame: KeepaliveFrame) -> None:
        self.stats.keepalives_received += 1
        self.heard(frame.src)
        if not frame.reply:
            self._send(frame.src, reply=True, seq=frame.seq)

    # -- the periodic tick -------------------------------------------------
    def _tick(self) -> None:
        sn = self.sn
        if sn.failed:
            return  # a crashed SN neither probes nor judges
        now = sn.sim.now
        # Snapshot: a death callback may establish new pipes (and thus
        # register new detectors) while we iterate.
        for address, detector in list(self.detectors.items()):
            if (
                detector.last_heard is None
                or now - detector.last_heard >= self.interval
            ):
                self._send(address, reply=False, seq=next(self._seq))
            previous = detector.state
            current = detector.evaluate(now)
            if current is PeerState.DEAD and previous is not PeerState.DEAD:
                self.stats.deaths_detected += 1
                if self.on_peer_dead is not None:
                    self.on_peer_dead(address)

    def _send(self, peer: str, reply: bool, seq: int) -> None:
        node = self.sn.peer_node(peer)
        if node is None or not self.sn.has_link_to(node):
            return
        frame = KeepaliveFrame(src=self.sn.address, dst=peer, seq=seq, reply=reply)
        self.sn.send_frame(frame, node)
        if reply:
            self.stats.echoes_sent += 1
        else:
            self.stats.keepalives_sent += 1


class ResilienceAgent:
    """The SN-side subscriber to its edomain core's resilience keys.

    Key schema (written by :meth:`InterEdge.peer_all` and the
    :class:`FailoverCoordinator`):

    * ``resilience/border`` — this edomain's current designated border SN;
    * ``resilience/remote-border/<edomain>`` — the *remote* edomain's
      current border SN (the far end of the long-lived border pipe).

    The remap rule is §3.2's: the border SN itself reaches a remote
    edomain via that edomain's border; every other SN relays via the
    local border.
    """

    def __init__(self, sn: "ServiceNode", store: "CoreStore") -> None:
        self.sn = sn
        self.store = store
        self.resyncs = 0
        self._token = store.watch_prefix("resilience/", self._on_update)

    def _on_update(self, key: str, op: str, value: Any) -> None:
        if self.sn.failed:
            return  # crashed SNs miss control-plane pushes; restart resyncs
        self.resync()

    def resync(self) -> None:
        """Recompute this SN's border-peer table from the store."""
        self.resyncs += 1
        store = self.store
        border = store.get("resilience/border")
        for key in store.keys("resilience/remote-border/"):
            remote = key.rsplit("/", 1)[1]
            remote_border = store.get(key)
            if remote_border is None:
                continue
            if border == self.sn.address or border is None:
                self.sn.set_border_peer(remote, remote_border)
            else:
                self.sn.set_border_peer(remote, border)

    def detach(self) -> None:
        self.store.unwatch_prefix(self._token)


class FailoverCoordinator:
    """Federation-level reaction to pipe-health verdicts.

    Models the edomain operator's control loop: death reports come in
    from SN health monitors; if the dead SN is a designated border, the
    coordinator promotes the first alive alternate (deterministic address
    order), pre-establishes its inter-edomain pipes, publishes the new
    mapping through every affected core store (watches do the per-SN
    remapping), purges the dead SN from membership, and evicts stale
    fast-path state federation-wide. Duplicate reports for the same dead
    SN are coalesced; a recovery clears the dedup so a later re-crash is
    handled afresh.
    """

    def __init__(self, net: "InterEdge") -> None:
        self.net = net
        #: Audit log of resilience actions: dicts with at/kind/... keys.
        self.log: list[dict[str, Any]] = []
        self._failed_over: set[str] = set()
        #: Flight recorder for failover spans; the shared no-op by default.
        #: Each death report opens its own trace (control events are not
        #: part of any packet's ingress trace).
        self.recorder: "FlightRecorder | NullRecorder" = NULL_RECORDER

    # -- health-monitor callbacks -----------------------------------------
    def peer_dead(self, reporter: "ServiceNode", address: str) -> None:
        recorder = self.recorder
        if recorder.enabled:
            recorder.new_trace()
        span = recorder.begin_span(
            "resilience.peer_dead", reporter=reporter.address, peer=address
        )
        try:
            self._peer_dead(reporter, address)
        finally:
            recorder.end_span(span)

    def _peer_dead(self, reporter: "ServiceNode", address: str) -> None:
        evicted = reporter.cache.invalidate_by_target(address)
        self.log.append(
            {
                "at": self.net.sim.now,
                "kind": "peer-dead",
                "reporter": reporter.address,
                "peer": address,
                "evicted": evicted,
            }
        )
        edomain_name = self.net.directory.edomain_of(address)
        if edomain_name is None:
            return
        edomain = self.net.edomains[edomain_name]
        if edomain.border_address != address or address in self._failed_over:
            return
        alternate = self._pick_alternate(edomain, address)
        if alternate is None:
            self.log.append(
                {
                    "at": self.net.sim.now,
                    "kind": "failover-impossible",
                    "edomain": edomain_name,
                    "dead": address,
                }
            )
            return
        self._failed_over.add(address)
        self.failover_border(edomain, address, alternate)

    def peer_recovered(self, reporter: "ServiceNode", address: str) -> None:
        self._failed_over.discard(address)
        self.log.append(
            {
                "at": self.net.sim.now,
                "kind": "peer-recovered",
                "reporter": reporter.address,
                "peer": address,
            }
        )

    # -- the failover itself ----------------------------------------------
    def _pick_alternate(self, edomain: Any, dead: str) -> Optional[str]:
        for address in edomain.sn_addresses():
            if address != dead and not edomain.sns[address].failed:
                return address
        return None

    def failover_border(self, edomain: Any, dead: str, alternate: str) -> None:
        """Promote ``alternate`` to border SN of ``edomain``; publish it."""
        recorder = self.recorder
        span = recorder.begin_span(
            "resilience.failover",
            edomain=edomain.name,
            dead=dead,
            alternate=alternate,
        )
        try:
            self._failover_border(edomain, dead, alternate)
        finally:
            recorder.end_span(span)

    def _failover_border(self, edomain: Any, dead: str, alternate: str) -> None:
        alternate_sn = edomain.sns[alternate]
        remote_domains = [
            dom for dom in self.net.edomains.values() if dom is not edomain
        ]
        # Pre-establish the new border pipes before publishing, so watchers
        # remap onto pipes that already exist.
        for remote in remote_domains:
            remote_border = remote.border_sn
            if not alternate_sn.has_pipe_to(remote_border.address):
                alternate_sn.establish_pipe(
                    remote_border, latency=self.net.border_latency
                )
        edomain.designate_border(alternate)  # publishes resilience/border
        # Publishing the new border to every remote core and purging the
        # dead SN are the two writes the whole federation converges on.
        for remote in remote_domains:
            remote.store.put(
                f"resilience/remote-border/{edomain.name}", alternate
            )
        purged = edomain.membership_core.purge_sn(dead)
        evicted = 0
        for sn in self.net.all_sns():
            if sn.address != dead:
                evicted += sn.cache.invalidate_by_target(dead)
        self.log.append(
            {
                "at": self.net.sim.now,
                "kind": "border-failover",
                "edomain": edomain.name,
                "dead": dead,
                "alternate": alternate,
                "cache_evicted": evicted,
                "membership_purged": purged,
            }
        )
        if _san.ENABLED:
            self._san_check_failover(edomain, dead, alternate)

    def _san_check_failover(self, edomain: Any, dead: str, alternate: str) -> None:
        """Armed postconditions: the dead border must be fully excised.

        After a failover no surviving SN may hold fast-path state that
        forwards via the dead SN, the edomain must advertise the promoted
        alternate, and every remote edomain's store must name it too.
        """
        if edomain.border_address != alternate:
            _san.fail(
                "failover",
                f"edomain {edomain.name} advertises border "
                f"{edomain.border_address!r}, expected {alternate!r}",
            )
        for sn in self.net.all_sns():
            if sn.address == dead:
                continue
            stale = sn.cache.count_targeting(dead)
            if stale:
                _san.fail(
                    "failover",
                    f"{sn.address} still caches {stale} decision(s) "
                    f"forwarding via dead SN {dead}",
                )
        for remote in self.net.edomains.values():
            if remote is edomain:
                continue
            published = remote.store.get(f"resilience/remote-border/{edomain.name}")
            if published != alternate:
                _san.fail(
                    "failover",
                    f"edomain {remote.name} maps {edomain.name}'s border to "
                    f"{published!r}, expected {alternate!r}",
                )

    # -- queries -----------------------------------------------------------
    def failovers(self) -> list[dict[str, Any]]:
        return [entry for entry in self.log if entry["kind"] == "border-failover"]
