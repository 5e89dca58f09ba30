"""Deterministic fault injection for simulated networks.

Chaos experiments used to reach into private link state (``link._rng = …``)
from test bodies, which made fault timing implicit in Python execution
order and impossible to replay. This module makes faults first-class:

* :class:`FaultPlan` — a declarative, *seeded* schedule of fault events
  (link flaps, loss-rate ramps, latency spikes, SN crash/restart,
  partitions). All randomness (flap jitter) is drawn from the plan's seed
  at build time, so two plans built with the same seed and the same
  builder calls are equal, event for event.
* :class:`FaultInjector` — binds a plan's symbolic targets to concrete
  :class:`~repro.netsim.link.Link` / :class:`~repro.netsim.node.NetNode`
  objects, arms the events on a :class:`~repro.netsim.engine.Simulator`,
  and records an **event trace** as events fire. Two runs of the same
  plan over the same topology produce identical traces (and, because the
  engine is deterministic, identical end states) — asserted by
  ``tests/test_fault_injection_unit.py``.

Targets are strings: node names for crash/restart, canonical link names
(see :func:`link_name`) for link faults. The injector resolves them at
fire time, so a plan can be built before the topology exists.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from .engine import Simulator
from .link import Link
from .node import NetNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    pass


class FaultError(Exception):
    """Raised for invalid fault plans or unresolvable targets."""


def link_name(a: Any, b: Any) -> str:
    """Canonical symbolic name for the link between two nodes (or names)."""
    name_a = a if isinstance(a, str) else a.name
    name_b = b if isinstance(b, str) else b.name
    lo, hi = sorted((name_a, name_b))
    return f"{lo}<->{hi}"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: what happens to whom, when.

    ``at`` is an absolute virtual time. ``value`` is kind-specific: a loss
    rate, a latency delta, a reseed value, or a partition's two node-name
    groups.
    """

    at: float
    kind: str
    target: str
    value: Any = None


#: Event kinds the injector understands.
KINDS = (
    "link_down",
    "link_up",
    "loss_rate",
    "reseed",
    "delay_spike_start",
    "delay_spike_end",
    "crash",
    "restart",
    "partition",
    "heal",
    "service_slowdown",
    "service_hang",
    "service_recover",
    "punt_storm",
)


class FaultPlan:
    """A declarative, seeded schedule of fault events.

    Builder methods append events and return ``self`` so plans chain::

        plan = (
            FaultPlan(seed=7)
            .link_flap("sn-a<->sn-b", at=1.0, period=0.5, count=3, jitter=0.1)
            .crash("sn-c", at=4.0, restart_after=2.0)
        )

    Determinism: jitter is drawn from ``random.Random(seed)`` *at build
    time*, in builder-call order. Same seed + same calls ⇒ identical
    ``events`` lists (and therefore identical replays).
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self.events: list[FaultEvent] = []

    # -- generic -----------------------------------------------------------
    def add(self, at: float, kind: str, target: str, value: Any = None) -> "FaultPlan":
        if at < 0:
            raise FaultError(f"event time must be non-negative, got {at}")
        if kind not in KINDS:
            raise FaultError(f"unknown fault kind {kind!r}")
        self.events.append(FaultEvent(at=at, kind=kind, target=target, value=value))
        return self

    # -- link faults -------------------------------------------------------
    def link_down(
        self, link: str, at: float, duration: Optional[float] = None
    ) -> "FaultPlan":
        """Fail a link at ``at``; restore after ``duration`` if given."""
        self.add(at, "link_down", link)
        if duration is not None:
            self.add(at + duration, "link_up", link)
        return self

    def link_up(self, link: str, at: float) -> "FaultPlan":
        return self.add(at, "link_up", link)

    def link_flap(
        self,
        link: str,
        at: float,
        period: float,
        count: int,
        duty: float = 0.5,
        jitter: float = 0.0,
    ) -> "FaultPlan":
        """``count`` down/up cycles of length ``period`` starting at ``at``.

        The link is down for ``duty`` of each period. ``jitter`` shifts
        each transition by up to ±``jitter`` seconds, drawn from the plan
        seed (deterministic per seed).
        """
        if period <= 0 or count < 1 or not 0.0 < duty < 1.0:
            raise FaultError("flap needs period > 0, count >= 1, 0 < duty < 1")
        for i in range(count):
            start = at + i * period
            down_at = start + (self._rng.uniform(-jitter, jitter) if jitter else 0.0)
            up_at = (
                start
                + duty * period
                + (self._rng.uniform(-jitter, jitter) if jitter else 0.0)
            )
            self.add(max(0.0, down_at), "link_down", link)
            self.add(max(0.0, up_at, down_at + 1e-9), "link_up", link)
        return self

    def set_loss(
        self, link: str, at: float, rate: float, seed: Optional[int] = None
    ) -> "FaultPlan":
        """Set a link's loss rate (optionally reseeding its drop RNG first)."""
        if seed is not None:
            self.add(at, "reseed", link, seed)
        return self.add(at, "loss_rate", link, rate)

    def loss_ramp(
        self,
        link: str,
        at: float,
        peak: float,
        duration: float,
        steps: int = 4,
        clear_after: bool = True,
    ) -> "FaultPlan":
        """Ramp a link's loss rate linearly from 0 to ``peak`` over ``duration``.

        The rate rises in ``steps`` increments; if ``clear_after``, loss is
        reset to 0 at ``at + duration``.
        """
        if not 0.0 < peak <= 1.0 or duration <= 0 or steps < 1:
            raise FaultError("ramp needs 0 < peak <= 1, duration > 0, steps >= 1")
        for k in range(1, steps + 1):
            self.add(
                at + duration * (k - 1) / steps, "loss_rate", link, peak * k / steps
            )
        if clear_after:
            self.add(at + duration, "loss_rate", link, 0.0)
        return self

    def delay_spike(
        self, link: str, at: float, extra: float, duration: float
    ) -> "FaultPlan":
        """Raise a link's latency by ``extra`` seconds for ``duration``.

        Packets queued behind the spike arrive bunched together when it
        ends — the "clock-skewed burst" shape that stresses reorder and
        keepalive tolerance.
        """
        if extra <= 0 or duration <= 0:
            raise FaultError("delay spike needs extra > 0 and duration > 0")
        self.add(at, "delay_spike_start", link, extra)
        self.add(at + duration, "delay_spike_end", link, extra)
        return self

    # -- node faults -------------------------------------------------------
    def crash(
        self, node: str, at: float, restart_after: Optional[float] = None
    ) -> "FaultPlan":
        """Crash a node (links down, frames dropped, volatile state lost)."""
        self.add(at, "crash", node)
        if restart_after is not None:
            self.add(at + restart_after, "restart", node)
        return self

    def restart(self, node: str, at: float) -> "FaultPlan":
        return self.add(at, "restart", node)

    # -- service faults ----------------------------------------------------
    def service_slowdown(
        self,
        node: str,
        service_id: int,
        at: float,
        extra: float,
        duration: Optional[float] = None,
    ) -> "FaultPlan":
        """Slow one service's slow-path handling on ``node`` by ``extra``
        seconds per punt; clears after ``duration`` if given.

        A slowdown beyond the terminus punt deadline makes every punt time
        out — the brownout shape that trips a circuit breaker without the
        service ever erroring.
        """
        if extra <= 0:
            raise FaultError("service slowdown needs extra > 0")
        self.add(at, "service_slowdown", node, (int(service_id), float(extra)))
        if duration is not None:
            self.add(at + duration, "service_recover", node, int(service_id))
        return self

    def service_hang(
        self,
        node: str,
        service_id: int,
        at: float,
        duration: Optional[float] = None,
    ) -> "FaultPlan":
        """Hang one service on ``node``: every punt times out at its
        deadline until ``service_recover`` (scheduled after ``duration``
        when given) clears the fault."""
        self.add(at, "service_hang", node, int(service_id))
        if duration is not None:
            self.add(at + duration, "service_recover", node, int(service_id))
        return self

    def service_recover(
        self, node: str, service_id: int, at: float
    ) -> "FaultPlan":
        return self.add(at, "service_recover", node, int(service_id))

    def punt_storm(
        self,
        node: str,
        at: float,
        period: float = 0.01,
        count: int = 1,
        fraction: float = 1.0,
    ) -> "FaultPlan":
        """Repeatedly evict ``fraction`` of ``node``'s decision cache.

        ``count`` evictions spaced ``period`` apart: each wipe forces the
        traffic behind it back onto the slow path at once — the cold-flow
        storm that stresses miss coalescing and admission control.
        """
        if period <= 0 or count < 1 or not 0.0 < fraction <= 1.0:
            raise FaultError(
                "punt storm needs period > 0, count >= 1, 0 < fraction <= 1"
            )
        for i in range(count):
            self.add(at + i * period, "punt_storm", node, fraction)
        return self

    # -- partitions --------------------------------------------------------
    def partition(
        self,
        group_a: list[str],
        group_b: list[str],
        at: float,
        duration: Optional[float] = None,
    ) -> "FaultPlan":
        """Down every registered link that straddles the two node groups."""
        value = (tuple(sorted(group_a)), tuple(sorted(group_b)))
        target = f"{'+'.join(value[0])}|{'+'.join(value[1])}"
        self.add(at, "partition", target, value)
        if duration is not None:
            self.add(at + duration, "heal", target, value)
        return self

    # -- introspection -----------------------------------------------------
    def sorted_events(self) -> list[FaultEvent]:
        """Events in replay order (time, then insertion order)."""
        indexed = sorted(
            enumerate(self.events), key=lambda pair: (pair[1].at, pair[0])
        )
        return [event for _, event in indexed]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultPlan) and self.events == other.events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, events={len(self.events)})"


class FaultInjector:
    """Replays a :class:`FaultPlan` against concrete links and nodes.

    The injector keeps name → object registries (filled by
    :meth:`register_link` / :meth:`register_node`, or wholesale by
    :meth:`bind`), schedules every plan event on the simulator when
    :meth:`arm` is called, and appends ``(time, kind, target, value)`` to
    :attr:`trace` as each event fires. :meth:`trace_digest` hashes the
    trace for cheap bit-determinism assertions.
    """

    def __init__(self, sim: Simulator, plan: FaultPlan) -> None:
        self.sim = sim
        self.plan = plan
        self._links: dict[str, Link] = {}
        self._nodes: dict[str, NetNode] = {}
        self.trace: list[tuple[float, str, str, Any]] = []
        self._armed = False

    # -- binding -----------------------------------------------------------
    def register_link(self, name: str, link: Link) -> None:
        self._links[name] = link

    def register_node(self, name: str, node: NetNode) -> None:
        self._nodes[name] = node

    def bind(self, net: Any) -> "FaultInjector":
        """Register every SN (by name and address) and every SN-adjacent
        link of an :class:`~repro.core.federation.InterEdge` deployment.

        Host access links are registered too (hosts appear under their
        node names), so plans can fault last-hop pipes.
        """
        seen: set[int] = set()
        for sn in net.all_sns():
            self._nodes[sn.name] = sn
            self._nodes[sn.address] = sn
            for link in sn.links:
                if id(link) in seen:
                    continue
                seen.add(id(link))
                self._links[link_name(link.a, link.b)] = link
        for host in getattr(net, "hosts", {}).values():
            self._nodes[host.name] = host
            self._nodes[host.address] = host
        return self

    # -- arming ------------------------------------------------------------
    def arm(self) -> int:
        """Schedule every plan event; returns the number scheduled."""
        if self._armed:
            raise FaultError("injector is already armed")
        self._armed = True
        count = 0
        for event in self.plan.sorted_events():
            when = max(event.at, self.sim.now)
            self.sim.schedule_at(when, self._fire, event)
            count += 1
        return count

    # -- firing ------------------------------------------------------------
    def _link(self, name: str) -> Link:
        try:
            return self._links[name]
        except KeyError:
            raise FaultError(f"no link registered as {name!r}") from None

    def _node(self, name: str) -> NetNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise FaultError(f"no node registered as {name!r}") from None

    def _env(self, name: str) -> Any:
        env = getattr(self._node(name), "env", None)
        if env is None:
            raise FaultError(
                f"node {name!r} has no execution environment for service faults"
            )
        return env

    def _fire(self, event: FaultEvent) -> None:
        kind, target, value = event.kind, event.target, event.value
        if kind == "link_down":
            self._link(target).set_down()
        elif kind == "link_up":
            self._link(target).set_up()
        elif kind == "loss_rate":
            self._link(target).loss_rate = float(value)
        elif kind == "reseed":
            self._link(target).reseed(int(value))
        elif kind == "delay_spike_start":
            self._link(target).latency += float(value)
        elif kind == "delay_spike_end":
            link = self._link(target)
            link.latency = max(0.0, link.latency - float(value))
        elif kind == "crash":
            node = self._node(target)
            crash = getattr(node, "crash", None)
            if crash is not None:
                crash()
            else:
                node.fail()
        elif kind == "restart":
            node = self._node(target)
            restart = getattr(node, "restart", None)
            if restart is not None:
                restart()
            else:
                node.recover()
        elif kind == "service_slowdown":
            service_id, extra = value
            self._env(target).inject_slowdown(int(service_id), float(extra))
        elif kind == "service_hang":
            self._env(target).inject_hang(int(value))
        elif kind == "service_recover":
            self._env(target).clear_service_fault(int(value))
        elif kind == "punt_storm":
            node = self._node(target)
            cache = getattr(node, "cache", None)
            if cache is None:
                raise FaultError(
                    f"node {target!r} has no decision cache to storm"
                )
            cache.evict_random_fraction(float(value))
        elif kind in ("partition", "heal"):
            group_a, group_b = value
            names_a, names_b = set(group_a), set(group_b)
            for link in self._straddling(names_a, names_b):
                if kind == "partition":
                    link.set_down()
                else:
                    link.set_up()
        self.trace.append((self.sim.now, kind, target, value))

    def _straddling(self, names_a: set, names_b: set) -> list[Link]:
        links = []
        seen: set[int] = set()
        for link in self._links.values():
            if id(link) in seen:
                continue
            seen.add(id(link))
            ends = {link.a.name, link.b.name}
            if ends & names_a and ends & names_b:
                links.append(link)
        return links

    def trace_digest(self) -> str:
        """SHA-256 over the fired-event trace (bit-determinism checks)."""
        return hashlib.sha256(repr(self.trace).encode()).hexdigest()
