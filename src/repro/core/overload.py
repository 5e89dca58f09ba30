"""Overload resilience for the slow path: deadlines, breakers, shedding.

The paper's pipe-terminus design assumes the slow path is occasionally
*cold*, never *sick* — but one misbehaving service module (hung handler,
latency spike, punt storm) can stall ``invoke_batch``, grow the MissQueue
without bound, and starve healthy flows sharing the terminus. This module
supplies the policy layer the terminus consults before and after every
punt:

* :class:`ServicePolicy` — a per-service declaration of the slow-path
  deadline, the **degradation mode** used when an invocation times out or
  errors (``fail_open`` forward, ``fail_closed`` drop, ``fail_static``
  serve the last-known decision from the cache's stale shelf), and the
  circuit-breaker configuration. The terminus enforces the deadline
  itself: a punt its service cannot answer in time never crosses the
  IPC boundary.
* :class:`CircuitBreaker` — a closed→open→half-open state machine keyed on
  an EWMA of timeout/error outcomes. An **open** circuit short-circuits
  cold packets straight to the degradation mode without invoking the
  service at all, so a sick service stops consuming boundary round trips
  while healthy services on the same SN keep full goodput. Recovery is by
  seeded half-open probes; the open duration carries deterministic jitter
  drawn from the breaker's configured seed so federated breakers do not
  re-probe in lockstep.
* :class:`AdmissionControl` — the terminus overload detector: MissQueue
  depth plus a punt-rate token bucket (reusing
  :class:`repro.sched.TokenBucket`). Under pressure, *true-cold* leads are
  shed before they park or punt; CONTROL/LAST barrier frames and
  established (cache-hit) flows are never shed.

Everything here is **off by default**: a terminus with no policies, no
admission config, and no injected faults behaves byte-for-byte like the
pre-overload datapath (asserted by the batch-equivalence property suite).

All state is held per-:class:`OverloadGuard` (one per terminus) and all
randomness is seeded from configuration, so overload scenarios replay
bit-identically under netsim.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Optional

from ..sched import TokenBucket


class OverloadError(Exception):
    """Raised for invalid overload-policy configuration."""


# -- degradation ---------------------------------------------------------
class DegradeMode(enum.Enum):
    """What happens to a punt its service could not answer in time.

    ``FAIL_CLOSED`` drops the packet (the safe default for policy-bearing
    services: no decision means no forwarding). ``FAIL_OPEN`` forwards it
    unmodified to a configured peer (delivery-over-policy services).
    ``FAIL_STATIC`` serves the connection's last-known decision from the
    :class:`~repro.core.decision_cache.DecisionCache` stale shelf, falling
    back to fail-closed when the shelf has never seen the flow.
    """

    FAIL_CLOSED = "fail_closed"
    FAIL_OPEN = "fail_open"
    FAIL_STATIC = "fail_static"


# -- circuit breaker -----------------------------------------------------
class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning for one service's circuit breaker.

    The breaker trips when the EWMA of failure outcomes (timeouts and
    errors count 1, successes 0) reaches ``failure_threshold`` with at
    least ``min_samples`` observations. It stays open for
    ``open_duration`` seconds plus a deterministic jitter of up to
    ``open_jitter`` × ``open_duration`` drawn from ``seed``, then admits
    ``half_open_probes`` probe punts; ``close_after`` consecutive probe
    successes close it, any probe failure reopens it.
    """

    failure_threshold: float = 0.5
    ewma_alpha: float = 0.3
    min_samples: int = 5
    open_duration: float = 0.5
    open_jitter: float = 0.1
    half_open_probes: int = 2
    close_after: int = 2
    seed: int = 0


@dataclass(slots=True)
class BreakerStats:
    """One breaker's outcome and transition counters."""

    successes: int = 0
    timeouts: int = 0
    errors: int = 0
    trips: int = 0
    recoveries: int = 0
    probes: int = 0
    short_circuits: int = 0


class CircuitBreaker:
    """Closed→open→half-open breaker over one service's punt outcomes."""

    __slots__ = (
        "config",
        "state",
        "failure_ewma",
        "samples",
        "stats",
        "transitions",
        "_rng",
        "_reopen_at",
        "_probes_left",
        "_probe_successes",
    )

    def __init__(self, config: Optional[BreakerConfig] = None) -> None:
        cfg = config or BreakerConfig()
        if not 0.0 < cfg.failure_threshold <= 1.0:
            raise OverloadError("failure_threshold must be in (0, 1]")
        if not 0.0 < cfg.ewma_alpha <= 1.0:
            raise OverloadError("ewma_alpha must be in (0, 1]")
        if cfg.open_duration <= 0 or cfg.half_open_probes < 1 or cfg.close_after < 1:
            raise OverloadError(
                "breaker needs open_duration > 0, half_open_probes >= 1, "
                "close_after >= 1"
            )
        self.config = cfg
        self.state = BreakerState.CLOSED
        self.failure_ewma = 0.0
        self.samples = 0
        self.stats = BreakerStats()
        #: ``(time, state)`` transition log — the recovery-time evidence the
        #: overload benchmark and soak assert against.
        self.transitions: list[tuple[float, BreakerState]] = []
        self._rng = random.Random(cfg.seed)
        self._reopen_at = 0.0
        self._probes_left = 0
        self._probe_successes = 0

    def allow(self, now: float) -> bool:
        """May a punt cross the boundary right now?

        ``False`` means the caller must resolve the packet via the
        degradation mode without invoking the service. An elapsed open
        period flips to half-open and admits the configured probes.
        """
        state = self.state
        if state is BreakerState.CLOSED:
            return True
        if state is BreakerState.OPEN:
            if now < self._reopen_at:
                self.stats.short_circuits += 1
                return False
            self._transition(now, BreakerState.HALF_OPEN)
            self._probes_left = self.config.half_open_probes
            self._probe_successes = 0
        if self._probes_left > 0:
            self._probes_left -= 1
            self.stats.probes += 1
            return True
        self.stats.short_circuits += 1
        return False

    def record_success(self, now: float) -> bool:
        """Record a successful punt; True when this closed the breaker."""
        self.stats.successes += 1
        if self.state is BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.config.close_after:
                self._transition(now, BreakerState.CLOSED)
                self.failure_ewma = 0.0
                self.samples = 0
                self.stats.recoveries += 1
                return True
            return False
        self._observe(0.0)
        return False

    def record_timeout(self, now: float) -> bool:
        """Record a deadline miss; True when this opened the breaker."""
        self.stats.timeouts += 1
        return self._failure(now)

    def record_error(self, now: float) -> bool:
        """Record a service error; True when this opened the breaker."""
        self.stats.errors += 1
        return self._failure(now)

    @property
    def reopen_at(self) -> float:
        """When the current open window ends (0.0 when never opened)."""
        return self._reopen_at

    def recovered_at(self) -> Optional[float]:
        """Time of the most recent open→…→closed recovery, if any."""
        for when, state in reversed(self.transitions):
            if state is BreakerState.CLOSED:
                return when
        return None

    def _failure(self, now: float) -> bool:
        if self.state is BreakerState.HALF_OPEN:
            # A failed probe reopens immediately: the service is still sick.
            self._open(now)
            return True
        self._observe(1.0)
        cfg = self.config
        if (
            self.state is BreakerState.CLOSED
            and self.samples >= cfg.min_samples
            and self.failure_ewma >= cfg.failure_threshold
        ):
            self._open(now)
            self.stats.trips += 1
            return True
        return False

    def _open(self, now: float) -> None:
        cfg = self.config
        jitter = cfg.open_jitter * cfg.open_duration * self._rng.random()
        self._reopen_at = now + cfg.open_duration + jitter
        self._transition(now, BreakerState.OPEN)

    def _observe(self, outcome: float) -> None:
        alpha = self.config.ewma_alpha
        self.failure_ewma += alpha * (outcome - self.failure_ewma)
        self.samples += 1

    def _transition(self, now: float, state: BreakerState) -> None:
        self.state = state
        self.transitions.append((now, state))


# -- per-service policy --------------------------------------------------
@dataclass(frozen=True)
class ServicePolicy:
    """One service's declared overload behavior.

    ``deadline`` overrides :attr:`~repro.core.ipc.CostModel.punt_deadline`
    for this service (None inherits the cost-model default). ``degrade``
    picks what happens to punts the service failed to answer — including
    punts an open breaker never sends. ``fail_open_peer`` names the
    forwarding target for :attr:`DegradeMode.FAIL_OPEN`.
    """

    deadline: Optional[float] = None
    degrade: DegradeMode = DegradeMode.FAIL_CLOSED
    fail_open_peer: Optional[str] = None
    breaker: BreakerConfig = field(default_factory=BreakerConfig)

    def __post_init__(self) -> None:
        if self.degrade is DegradeMode.FAIL_OPEN and self.fail_open_peer is None:
            raise OverloadError("FAIL_OPEN policy needs a fail_open_peer")
        if self.deadline is not None and self.deadline <= 0:
            raise OverloadError("deadline must be positive when set")


# -- admission control ---------------------------------------------------
@dataclass(frozen=True)
class AdmissionConfig:
    """Terminus overload detector tuning.

    A true-cold lead is admitted to the slow path only while the MissQueue
    holds fewer than ``max_parked`` packets *and* the punt-rate token
    bucket (``punt_rate`` sustained punts/s, ``punt_burst`` burst) has a
    token. Barrier frames and established flows bypass admission entirely.
    """

    max_parked: int = 256
    punt_rate: float = 2000.0
    punt_burst: int = 64

    def __post_init__(self) -> None:
        if self.max_parked < 1 or self.punt_rate <= 0 or self.punt_burst < 1:
            raise OverloadError(
                "admission needs max_parked >= 1, punt_rate > 0, punt_burst >= 1"
            )


class AdmissionControl:
    """MissQueue-depth + punt-rate admission for true-cold slow-path work."""

    __slots__ = ("config", "_bucket")

    def __init__(self, config: Optional[AdmissionConfig] = None) -> None:
        self.config = config or AdmissionConfig()
        # One token per punt, carried as one "byte" on the shared bucket
        # (rate_bps is bits/s, so punts/s scale by 8).
        self._bucket = TokenBucket(
            rate_bps=self.config.punt_rate * 8.0,
            burst_bytes=self.config.punt_burst,
        )

    def admit(self, now: float, queue_depth: int) -> bool:
        """True to admit one true-cold lead (consumes a rate token)."""
        if queue_depth >= self.config.max_parked:
            return False
        return self._bucket.try_consume(1, now)


# -- the per-terminus guard ----------------------------------------------
@dataclass(slots=True)
class OverloadStats:
    """Terminus-level overload ledger (one per :class:`OverloadGuard`).

    ``shed_packets`` counts packets refused admission (leads and their
    would-be followers); ``shed_groups`` counts whole cold flow groups shed
    by the batched planner. ``short_circuits`` are punts an open breaker
    resolved without invoking the service. ``deadline_misses`` are punts
    that crossed the boundary and timed out. The ``degraded_*`` counters
    partition every degradation outcome by mode actually applied;
    ``static_misses`` counts FAIL_STATIC requests the stale shelf could
    not serve (they fell through to fail-closed).
    """

    shed_packets: int = 0
    shed_groups: int = 0
    short_circuits: int = 0
    deadline_misses: int = 0
    degraded_open: int = 0
    degraded_static: int = 0
    degraded_closed: int = 0
    static_misses: int = 0


class OverloadGuard:
    """Per-terminus overload state: policies, breakers, admission.

    With no policies and no admission config the guard is inert — the
    terminus hot path reads one empty dict and moves on.
    """

    __slots__ = ("policies", "breakers", "admission", "stats")

    def __init__(self) -> None:
        self.policies: dict[int, ServicePolicy] = {}
        self.breakers: dict[int, CircuitBreaker] = {}
        self.admission: Optional[AdmissionControl] = None
        self.stats = OverloadStats()

    def set_policy(self, service_id: int, policy: ServicePolicy) -> None:
        """Declare (or replace) a service's overload policy + breaker."""
        self.policies[service_id] = policy
        self.breakers[service_id] = CircuitBreaker(policy.breaker)

    def enable_admission(
        self, config: Optional[AdmissionConfig] = None
    ) -> AdmissionControl:
        self.admission = AdmissionControl(config)
        return self.admission

    def admit(self, now: float, queue_depth: int) -> bool:
        admission = self.admission
        if admission is None:
            return True
        return admission.admit(now, queue_depth)

    def state_counts(self) -> dict[BreakerState, int]:
        counts = {state: 0 for state in BreakerState}
        for breaker in self.breakers.values():
            counts[breaker.state] += 1
        return counts

    def open_count(self) -> int:
        return sum(
            1
            for breaker in self.breakers.values()
            if breaker.state is not BreakerState.CLOSED
        )

    def reset(self) -> None:
        """Crash semantics: breaker state is volatile terminus soft state.

        Policies (control-plane configuration) survive; every breaker
        restarts closed with fresh EWMA state. Cumulative counters are
        kept — they are the node's lifetime ledger, like the terminus
        stats.
        """
        for service_id, policy in self.policies.items():
            self.breakers[service_id] = CircuitBreaker(policy.breaker)
