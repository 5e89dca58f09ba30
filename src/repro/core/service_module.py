"""Service module framework: the WORA unit of InterEdge functionality.

§3.1: the InterEdge service model is defined by evolving open-source
*service modules*, chosen by a governance body and deployed on all SNs.
Modules are written against the common execution environment and must have
a basic version that needs only general compute.

A module's packet handler returns a :class:`Verdict`: zero or more packets
to emit (the pipe-terminus seals and sends them) plus optional decision
cache installs so later packets stay on the fast path.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from .decision_cache import CacheKey, Decision
from .ilp import ILPHeader
from .packet import Payload

if TYPE_CHECKING:  # pragma: no cover
    from .execution_env import ServiceContext


class ServiceError(Exception):
    """Raised by modules on unrecoverable per-packet errors."""


@dataclass
class Emit:
    """One outgoing ILP packet requested by a service module.

    ``peer`` is the next-hop ILP peer address; the pipe-terminus seals
    ``header`` with that peer's PSP context and stamps outer L3 addresses.
    """

    peer: str
    header: ILPHeader
    payload: Payload


@dataclass
class Verdict:
    """Everything a module wants done with (or because of) a packet."""

    emits: list[Emit] = field(default_factory=list)
    installs: list[tuple[CacheKey, Decision]] = field(default_factory=list)
    dropped: bool = False

    @staticmethod
    def drop() -> "Verdict":
        return Verdict(dropped=True)

    @staticmethod
    def forward(peer: str, header: ILPHeader, payload: Payload) -> "Verdict":
        return Verdict(emits=[Emit(peer, header, payload)])


class ServiceModule(abc.ABC):
    """Base class for all InterEdge services.

    Subclasses set ``SERVICE_ID`` (the standardized 16-bit identifier),
    ``NAME``, and optionally ``REQUIRES_ENCLAVE`` (privacy services, §6.2).
    """

    SERVICE_ID: int = 0
    NAME: str = "abstract"
    VERSION: str = "1.0"
    REQUIRES_ENCLAVE: bool = False

    def __init__(self) -> None:
        self.ctx: Optional["ServiceContext"] = None

    # -- lifecycle ------------------------------------------------------
    def attach(self, ctx: "ServiceContext") -> None:
        """Called when the module is loaded into an SN's execution env."""
        self.ctx = ctx
        self.on_attach()

    def on_attach(self) -> None:
        """Hook for subclass initialization once ``self.ctx`` is available."""

    # -- datapath ---------------------------------------------------------
    @abc.abstractmethod
    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        """Slow-path handler for packets the decision cache missed.

        Must be able to recompute a decision for *any* packet of a
        connection, not just the first (Appendix B: cache entries can be
        evicted at any time).
        """

    def handle_control(self, header: ILPHeader, packet: Any) -> Verdict:
        """Out-of-band control messages (§3.2's second invocation mode)."""
        return Verdict.drop()

    def handle_batch(
        self, punts: list[tuple[ILPHeader, Any]]
    ) -> list[Optional[Verdict]]:
        """Vectorized slow-path handler for a batch of punted packets.

        The execution environment groups a batched invocation's punts by
        service and hands each module its whole group at once, so the
        per-invocation overhead (IPC marshalling, enclave crossings) is
        paid per batch rather than per packet. The default implementation
        simply replays per packet — ``handle_packet`` for data,
        ``handle_control`` for control — preserving exact per-packet
        semantics; modules with amortizable work (shared config reads,
        bulk policy checks) override it.

        Contract: return exactly one entry per punt, in punt order. A
        ``None`` entry marks a punt whose handling raised
        :class:`ServiceError` (per-punt error isolation — the rest of the
        batch still gets its verdicts); raising from an override fails the
        whole batch instead.
        """
        out: list[Optional[Verdict]] = []
        for header, packet in punts:
            handler = (
                self.handle_control if header.is_control else self.handle_packet
            )
            try:
                out.append(handler(header, packet))
            except ServiceError:
                out.append(None)
        return out

    # -- fault tolerance --------------------------------------------------
    def checkpoint(self) -> dict[str, Any]:
        """Serializable module state for standby replication (§3.3)."""
        return {}

    def restore(self, state: dict[str, Any]) -> None:
        """Rebuild module state from a checkpoint."""


class Standardization(enum.Enum):
    """Lifecycle of a service in the governance process (§2.2, §3.3)."""

    EXPERIMENTAL = "experimental"  # one IESP's open offering
    STANDARDIZED = "standardized"  # adopted; testing window running
    REQUIRED = "required"  # all SNs must deploy it


@dataclass
class RegisteredService:
    module_cls: type[ServiceModule]
    status: Standardization
    config_schema: tuple[str, ...] = ()


class ServiceRegistry:
    """The governance body's catalog of services.

    SNs deploy from here; ``required_services`` is the uniform service
    model every host can count on (§3.1).
    """

    def __init__(self) -> None:
        self._services: dict[int, RegisteredService] = {}

    def register(
        self,
        module_cls: type[ServiceModule],
        status: Standardization = Standardization.EXPERIMENTAL,
        config_schema: tuple[str, ...] = (),
    ) -> None:
        service_id = module_cls.SERVICE_ID
        if service_id in self._services:
            existing = self._services[service_id].module_cls
            if existing is not module_cls:
                raise ServiceError(
                    f"service id {service_id} already taken by {existing.NAME}"
                )
        self._services[service_id] = RegisteredService(
            module_cls=module_cls, status=status, config_schema=config_schema
        )

    def promote(self, service_id: int, status: Standardization) -> None:
        self._get(service_id).status = status

    def _get(self, service_id: int) -> RegisteredService:
        try:
            return self._services[service_id]
        except KeyError:
            raise ServiceError(f"unknown service id {service_id}") from None

    def status(self, service_id: int) -> Standardization:
        return self._get(service_id).status

    def known(self, service_id: int) -> bool:
        return service_id in self._services

    def required_services(self) -> list[type[ServiceModule]]:
        return [
            reg.module_cls
            for reg in self._services.values()
            if reg.status is Standardization.REQUIRED
        ]


#: Standardized service IDs (the governance body's number space). Bundles
#: get their own IDs because hosts invoke exactly one service (§3.2).
class WellKnownService:
    NULL = 0x0001
    IP_DELIVERY = 0x0002
    CACHING_BUNDLE = 0x0003
    PUBSUB = 0x0004
    ANYCAST = 0x0005
    MULTICAST = 0x0006
    LAST_HOP_QOS = 0x0007
    FIREWALL = 0x0008
    ZTNA = 0x0009
    SDWAN = 0x000A
    DDOS_PROTECT = 0x000B
    ODNS = 0x000C
    PRIVATE_RELAY = 0x000D
    MIXNET = 0x000E
    MSG_QUEUE = 0x000F
    BULK_DELIVERY = 0x0010
    TIME_ORDERED = 0x0011
    VPN = 0x0012
    ATTESTATION = 0x0013
    TRANSCODE_BUNDLE = 0x0014
    MOBILITY = 0x0015
    CLUSTER_INTERCONNECT = 0x0016
