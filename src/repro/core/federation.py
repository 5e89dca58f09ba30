"""The InterEdge federation: edomains, peering, deployment, and naming.

This is the top-level convenience object most examples and integration
tests build: it owns the simulator, the global lookup service, the service
registry, edomains, SNs, and hosts, and implements:

* **settlement-free full-mesh peering** between edomains (§3.2, §5): every
  pair of edomains gets at least one long-lived pipe between designated
  border SNs, and every SN learns the border mapping for every edomain;
* **on-demand direct pipes** between SNs in different edomains (the §3.2
  optimization, measured by A-INTER);
* **uniform service deployment** (§3.3): loading every REQUIRED service of
  the registry onto every SN;
* host attachment + lookup/naming registration.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from ..control.lookup import GlobalLookupService
from ..control.naming import NameService
from ..netsim.engine import Simulator
from .edomain import Edomain
from .host import Host
from .ipc import CostModel, InvocationMode
from .service_module import ServiceModule, ServiceRegistry, Standardization
from .service_node import ServiceNode


class FederationError(Exception):
    """Raised on invalid federation operations."""


class SNDirectory:
    """Maps SN addresses to their edomains (used for next-hop decisions).

    SNs outside the edomain full mesh (customer-premise pass-through
    gateways, §3.2) additionally register the uplink SN (``via``) through
    which they are reachable.
    """

    def __init__(self) -> None:
        self._edomain_of: dict[str, str] = {}
        self._via: dict[str, str] = {}

    def register(
        self, sn_address: str, edomain: str, via: Optional[str] = None
    ) -> None:
        self._edomain_of[sn_address] = edomain
        if via is not None:
            self._via[sn_address] = via

    def edomain_of(self, sn_address: str) -> Optional[str]:
        return self._edomain_of.get(sn_address)

    def via_of(self, sn_address: str) -> Optional[str]:
        return self._via.get(sn_address)

    def __len__(self) -> int:
        return len(self._edomain_of)


class InterEdge:
    """A whole InterEdge deployment under one simulator."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        registry: Optional[ServiceRegistry] = None,
        cost_model: Optional[CostModel] = None,
        invocation_mode: InvocationMode = InvocationMode.IPC,
    ) -> None:
        from ..econ.peering import PeeringLedger

        self.sim = sim or Simulator()
        self.lookup = GlobalLookupService()
        self.names = NameService(self.lookup)
        self.registry = registry or ServiceRegistry()
        self.directory = SNDirectory()
        #: settlement-free peering accounting (§5); SNs record their
        #: cross-edomain transmissions here.
        self.ledger = PeeringLedger()
        self.edomains: dict[str, Edomain] = {}
        self.hosts: dict[str, Host] = {}
        self.cost_model = cost_model or CostModel()
        self.invocation_mode = invocation_mode
        self._addr_counter = itertools.count(1)
        self._peered = False
        #: latency used for border pipes (peer_all and failover repairs).
        self.border_latency = 0.01
        #: set by :meth:`enable_resilience`.
        self.coordinator: Any = None

    # -- construction ----------------------------------------------------
    def create_edomain(self, name: str) -> Edomain:
        if name in self.edomains:
            raise FederationError(f"edomain {name!r} already exists")
        edomain = Edomain(name, self.lookup)
        self.edomains[name] = edomain
        return edomain

    def _next_address(self, prefix: str = "10.0") -> str:
        n = next(self._addr_counter)
        return f"{prefix}.{n // 250}.{n % 250 + 1}"

    def add_sn(
        self,
        edomain_name: str,
        name: Optional[str] = None,
        address: Optional[str] = None,
        cache_capacity: int = 65536,
    ) -> ServiceNode:
        edomain = self.edomains[edomain_name]
        address = address or self._next_address()
        name = name or f"sn-{edomain_name}-{address}"
        sn = ServiceNode(
            self.sim,
            name,
            address,
            edomain_name=edomain_name,
            cache_capacity=cache_capacity,
            invocation_mode=self.invocation_mode,
            cost_model=self.cost_model,
        )
        sn.directory = self.directory
        sn.ledger = self.ledger
        edomain.add_sn(sn)
        self.directory.register(address, edomain_name)
        return sn

    def add_host(
        self,
        sn: ServiceNode,
        name: Optional[str] = None,
        address: Optional[str] = None,
        subnet: str = "0.0.0.0/0",
        latency: float = 0.001,
        register_name: Optional[str] = None,
    ) -> Host:
        from ..netsim.link import Link

        address = address or self._next_address(prefix="192.168")
        name = name or f"host-{address}"
        host = Host(self.sim, name, address, subnet=subnet)
        Link(self.sim, host, sn, latency=latency)
        sn.associate_host(host)
        self.hosts[address] = host
        owner = host.keypair
        self.lookup.register_address(address, owner, associated_sns=[sn.address])
        if register_name:
            self.names.register_name(register_name, address)
        return host

    # -- peering ----------------------------------------------------------
    def peer_all(self, internal_latency: float = 0.002, border_latency: float = 0.01) -> int:
        """Establish the full interconnection fabric. Returns pipe count.

        Every edomain internally full-meshes; every pair of edomains gets a
        border pipe; every SN learns its border mapping (§3.2 requirements
        (i) and (ii)).
        """
        self.border_latency = border_latency
        pipes = 0
        for edomain in self.edomains.values():
            pipes += edomain.connect_internal(latency=internal_latency)
        domain_list = list(self.edomains.values())
        for i, dom_a in enumerate(domain_list):
            for dom_b in domain_list[i + 1 :]:
                border_a = dom_a.border_sn
                border_b = dom_b.border_sn
                if not border_a.has_pipe_to(border_b.address):
                    border_a.establish_pipe(border_b, latency=border_latency)
                    pipes += 1
                for sn in dom_a.sns.values():
                    sn.set_border_peer(
                        dom_b.name,
                        border_b.address if sn is border_a else border_a.address,
                    )
                for sn in dom_b.sns.values():
                    sn.set_border_peer(
                        dom_a.name,
                        border_a.address if sn is border_b else border_b.address,
                    )
        # Publish the border facts in each edomain core store so the
        # resilience agents (and anything else SDN-ish) have an
        # authoritative, watchable record (§6.2 core store, §3.3 repair).
        for dom_a in domain_list:
            dom_a.store.put("resilience/border", dom_a.border_sn.address)
            for dom_b in domain_list:
                if dom_b is not dom_a:
                    dom_a.store.put(
                        f"resilience/remote-border/{dom_b.name}",
                        dom_b.border_sn.address,
                    )
        self._peered = True
        return pipes

    # -- resilience --------------------------------------------------------
    def enable_resilience(
        self,
        interval: float = 0.25,
        suspect_multiple: float = 3.0,
        dead_multiple: float = 6.0,
    ):
        """Turn on pipe health monitoring and automated border failover.

        Every SN gets a :class:`~repro.core.resilience.PipeHealthMonitor`
        (keepalives over idle pipes, phi-accrual failure detection; dead
        after ~``interval * dead_multiple`` seconds of silence) and a
        :class:`~repro.core.resilience.ResilienceAgent` watching its
        edomain core store. Dead/recovered verdicts feed a federation
        :class:`~repro.core.resilience.FailoverCoordinator` that promotes
        an alternate border SN, publishes it through the core stores, and
        evicts stale fast-path state. Returns the coordinator.

        Call after :meth:`peer_all`. Monitor start times are staggered
        deterministically so keepalive bursts do not synchronize.
        """
        from .resilience import FailoverCoordinator, ResilienceAgent

        if not self._peered:
            raise FederationError("enable_resilience requires peer_all() first")
        if self.coordinator is not None:
            return self.coordinator
        coordinator = FailoverCoordinator(self)
        self.coordinator = coordinator
        sns = self.all_sns()
        for i, sn in enumerate(sns):
            monitor = sn.enable_health_monitor(
                interval=interval,
                suspect_multiple=suspect_multiple,
                dead_multiple=dead_multiple,
                initial_delay=interval * (1 + (i % 16)) / 16,
            )
            monitor.on_peer_dead = (
                lambda addr, reporter=sn: coordinator.peer_dead(reporter, addr)
            )
            monitor.on_peer_recovered = (
                lambda addr, reporter=sn: coordinator.peer_recovered(reporter, addr)
            )
            if sn.resilience_agent is None:
                store = self.edomains[sn.edomain_name].store
                sn.resilience_agent = ResilienceAgent(sn, store)
        return coordinator

    def disable_resilience(self) -> None:
        """Undo :meth:`enable_resilience` (lets a finished simulation drain).

        Stops every health monitor, detaches every SN's resilience agent
        from its core store and drops the coordinator, so a later
        :meth:`enable_resilience` rebuilds both.
        """
        for sn in self.all_sns():
            if sn.health is not None:
                sn.health.stop()
            if sn.resilience_agent is not None:
                sn.resilience_agent.detach()
                sn.resilience_agent = None
        self.coordinator = None

    def establish_direct(self, sn_a: ServiceNode, sn_b: ServiceNode, latency: float = 0.008) -> None:
        """On-demand direct pipe between SNs in different edomains (§3.2)."""
        if sn_a.edomain_name == sn_b.edomain_name:
            raise FederationError("direct pipes are for inter-edomain pairs")
        sn_a.establish_pipe(sn_b, latency=latency)

    # -- deployment ----------------------------------------------------------
    def deploy_required_services(self) -> int:
        """Load every REQUIRED service onto every SN (§3.3 extensibility).

        Returns the number of (SN, service) deployments performed.
        """
        count = 0
        for module_cls in self.registry.required_services():
            for edomain in self.edomains.values():
                for sn in edomain.sns.values():
                    if not sn.env.has_service(module_cls.SERVICE_ID):
                        sn.load_service(module_cls())
                        count += 1
        return count

    def deploy_experimental(
        self,
        module_cls: type[ServiceModule],
        edomain_name: str,
        use_enclave: Optional[bool] = None,
    ) -> int:
        """One IESP offers a not-yet-standard service on its own SNs (§2.2).

        The service is registered EXPERIMENTAL (so it is *not* part of the
        uniform service model) and deployed only in ``edomain_name``.
        Customers of that IESP can adopt it; if it gains traction the
        governance body standardizes it (``registry.promote`` +
        :meth:`deploy_required_services`) and every SN picks it up.
        """
        if not self.registry.known(module_cls.SERVICE_ID):
            self.registry.register(module_cls, Standardization.EXPERIMENTAL)
        count = 0
        for sn in self.edomains[edomain_name].sns.values():
            if not sn.env.has_service(module_cls.SERVICE_ID):
                sn.load_service(module_cls(), use_enclave=use_enclave)
                count += 1
        return count

    def deploy_service(
        self, module_cls: type[ServiceModule], use_enclave: Optional[bool] = None
    ) -> int:
        """Deploy one service everywhere (e.g. a newly standardized one)."""
        if not self.registry.known(module_cls.SERVICE_ID):
            self.registry.register(module_cls, Standardization.STANDARDIZED)
        count = 0
        for edomain in self.edomains.values():
            for sn in edomain.sns.values():
                if not sn.env.has_service(module_cls.SERVICE_ID):
                    sn.load_service(module_cls(), use_enclave=use_enclave)
                    count += 1
        return count

    # -- queries ----------------------------------------------------------
    def all_sns(self) -> list[ServiceNode]:
        return [
            sn
            for edomain in self.edomains.values()
            for sn in edomain.sns.values()
        ]

    def sn_at(self, address: str) -> ServiceNode:
        for edomain in self.edomains.values():
            if address in edomain.sns:
                return edomain.sns[address]
        raise FederationError(f"no SN at {address}")

    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.sim.run(until=self.sim.now + duration)
