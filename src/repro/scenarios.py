"""Prebuilt InterEdge scenarios.

Examples, integration tests, and scale benchmarks keep building the same
shapes of federation; this module canonicalizes them:

* :func:`small_federation` — 2 edomains × 2 SNs, the workhorse;
* :func:`metro_federation` — parameterized N edomains × M SNs × H hosts,
  for scale sweeps;
* :func:`enterprise_scenario` — a pass-through gateway + IESP SNs + an
  internal and an external host, for security demos.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core.federation import InterEdge
from .core.host import Host
from .core.service_node import ServiceNode
from .services import standard_registry


@dataclass
class ScenarioHandles:
    """Everything a caller needs to drive a built scenario."""

    net: InterEdge
    sns: list[ServiceNode] = field(default_factory=list)
    hosts: list[Host] = field(default_factory=list)
    extras: dict = field(default_factory=dict)


def small_federation() -> ScenarioHandles:
    """Two edomains, two SNs each, fully peered, everything deployed."""
    net = InterEdge(registry=standard_registry())
    sns = []
    for name in ("west", "east"):
        net.create_edomain(name)
        sns.append(net.add_sn(name, name=f"sn-{name}-0"))
        sns.append(net.add_sn(name, name=f"sn-{name}-1"))
    net.peer_all()
    net.deploy_required_services()
    return ScenarioHandles(net=net, sns=sns)


def metro_federation(
    n_edomains: int = 4,
    sns_per_edomain: int = 3,
    hosts_per_sn: int = 2,
    internal_latency: float = 0.002,
    border_latency: float = 0.010,
) -> ScenarioHandles:
    """A parameterized multi-IESP metro: the scale-benchmark substrate."""
    net = InterEdge(registry=standard_registry())
    sns: list[ServiceNode] = []
    for d in range(n_edomains):
        name = f"edomain-{d}"
        net.create_edomain(name)
        for s in range(sns_per_edomain):
            sns.append(net.add_sn(name, name=f"sn-{d}-{s}"))
    net.peer_all(
        internal_latency=internal_latency, border_latency=border_latency
    )
    net.deploy_required_services()
    hosts: list[Host] = []
    for sn in sns:
        for h in range(hosts_per_sn):
            hosts.append(net.add_host(sn, name=f"host-{sn.name}-{h}"))
    return ScenarioHandles(net=net, sns=sns, hosts=hosts)


def enterprise_scenario() -> ScenarioHandles:
    """An enterprise with a pass-through gateway behind an IESP (§3.2)."""
    from .services.firewall import ImposedFirewall, RuleSet

    handles = small_federation()
    net = handles.net
    edge_sn = handles.sns[0]
    gateway = ServiceNode(
        net.sim, "enterprise-gw", "10.200.0.1", edomain_name=edge_sn.edomain_name
    )
    gateway.directory = net.directory
    net.directory.register(
        gateway.address, edge_sn.edomain_name, via=edge_sn.address
    )
    gateway.establish_pipe(edge_sn, latency=0.001)
    gateway.configure_pass_through(
        next_hop=edge_sn.address, chain=[ImposedFirewall(RuleSet())]
    )
    inside = net.add_host(gateway, name="inside", latency=0.0005)
    outside = net.add_host(handles.sns[-1], name="outside")
    net.lookup.register_address(
        inside.address, inside.keypair, associated_sns=[gateway.address]
    )
    handles.extras = {"gateway": gateway, "inside": inside, "outside": outside}
    return handles
