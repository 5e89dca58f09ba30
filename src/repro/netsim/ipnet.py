"""AS-level IP underlay with path-vector routing and hijack injection.

The InterEdge rides on the existing Internet. For the security experiment
(prefix hijacking, §6.2) we need an underlay in which a malicious AS can
announce a victim's prefix and attract traffic. This module implements a
small BGP-like path-vector routing model over an AS graph:

* ASes originate prefixes and propagate announcements to neighbors.
* Route selection prefers shortest AS path; ties break on lowest AS number
  (a stand-in for the full BGP decision process).
* A hijacker can originate someone else's prefix, attracting the traffic of
  every AS that is path-length-closer to the hijacker than to the victim.

It deliberately omits business relationships (Gao-Rexford) — the hijack
experiment only needs "some ASes are fooled", which shortest-path capture
reproduces; see DESIGN.md §4.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Iterable, Optional


class IPNetError(Exception):
    """Raised for invalid underlay configuration."""


@dataclass(frozen=True)
class Route:
    """A selected route for a prefix at some AS."""

    prefix: ipaddress.IPv4Network
    as_path: tuple[int, ...]  # first element is the next hop, last the origin

    @property
    def origin(self) -> int:
        return self.as_path[-1]

    @property
    def next_hop(self) -> int:
        return self.as_path[0]

    @property
    def length(self) -> int:
        return len(self.as_path)


@dataclass
class AutonomousSystem:
    """One AS: a routing table plus the prefixes it legitimately owns."""

    asn: int
    owned_prefixes: set[ipaddress.IPv4Network] = field(default_factory=set)
    # prefix -> selected Route (routes to owned prefixes are local, no path)
    rib: dict[ipaddress.IPv4Network, Route] = field(default_factory=dict)


def _better(candidate: Route, incumbent: Optional[Route]) -> bool:
    if incumbent is None:
        return True
    if candidate.length != incumbent.length:
        return candidate.length < incumbent.length
    return candidate.origin < incumbent.origin


class ASGraph:
    """An AS-level topology with path-vector route computation."""

    def __init__(self) -> None:
        import networkx as nx

        self.graph = nx.Graph()
        self.ases: dict[int, AutonomousSystem] = {}
        # prefix -> set of origin ASNs currently announcing it
        self._origins: dict[ipaddress.IPv4Network, set[int]] = {}

    def add_as(self, asn: int) -> AutonomousSystem:
        if asn in self.ases:
            raise IPNetError(f"AS{asn} already exists")
        system = AutonomousSystem(asn)
        self.ases[asn] = system
        self.graph.add_node(asn)
        return system

    def peer(self, a: int, b: int) -> None:
        if a not in self.ases or b not in self.ases:
            raise IPNetError("both ASes must exist before peering")
        self.graph.add_edge(a, b)

    def originate(self, asn: int, prefix: str | ipaddress.IPv4Network) -> None:
        """AS ``asn`` announces ``prefix`` as its own (legitimately or not)."""
        net = ipaddress.IPv4Network(prefix)
        self.ases[asn].owned_prefixes.add(net)
        self._origins.setdefault(net, set()).add(asn)

    def withdraw(self, asn: int, prefix: str | ipaddress.IPv4Network) -> None:
        net = ipaddress.IPv4Network(prefix)
        self.ases[asn].owned_prefixes.discard(net)
        origins = self._origins.get(net)
        if origins:
            origins.discard(asn)

    def converge(self) -> None:
        """Recompute every AS's RIB from scratch (BFS from each origin).

        Equivalent to full path-vector convergence with shortest-path
        selection; rebuilt wholesale since topologies here are small.
        """
        import networkx as nx

        for system in self.ases.values():
            system.rib.clear()
        for prefix, origins in self._origins.items():
            for origin in sorted(origins):
                lengths = nx.single_source_shortest_path(self.graph, origin)
                for asn, path in lengths.items():
                    if asn == origin:
                        continue
                    # path is origin..asn; the AS path seen at asn is reversed
                    as_path = tuple(reversed(path[:-1]))
                    candidate = Route(prefix=prefix, as_path=as_path)
                    incumbent = self.ases[asn].rib.get(prefix)
                    if _better(candidate, incumbent):
                        self.ases[asn].rib[prefix] = candidate

    def resolve_origin(self, asn: int, address: str) -> Optional[int]:
        """Which origin AS does ``asn``'s best route for ``address`` lead to?

        Longest-prefix match over the AS's RIB; returns None if unroutable.
        Local ownership wins over any learned route.
        """
        addr = ipaddress.IPv4Address(address)
        system = self.ases[asn]
        for prefix in system.owned_prefixes:
            if addr in prefix:
                return asn
        best: Optional[Route] = None
        best_len = -1
        for prefix, route in system.rib.items():
            if addr in prefix and prefix.prefixlen > best_len:
                best = route
                best_len = prefix.prefixlen
        return best.origin if best else None

    def capture_fraction(
        self, victim: int, hijacker: int, prefix: str, observers: Iterable[int]
    ) -> float:
        """Fraction of observer ASes whose traffic to ``prefix`` is captured.

        Call after :meth:`converge` with the hijack announcement in place.
        """
        observers = list(observers)
        if not observers:
            return 0.0
        probe = str(next(ipaddress.IPv4Network(prefix).hosts()))
        captured = sum(
            1
            for asn in observers
            if asn not in (victim, hijacker)
            and self.resolve_origin(asn, probe) == hijacker
        )
        eligible = sum(1 for asn in observers if asn not in (victim, hijacker))
        return captured / eligible if eligible else 0.0


def build_random_as_graph(
    n_ases: int, degree: int = 3, seed: int = 0
) -> ASGraph:
    """A connected random AS graph (Barabási–Albert preferential attachment,
    which matches the Internet's heavy-tailed degree distribution)."""
    if n_ases < degree + 1:
        raise IPNetError("need more ASes than the attachment degree")
    import networkx as nx

    raw = nx.barabasi_albert_graph(n_ases, degree, seed=seed)
    asgraph = ASGraph()
    for node in raw.nodes:
        asgraph.add_as(int(node))
    for a, b in raw.edges:
        asgraph.peer(int(a), int(b))
    return asgraph
