"""First-hop SN discovery (§3.1 "Host-SN association").

Hosts find the first-hop SNs of an IESP "using a variety of standard
techniques (e.g., configuration, anycast, lookup, etc.)". All three are
implemented against a per-IESP directory of advertised SNs:

* **configuration**: the operator pins an SN address;
* **anycast**: the directory returns the topologically nearest advertised
  SN (we use link-latency distance, as IP anycast approximates);
* **lookup**: a registry query filtered by IESP and region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..netsim.node import NetNode
from .host import Host
from .service_node import ServiceNode

if TYPE_CHECKING:
    import networkx as nx


class DiscoveryError(Exception):
    """Raised when no suitable SN can be found."""


@dataclass
class Advertisement:
    sn: ServiceNode
    iesp: str
    region: str
    load: float = 0.0  # advertised load in [0, 1]; ties broken on this


class DiscoveryDirectory:
    """Advertised first-hop SNs across IESPs."""

    def __init__(self) -> None:
        self._ads: list[Advertisement] = []

    def advertise(
        self, sn: ServiceNode, iesp: str, region: str, load: float = 0.0
    ) -> None:
        self._ads.append(Advertisement(sn=sn, iesp=iesp, region=region, load=load))

    def withdraw(self, sn: ServiceNode) -> None:
        self._ads = [ad for ad in self._ads if ad.sn is not sn]

    # -- configuration -----------------------------------------------------
    def by_config(self, address: str) -> ServiceNode:
        for ad in self._ads:
            if ad.sn.address == address:
                return ad.sn
        raise DiscoveryError(f"configured SN {address} is not advertised")

    # -- lookup --------------------------------------------------------------
    def by_lookup(
        self, iesp: Optional[str] = None, region: Optional[str] = None
    ) -> list[ServiceNode]:
        result = [
            ad.sn
            for ad in self._ads
            if (iesp is None or ad.iesp == iesp)
            and (region is None or ad.region == region)
        ]
        if not result:
            raise DiscoveryError(
                f"no advertised SN for iesp={iesp!r} region={region!r}"
            )
        return result

    # -- anycast ----------------------------------------------------------
    def by_anycast(
        self, host: Host, iesp: Optional[str] = None
    ) -> ServiceNode:
        """Nearest advertised SN by latency-weighted hop distance."""
        candidates = [
            ad for ad in self._ads if iesp is None or ad.iesp == iesp
        ]
        if not candidates:
            raise DiscoveryError(f"no advertised SN for iesp={iesp!r}")
        import networkx as nx

        graph = _reachability_graph(host, [ad.sn for ad in candidates])
        best: Optional[Advertisement] = None
        best_key: tuple[float, float] = (float("inf"), float("inf"))
        for ad in candidates:
            try:
                dist = nx.shortest_path_length(
                    graph, host.name, ad.sn.name, weight="latency"
                )
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                continue
            key = (dist, ad.load)
            if key < best_key:
                best_key = key
                best = ad
        if best is None:
            raise DiscoveryError(f"host {host.name} cannot reach any SN")
        return best.sn


def _reachability_graph(host: Host, sns: list[ServiceNode]) -> nx.Graph:
    """BFS outward from the host over links, collecting a latency graph."""
    import networkx as nx

    graph = nx.Graph()
    seen: set[NetNode] = set()
    frontier: list[NetNode] = [host]
    while frontier:
        node = frontier.pop()
        if node in seen:
            continue
        seen.add(node)
        for link in node.links:
            other = link.other(node)
            graph.add_edge(node.name, other.name, latency=link.latency)
            if other not in seen:
                frontier.append(other)
    return graph


def associate_via_anycast(
    host: Host, directory: DiscoveryDirectory, iesp: Optional[str] = None
) -> ServiceNode:
    """Discover the nearest SN and complete the host association."""
    sn = directory.by_anycast(host, iesp=iesp)
    if not host.has_link_to(sn):
        from ..netsim.link import Link

        Link(host.sim, host, sn, latency=0.001)
    sn.associate_host(host)
    return sn
