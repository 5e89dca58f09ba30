"""Topology construction helpers.

Builds the node/link graphs used by integration tests, examples, and
benchmarks: stars (hosts around an SN), edomain meshes, and arbitrary
graphs loaded from ``networkx``.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .engine import Simulator
from .link import Link
from .node import NetNode

if TYPE_CHECKING:
    import networkx as nx


class Topology:
    """A named collection of nodes and the links between them."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: dict[str, NetNode] = {}
        self.links: list[Link] = []

    def add_node(self, node: NetNode) -> NetNode:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        return node

    def node(self, name: str) -> NetNode:
        return self.nodes[name]

    def connect(
        self,
        a: NetNode | str,
        b: NetNode | str,
        latency: float = 0.001,
        bandwidth_bps: float = 0.0,
        loss_rate: float = 0.0,
        mtu: int = 1500,
        rng: Optional[random.Random] = None,
    ) -> Link:
        node_a = self.nodes[a] if isinstance(a, str) else a
        node_b = self.nodes[b] if isinstance(b, str) else b
        link = Link(
            self.sim,
            node_a,
            node_b,
            latency=latency,
            bandwidth_bps=bandwidth_bps,
            loss_rate=loss_rate,
            mtu=mtu,
            rng=rng,
        )
        self.links.append(link)
        return link

    def to_networkx(self) -> nx.Graph:
        """Export as a ``networkx`` graph with latency edge weights."""
        import networkx as nx

        graph = nx.Graph()
        for name in self.nodes:
            graph.add_node(name)
        for link in self.links:
            graph.add_edge(link.a.name, link.b.name, latency=link.latency)
        return graph

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """Latency-weighted shortest node-name path."""
        import networkx as nx

        return nx.shortest_path(self.to_networkx(), src, dst, weight="latency")


def build_star(
    sim: Simulator,
    center_factory: Callable[[Simulator, str], NetNode],
    leaf_factory: Callable[[Simulator, str], NetNode],
    n_leaves: int,
    latency: float = 0.001,
    name_prefix: str = "leaf",
) -> Topology:
    """A star: one center node and ``n_leaves`` leaves."""
    topo = Topology(sim)
    center = topo.add_node(center_factory(sim, "center"))
    for i in range(n_leaves):
        leaf = topo.add_node(leaf_factory(sim, f"{name_prefix}{i}"))
        topo.connect(center, leaf, latency=latency)
    return topo


def build_full_mesh(
    sim: Simulator,
    factory: Callable[[Simulator, str], NetNode],
    names: Iterable[str],
    latency: float = 0.005,
) -> Topology:
    """A full mesh over the given node names (used for edomain peering)."""
    topo = Topology(sim)
    created = [topo.add_node(factory(sim, name)) for name in names]
    for i, a in enumerate(created):
        for b in created[i + 1 :]:
            topo.connect(a, b, latency=latency)
    return topo


def build_line(
    sim: Simulator,
    factory: Callable[[Simulator, str], NetNode],
    n: int,
    latency: float = 0.001,
    name_prefix: str = "n",
) -> Topology:
    """A chain of ``n`` nodes — useful for pass-through SN scenarios."""
    topo = Topology(sim)
    created = [topo.add_node(factory(sim, f"{name_prefix}{i}")) for i in range(n)]
    for a, b in zip(created, created[1:]):
        topo.connect(a, b, latency=latency)
    return topo
