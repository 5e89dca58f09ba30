"""Network node base class.

A :class:`NetNode` is anything attached to links: hosts, service nodes,
underlay routers. Subclasses override :meth:`handle_frame`. Nodes keep a
neighbor table (node → link) so higher layers can send by next-hop node
rather than by interface index.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .engine import Simulator
from .link import Link


class NodeError(Exception):
    """Raised for invalid node operations (e.g. no link to neighbor)."""


class NetNode:
    """Base class for all simulated devices."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.links: list[Link] = []
        self._neighbor_links: dict["NetNode", Link] = {}
        self.frames_received = 0
        self.frames_sent = 0
        #: True while the node is crashed: links are down and any frame
        #: already on the wire toward it is dropped on arrival.
        self.failed = False
        self.frames_dropped_failed = 0
        # Optional tap invoked for every received frame (tracing/tests).
        self.rx_tap: Optional[Callable[[Any, Link], None]] = None

    def attach_link(self, link: Link) -> None:
        self.links.append(link)
        self._neighbor_links[link.other(self)] = link

    def neighbors(self) -> list["NetNode"]:
        return list(self._neighbor_links)

    def link_to(self, neighbor: "NetNode") -> Link:
        try:
            return self._neighbor_links[neighbor]
        except KeyError:
            raise NodeError(f"{self.name} has no link to {neighbor.name}") from None

    def has_link_to(self, neighbor: "NetNode") -> bool:
        return neighbor in self._neighbor_links

    def fail(self) -> None:
        """Crash the node: mark it failed and take every attached link down.

        In-flight frames (already on the wire) are dropped on arrival
        while failed. Subclasses layer volatile-state loss on top (see
        ``ServiceNode.crash``).
        """
        self.failed = True
        for link in self.links:
            link.set_down()

    def recover(self) -> None:
        """Undo :meth:`fail`: bring the node and its links back up.

        Links downed independently of the crash come back up too — the
        fault harness models node restart as "power back on"; compose a
        separate link fault if a link must stay dark across a restart.
        """
        self.failed = False
        for link in self.links:
            link.set_up()

    def send_frame(self, frame: Any, neighbor: "NetNode") -> bool:
        """Transmit one frame to a directly connected neighbor: a burst of one."""
        return self.send_burst([frame], neighbor) == 1

    def send_burst(self, frames: list, neighbor: "NetNode") -> int:
        """Transmit frames back to back to a neighbor; returns how many left."""
        sent = self.link_to(neighbor).transmit_burst(frames, self)
        self.frames_sent += sent
        return sent

    def receive_frame(self, frame: Any, link: Link) -> None:
        """Entry point called by links; dispatches to :meth:`handle_frame`."""
        if self.failed:
            self.frames_dropped_failed += 1
            return
        self.frames_received += 1
        if self.rx_tap is not None:
            self.rx_tap(frame, link)
        self.handle_frame(frame, link)

    def receive_burst(self, frames: list, link: Link) -> None:
        """Entry point for a coalesced back-to-back burst from a link.

        The default keeps per-frame semantics (taps, counters, dispatch in
        arrival order). Subclasses with a batch-capable datapath — e.g.
        :class:`~repro.core.service_node.ServiceNode` feeding its
        pipe-terminus — override this to process the burst as one unit.
        """
        if self.failed:
            self.frames_dropped_failed += len(frames)
            return
        for frame in frames:
            self.receive_frame(frame, link)

    def handle_frame(self, frame: Any, link: Link) -> None:
        """Process a received frame. Subclasses override."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"


class SinkNode(NetNode):
    """A node that records everything it receives (test/benchmark helper)."""

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self.received: list[Any] = []

    def handle_frame(self, frame: Any, link: Link) -> None:
        self.received.append(frame)


class EchoNode(NetNode):
    """A node that bounces every frame back to its sender."""

    def handle_frame(self, frame: Any, link: Link) -> None:
        link.transmit(frame, self)
