"""Point-to-point links with latency, bandwidth, loss, and MTU.

A :class:`Link` connects two :class:`~repro.netsim.node.NetNode` interfaces.
Frames are any objects exposing a ``wire_size`` attribute (bytes on the
wire); delivery is scheduled on the simulator after propagation plus
serialization delay, with optional random loss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from .engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import NetNode

DEFAULT_MTU = 1500


class LinkError(Exception):
    """Raised on invalid link operations (e.g. MTU exceeded)."""


@dataclass
class LinkStats:
    """Counters kept per link direction."""

    frames_sent: int = 0
    frames_delivered: int = 0
    frames_dropped_loss: int = 0
    frames_dropped_down: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0


def frame_size(frame: Any) -> int:
    """Size in bytes of a frame on the wire."""
    size = getattr(frame, "wire_size", None)
    if size is None:
        if isinstance(frame, (bytes, bytearray)):
            return len(frame)
        raise LinkError(f"frame {frame!r} has no wire_size")
    return int(size)


class Link:
    """A bidirectional point-to-point link between two nodes.

    A sender hands a back-to-back burst over in one
    :meth:`transmit_burst` call (:meth:`transmit` is a burst of one);
    frames of a burst that share an arrival time ride one delivery event.

    Args:
        sim: the simulator driving delivery events.
        a, b: the endpoint nodes.
        latency: one-way propagation delay in seconds.
        bandwidth_bps: link rate in bits/sec; 0 means infinite.
        loss_rate: independent per-frame drop probability.
        mtu: maximum frame size in bytes.
        rng: random source for loss decisions (deterministic tests pass a
            seeded ``random.Random``).
    """

    def __init__(
        self,
        sim: Simulator,
        a: "NetNode",
        b: "NetNode",
        latency: float = 0.001,
        bandwidth_bps: float = 0.0,
        loss_rate: float = 0.0,
        mtu: int = DEFAULT_MTU,
        rng: Optional[random.Random] = None,
    ) -> None:
        if latency < 0:
            raise LinkError("latency must be non-negative")
        self.sim = sim
        self.a = a
        self.b = b
        self.latency = latency
        self.bandwidth_bps = bandwidth_bps
        self.loss_rate = loss_rate
        self.mtu = mtu
        self.up = True
        self.down_transitions = 0
        self._rng = rng or random.Random(0)
        # Earliest time each direction's transmitter is free again, used to
        # model serialization at the configured bandwidth.
        self._tx_free_at = {a: 0.0, b: 0.0}
        # Per-direction open burst: frames sent back-to-back that share one
        # arrival time ride a single coalesced delivery event instead of
        # one event per frame (see :meth:`transmit_burst`).
        self._pending_burst: dict["NetNode", Optional[list]] = {a: None, b: None}
        self.stats = {a: LinkStats(), b: LinkStats()}
        a.attach_link(self)
        b.attach_link(self)

    def other(self, node: "NetNode") -> "NetNode":
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise LinkError(f"{node!r} is not attached to this link")

    @property
    def loss_rate(self) -> float:
        """Independent per-frame drop probability, settable in [0, 1].

        Fault injection (and tests) adjust loss mid-run through this
        setter; pair with :meth:`reseed` for reproducible drop patterns.
        """
        return self._loss_rate

    @loss_rate.setter
    def loss_rate(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise LinkError("loss_rate must be in [0, 1]")
        self._loss_rate = rate

    def reseed(self, seed: int) -> None:
        """Replace the loss RNG with a fresh seeded one (deterministic runs)."""
        self._rng = random.Random(seed)

    def set_loss(self, rate: float, seed: Optional[int] = None) -> None:
        """Set the loss rate, optionally reseeding the drop RNG atomically."""
        if seed is not None:
            self.reseed(seed)
        self.loss_rate = rate

    def set_down(self) -> None:
        """Fail the link; in-flight frames still arrive (already on the wire)."""
        if self.up:
            self.down_transitions += 1
        self.up = False

    def set_up(self) -> None:
        self.up = True

    def transmit(self, frame: Any, src: "NetNode") -> bool:
        """Send one frame: a burst of one (see :meth:`transmit_burst`)."""
        return self.transmit_burst([frame], src) == 1

    def transmit_burst(self, frames: list, src: "NetNode") -> int:
        """Send ``frames`` back to back from ``src`` toward the other endpoint.

        The per-frame rules run in order inside one loop — MTU check
        (:class:`LinkError`; the frames before the offender stay on the
        wire), ``up`` check, one loss draw, serialization at
        ``bandwidth_bps`` — so a burst is indistinguishable from the same
        frames sent one call each. Returns how many frames were put on
        the wire (they may still be lost).
        """
        dst = self.other(src)
        stats = self.stats[src]
        mtu, up, loss, latency = self.mtu, self.up, self._loss_rate, self.latency
        bandwidth = self.bandwidth_bps
        draw = self._rng.random
        now = self.sim.now
        free_at = self._tx_free_at[src]
        pending = self._pending_burst[src]
        on_wire = 0
        try:
            for frame in frames:
                size = frame_size(frame)
                if size > mtu:
                    raise LinkError(f"frame of {size}B exceeds MTU {mtu}")
                if not up:
                    stats.frames_dropped_down += 1
                    continue
                stats.frames_sent += 1
                stats.bytes_sent += size
                if loss and draw() < loss:
                    stats.frames_dropped_loss += 1
                    continue
                start = now if now > free_at else free_at
                free_at = start + ((size * 8) / bandwidth if bandwidth > 0 else 0.0)
                arrival = free_at + latency
                # Frames sharing an arrival time ride one delivery event: an
                # infinite-rate link lands a whole burst at one instant (the
                # receiver may batch-process it); bandwidth serialization
                # spreads frames out, each starting a new burst.
                if pending is not None and pending[0] == arrival:
                    pending[1].append(frame)
                    pending[2] += size
                else:
                    pending = [arrival, [frame], size]
                    # Fire-and-forget: never cancelled, so no EventHandle.
                    self.sim.post_at(arrival, self._deliver_burst, src, dst, pending)
                on_wire += 1
        finally:
            self._tx_free_at[src] = free_at
            self._pending_burst[src] = pending
        return on_wire

    def _deliver_burst(
        self, src: "NetNode", dst: "NetNode", burst: list
    ) -> None:
        if self._pending_burst[src] is burst:
            self._pending_burst[src] = None
        _, frames, size = burst
        stats = self.stats[src]
        stats.frames_delivered += len(frames)
        stats.bytes_delivered += size
        if len(frames) == 1:
            dst.receive_frame(frames[0], self)
        else:
            dst.receive_burst(frames, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.a.name}<->{self.b.name}, lat={self.latency}s, "
            f"bw={self.bandwidth_bps}bps)"
        )
