"""``Link.transmit_burst`` ≡ the same frames sent one call each.

``Link.transmit`` is itself a burst of one, so comparing the two would
compare the loop with itself. The reference here is a literal per-frame
transcription of the pre-burst ``Link.transmit`` body, kept in this file
(on a ``Link`` subclass, so it reads the same fields) and driven against a
twin link: same seeds, same clock steps, same up/down flips. Everything a
sender, a receiver or a fault script can observe must agree —
``LinkStats``, which frames arrive and when (so ``_tx_free_at`` carried
across bursts shows up as a later frame's arrival), how many delivery
events they rode, the return value, and the next value the loss RNG hands
out. An over-MTU frame raises ``LinkError`` with the frames before it
already on the wire.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import Link, Simulator
from repro.netsim.link import LinkError, frame_size
from repro.netsim.node import NetNode

MTU = 1500


@dataclass(frozen=True)
class _Frame:
    ident: int
    wire_size: int


class _Recorder(NetNode):
    """Records every frame with its arrival time."""

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self.arrivals: list[tuple[int, float]] = []

    def handle_frame(self, frame: _Frame, link: Link) -> None:
        self.arrivals.append((frame.ident, self.sim.now))


class _PerFrameLink(Link):
    """A link that also keeps the pre-burst per-frame ``transmit`` body."""

    def transmit_one(self, frame: _Frame, src: NetNode) -> bool:
        dst = self.other(src)
        stats = self.stats[src]
        size = frame_size(frame)
        if size > self.mtu:
            raise LinkError(f"frame of {size}B exceeds MTU {self.mtu}")
        if not self.up:
            stats.frames_dropped_down += 1
            return False
        stats.frames_sent += 1
        stats.bytes_sent += size
        if self._loss_rate and self._rng.random() < self._loss_rate:
            stats.frames_dropped_loss += 1
            return False
        serialization = (size * 8) / self.bandwidth_bps if self.bandwidth_bps > 0 else 0.0
        start = max(self.sim.now, self._tx_free_at[src])
        done = start + serialization
        self._tx_free_at[src] = done
        arrival = done + self.latency
        pending = self._pending_burst[src]
        if pending is not None and pending[0] == arrival:
            pending[1].append(frame)
            pending[2] += size
        else:
            pending = self._pending_burst[src] = [arrival, [frame], size]
            self.sim.post_at(arrival, self._deliver_burst, src, dst, pending)
        return True


def _rig(link_cls: type[Link], bandwidth_bps: float, loss_rate: float, seed: int):
    sim = Simulator()
    src, dst = NetNode(sim, "src"), _Recorder(sim, "dst")
    rng = random.Random(seed)
    link = link_cls(
        sim, src, dst, latency=0.001, bandwidth_bps=bandwidth_bps,
        loss_rate=loss_rate, mtu=MTU, rng=rng,
    )
    return sim, src, dst, link, rng


# One step: let the clock run for ``gap``, set the link up or down, then
# send one burst. Sizes reach past the MTU so some bursts raise part-way.
_step = st.tuples(
    st.sampled_from([0.0, 1e-6, 0.0005, 0.01]),
    st.booleans(),
    st.lists(st.integers(min_value=1, max_value=MTU + 60), max_size=12),
)


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(_step, min_size=1, max_size=6),
    bandwidth_bps=st.sampled_from([0.0, 1e6, 8e9]),
    loss_rate=st.sampled_from([0.0, 0.3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_burst_matches_per_frame_reference(steps, bandwidth_bps, loss_rate, seed):
    sim_b, src_b, dst_b, burst_link, rng_b = _rig(Link, bandwidth_bps, loss_rate, seed)
    sim_r, src_r, dst_r, ref_link, rng_r = _rig(_PerFrameLink, bandwidth_bps, loss_rate, seed)
    ident = 0
    for gap, up, sizes in steps:
        for sim, link in ((sim_b, burst_link), (sim_r, ref_link)):
            sim.run(until=sim.now + gap)
            (link.set_up if up else link.set_down)()
        frames = [_Frame(ident + i, size) for i, size in enumerate(sizes)]
        ident += len(frames)

        ref_sent, ref_raised = 0, False
        try:
            for frame in frames:
                ref_sent += ref_link.transmit_one(frame, src_r)
        except LinkError:
            ref_raised = True
        try:
            assert burst_link.transmit_burst(frames, src_b) == ref_sent
            assert not ref_raised
        except LinkError:
            assert ref_raised
        # The frames before an over-MTU one are on the wire on both links.
        assert burst_link.stats[src_b] == ref_link.stats[src_r]

    sim_b.run()
    sim_r.run()
    assert burst_link.stats[src_b] == ref_link.stats[src_r]
    assert dst_b.arrivals == dst_r.arrivals
    assert sim_b.events_processed == sim_r.events_processed
    assert rng_b.random() == rng_r.random()


def test_over_mtu_raises_with_earlier_frames_on_the_wire():
    sim, src, dst, link, _ = _rig(Link, 0.0, 0.0, 0)
    frames = [_Frame(0, 100), _Frame(1, 200), _Frame(2, MTU + 1), _Frame(3, 100)]
    with pytest.raises(LinkError):
        link.transmit_burst(frames, src)
    sim.run()
    assert [i for i, _ in dst.arrivals] == [0, 1]
    assert link.stats[src].frames_sent == 2
    assert link.stats[src].bytes_sent == 300
