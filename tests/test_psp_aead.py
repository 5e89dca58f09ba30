"""PSP on AES-GCM: one SA per direction, typed failures, and a lean import.

* The two ends of an association share one pairwise key, so each must seal
  under its own direction: otherwise both count nonces 1, 2, ... under the
  same epoch key, and under GCM that reuse leaks plaintext XORs and the
  authentication key.
* Every tampered or truncated frame is one typed ``PSPError`` (or one
  ``None`` from ``open_batch``) and exactly one ``auth_failures``; the
  cipher's own ``InvalidTag`` never escapes.
* ``import repro`` loads neither numpy nor networkx: no datapath code uses
  them, and they would cost the process ~30 MB of RSS.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro import InterEdge
from repro.core import crypto
from repro.core.host import Host
from repro.core.psp import PSPContext, PSPError, associate, pairwise_secret
from repro.core.service_module import WellKnownService
from repro.core.service_node import ServiceNode
from repro.netsim import Link, Simulator
from repro.services import standard_registry

SRC = Path(__file__).resolve().parents[1] / "src"


def _pipe_pair():
    """Both ends of a fresh SN↔SN pipe association."""
    sim = Simulator()
    west = ServiceNode(sim, "west", "10.0.0.1")
    east = ServiceNode(sim, "east", "10.0.0.2")
    west.establish_pipe(east)
    return west.keystore.get(east.address), east.keystore.get(west.address)


def _host_pair():
    """Both ends of a fresh host↔SN association."""
    sim = Simulator()
    sn = ServiceNode(sim, "sn", "10.0.0.1")
    host = Host(sim, "h", "192.168.0.1")
    Link(sim, host, sn)
    sn.associate_host(host)
    return host.keystore.get(sn.address), sn.keystore.get(host.address)


def _direct_pair():
    """Both ends of a fresh same-subnet host↔host association (§3.2)."""
    sim = Simulator()
    sn = ServiceNode(sim, "sn", "10.0.0.1")
    a = Host(sim, "a", "192.168.0.1", subnet="192.168.0.0/24")
    b = Host(sim, "b", "192.168.0.2", subnet="192.168.0.0/24")
    for host in (a, b):
        Link(sim, host, sn)
        sn.associate_host(host)
    Link(sim, a, b)
    a.connect(WellKnownService.IP_DELIVERY, dest_addr=b.address)
    return a.keystore.get(b.address), b.keystore.get(a.address)


PAIRS = [_pipe_pair, _host_pair, _direct_pair]


class TestOneSAPerDirection:
    @pytest.mark.parametrize("make_pair", PAIRS)
    def test_directions_never_share_a_gcm_nonce(self, make_pair):
        a, b = make_pair()
        header = b"same ilp header in both directions"
        a_to_b = [a.seal(header) for _ in range(8)]
        b_to_a = [b.seal(header) for _ in range(8)]
        # Same epoch and the same wire nonces 1..8 on both sides ...
        assert [f[:9] for f in a_to_b] == [f[:9] for f in b_to_a]
        # ... yet one plaintext gives 16 distinct ciphertexts: no
        # (key, 96-bit nonce) pair repeats across the two directions.
        assert len({f[9:] for f in a_to_b + b_to_a}) == 16

    @pytest.mark.parametrize("make_pair", PAIRS)
    def test_keystreams_differ_across_directions(self, make_pair):
        """Nonce reuse would make ct_ab ^ ct_ba equal pt_ab ^ pt_ba."""
        a, b = make_pair()
        pt_ab, pt_ba = b"A" * 32, b"B" * 32
        ct_ab, ct_ba = a.seal(pt_ab)[9:41], b.seal(pt_ba)[9:41]
        xor = lambda x, y: bytes(i ^ j for i, j in zip(x, y))
        assert xor(ct_ab, ct_ba) != xor(pt_ab, pt_ba)

    @pytest.mark.parametrize("make_pair", PAIRS)
    def test_reflected_frame_fails_at_its_sender(self, make_pair):
        a, b = make_pair()
        frame = a.seal(b"ilp header")
        assert b.open(frame) == b"ilp header"
        with pytest.raises(PSPError):
            a.open(frame)
        assert a.stats.auth_failures == 1
        assert a.open_batch([frame]) == [None]
        assert a.stats.auth_failures == 2
        assert a.stats.packets_opened == 0

    def test_every_federation_association_is_bound(self):
        net = InterEdge(registry=standard_registry())
        net.create_edomain("a")
        net.create_edomain("b")
        sn1 = net.add_sn("a", name="pop-1")
        net.add_sn("b", name="pop-2")
        net.peer_all()
        net.deploy_required_services()
        hosts = [net.add_host(sn1, name=name) for name in ("alice", "bob")]
        nodes = [*net.all_sns(), *hosts]
        contexts = [ctx for node in nodes for ctx in node.keystore.contexts.values()]
        assert len(contexts) == 2 + 2 * len(hosts)
        assert all(ctx.seal_schedule.direction != crypto.UNBOUND for ctx in contexts)

    def test_unbound_context_opens_either_direction(self):
        """A hand-built context (no endpoints) still reads both ends' frames."""
        a, b = _pipe_pair()
        observer = PSPContext(pairwise_secret("10.0.0.1", "10.0.0.2"))
        assert observer.open(a.seal(b"east-bound")) == b"east-bound"
        assert observer.open(b.seal(b"west-bound")) == b"west-bound"


def _sealed_prefixes(ctx: PSPContext, count: int) -> list[bytes]:
    """Seal ``count`` frames; return their wire ``epoch || nonce`` prefixes."""
    return [ctx.seal(b"ilp header")[:9] for _ in range(count)]


class TestReassociationNeverReusesANonce:
    """Re-creating an association must not restart a nonce counter under a
    key it already sealed with: under GCM a repeated (key, nonce) leaks
    plaintext XORs and the authentication key."""

    def test_establish_direct_over_a_peered_pair(self):
        net = InterEdge(registry=standard_registry())
        net.create_edomain("a")
        net.create_edomain("b")
        sn_a = net.add_sn("a", name="pop-a")
        sn_b = net.add_sn("b", name="pop-b")
        net.peer_all()
        first = _sealed_prefixes(sn_a.keystore.get(sn_b.address), 3)
        net.establish_direct(sn_a, sn_b)
        ctx = sn_a.keystore.get(sn_b.address)
        again = _sealed_prefixes(ctx, 3)
        assert not set(first) & set(again)
        frame = ctx.seal(b"still opens")
        assert sn_b.keystore.get(sn_a.address).open(frame) == b"still opens"

    def test_host_migrating_back_to_its_first_sn(self):
        """The load balancer's migrate-back is ``associate_host`` again."""
        sim = Simulator()
        hot = ServiceNode(sim, "hot", "10.0.0.1")
        cold = ServiceNode(sim, "cold", "10.0.0.2")
        host = Host(sim, "h", "192.168.0.1")
        for sn in (hot, cold):
            Link(sim, host, sn)
        hot.associate_host(host)
        up = _sealed_prefixes(host.keystore.get(hot.address), 3)
        down = _sealed_prefixes(hot.keystore.get(host.address), 3)
        cold.associate_host(host)
        hot.associate_host(host)
        assert not set(up) & set(_sealed_prefixes(host.keystore.get(hot.address), 3))
        assert not set(down) & set(_sealed_prefixes(hot.keystore.get(host.address), 3))

    def test_pipe_rebuilt_after_teardown_moves_to_a_fresh_key(self):
        sim = Simulator()
        west = ServiceNode(sim, "west", "10.0.0.1")
        east = ServiceNode(sim, "east", "10.0.0.2")
        west.establish_pipe(east)
        first = [west.keystore.get(east.address).seal(b"ilp header") for _ in range(3)]
        west.teardown_pipe(east.address)
        east.teardown_pipe(west.address)
        west.establish_pipe(east)
        tx, rx = west.keystore.get(east.address), east.keystore.get(west.address)
        # Same epoch 0 and wire nonces 1..3, but under the next generation's key.
        again = [tx.seal(b"ilp header") for _ in range(3)]
        assert tx.epoch == rx.epoch == 0
        assert [f[:9] for f in first] == [f[:9] for f in again]
        assert not set(first) & set(again)
        assert rx.open(tx.seal(b"fresh key")) == b"fresh key"

    def test_reassociation_after_a_full_epoch_wrap(self):
        """256 epochs later the epoch byte is back at 0: only a fresh key
        keeps the new SA's first frame from repeating the old SA's."""
        sim = Simulator()
        a = ServiceNode(sim, "a", "10.0.0.1")
        b = ServiceNode(sim, "b", "10.0.0.2")
        associate(a, b)
        ctx = a.keystore.get(b.address)
        first = ctx.seal(b"ilp header")
        for _ in range(255):
            ctx.rotate()
        a.keystore.remove(b.address)
        b.keystore.remove(a.address)
        associate(a, b)
        again = a.keystore.get(b.address).seal(b"ilp header")
        assert again[:9] == first[:9]  # epoch 0, nonce 1 on both
        assert again != first
        assert b.keystore.get(a.address).open(again) == b"ilp header"


class TestForwardEpochNeedsAnAuthenticFrame:
    def test_forged_next_epoch_frame_leaves_no_schedule(self):
        """One forged frame with epoch byte 1 must not make a context
        hold epoch 1's schedule: only an authentic frame may."""
        _, rx = _pipe_pair()
        forged = bytes([1]) + bytes(40)
        with pytest.raises(PSPError):
            rx.open(forged)
        assert rx.open_batch([forged]) == [None]
        assert rx.known_epochs() == (0,)
        assert rx.stats.auth_failures == 2

    def test_authentic_next_epoch_frame_is_kept(self):
        tx, rx = _pipe_pair()
        tx.rotate()
        assert rx.open(tx.seal(b"ahead")) == b"ahead"
        assert rx.known_epochs() == (0, 1)


def _mutations(length: int):
    flips = st.tuples(st.just("flip"), st.integers(0, length * 8 - 1))
    cuts = st.tuples(st.just("truncate"), st.integers(0, length - 1))
    return st.one_of(flips, cuts)


def _mutate(frame: bytes, mutation: tuple[str, int]) -> bytes:
    kind, where = mutation
    if kind == "truncate":
        return frame[:where]
    bad = bytearray(frame)
    bad[where // 8] ^= 1 << (where % 8)
    return bytes(bad)


class TestTamperedFramesAreTypedFailures:
    """Flip any bit of epoch, nonce, ciphertext or tag, or cut the frame."""

    @given(
        plaintext=st.binary(max_size=64),
        bound=st.booleans(),
        data=st.data(),
    )
    def test_open_and_open_batch(self, plaintext, bound, data):
        if bound:
            tx, rx = _pipe_pair()
            _, rx_batch = _pipe_pair()
        else:
            secret = pairwise_secret("10.0.0.1", "10.0.0.2")
            tx, rx, rx_batch = (PSPContext(secret) for _ in range(3))
        good = tx.seal(plaintext)
        bad = _mutate(good, data.draw(_mutations(len(good))))

        with pytest.raises(PSPError):
            rx.open(bad)
        assert rx.stats.auth_failures == 1
        assert rx.stats.packets_opened == 0

        assert rx_batch.open_batch([good, bad, good]) == [plaintext, None, plaintext]
        assert rx_batch.stats.auth_failures == 1
        assert rx_batch.stats.packets_opened == 2


def test_import_repro_loads_neither_numpy_nor_networkx():
    probe = (
        "import sys, repro, repro.services; "
        "print(sorted(m for m in ('numpy', 'networkx') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
