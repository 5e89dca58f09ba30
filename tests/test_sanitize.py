"""Unit tests for sanitizer mode (``REPRO_SANITIZE=1``).

These are white-box tests: several deliberately corrupt private state to
prove the armed checks detect it, under ``# repro: allow(DET002)`` waivers.
"""

import pytest

from repro import sanitize
from repro.core.decision_cache import CacheKey, Decision, DecisionCache
from repro.core.ilp import ILPHeader, TLV
from repro.core.pipe_terminus import _san_check_header_wire
from repro.core.psp import PSPContext

from tests.conftest import counter_fields, stats_classes


@pytest.fixture
def armed():
    previous = sanitize.set_enabled(True)
    yield
    sanitize.set_enabled(previous)


@pytest.fixture
def disarmed():
    previous = sanitize.set_enabled(False)
    yield
    sanitize.set_enabled(previous)


class TestToggle:
    def test_set_enabled_returns_previous(self):
        previous = sanitize.set_enabled(True)
        try:
            assert sanitize.set_enabled(True) is True
            assert sanitize.set_enabled(False) is True
            assert sanitize.set_enabled(False) is False
        finally:
            sanitize.set_enabled(previous)

    @pytest.mark.parametrize(
        "value,expected",
        [
            ("1", True),
            ("true", True),
            ("YES", True),
            (" on ", True),
            ("0", False),
            ("", False),
            ("off", False),
            ("no", False),
        ],
    )
    def test_enabled_from_env(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitize.enabled_from_env() is expected

    def test_unset_env_means_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitize.enabled_from_env() is False

    def test_sanitize_error_is_assertion_error(self):
        assert issubclass(sanitize.SanitizeError, AssertionError)

    def test_fail_names_the_check(self):
        with pytest.raises(sanitize.SanitizeError, match=r"sanitize\[demo\]: boom"):
            sanitize.fail("demo", "boom")


class TestNonceMonotonicity:
    def _ctx(self):
        return PSPContext(b"m" * 16)

    def test_normal_sealing_is_clean(self, armed):
        ctx = self._ctx()
        ctx.seal(b"a")
        ctx.seal_batch([b"b", b"c"])
        ctx.seal_run(b"d", 3)
        ctx.rotate()
        ctx.seal(b"e")

    def test_regression_detected_on_seal(self, armed):
        ctx = self._ctx()
        ctx.seal(b"a")
        # White-box: pretend a much later nonce was already sealed this epoch.
        ctx._san_hwm[ctx.epoch] = 2**40  # repro: allow(DET002) forced regression
        with pytest.raises(sanitize.SanitizeError, match="nonce-monotonic"):
            ctx.seal(b"b")

    def test_regression_detected_on_batch_and_run(self, armed):
        ctx = self._ctx()
        ctx._san_hwm[ctx.epoch] = 2**40  # repro: allow(DET002) forced regression
        with pytest.raises(sanitize.SanitizeError, match="nonce-monotonic"):
            ctx.seal_batch([b"a", b"b"])
        with pytest.raises(sanitize.SanitizeError, match="nonce-monotonic"):
            ctx.seal_run(b"c", 2)

    def test_disarmed_skips_the_check(self, disarmed):
        ctx = self._ctx()
        ctx._san_hwm[ctx.epoch] = 2**40  # repro: allow(DET002) forced regression
        ctx.seal(b"a")  # no error: the check is not armed


class TestCacheCoherence:
    def _cache(self):
        cache = DecisionCache(capacity=16)
        cache.install(CacheKey("h1", 1, 1), Decision.forward("p1"))
        cache.install(CacheKey("h2", 1, 2), Decision.drop())
        return cache

    def test_mutations_stay_coherent_while_armed(self, armed):
        cache = self._cache()
        cache.invalidate(CacheKey("h2", 1, 2))
        cache.invalidate_connection(1, 1)
        cache.install(CacheKey("h3", 2, 3), Decision.forward("p2"))
        cache.invalidate_by_target("p2")
        assert cache.count_targeting("p2") == 0
        cache.check_index_coherence()

    def test_dropped_position_entry_detected(self):
        cache = self._cache()
        cache.check_index_coherence()
        cache._key_pos.pop(CacheKey("h1", 1, 1))  # repro: allow(DET002) corruption
        with pytest.raises(sanitize.SanitizeError, match="cache-coherence"):
            cache.check_index_coherence()

    def test_wrong_connection_filing_detected(self):
        cache = self._cache()
        by_conn = cache._by_conn  # repro: allow(DET002) white-box corruption
        by_conn[(9, 9)] = by_conn.pop((1, 1))
        with pytest.raises(sanitize.SanitizeError, match="wrong connection"):
            cache.check_index_coherence()

    def test_full_scan_limit_bounds_the_check(self, monkeypatch):
        cache = self._cache()
        by_conn = cache._by_conn  # repro: allow(DET002) white-box corruption
        by_conn[(9, 9)] = by_conn.pop((1, 1))
        # Above the cutoff only O(1) cardinality checks run, so the
        # wrong-bucket filing (same cardinality) goes unreported.
        monkeypatch.setattr(sanitize, "FULL_SCAN_LIMIT", 0)
        cache.check_index_coherence()
        monkeypatch.setattr(sanitize, "FULL_SCAN_LIMIT", 512)
        with pytest.raises(sanitize.SanitizeError, match="wrong connection"):
            cache.check_index_coherence()


class TestMissQueueLedger:
    def _queue(self):
        from repro.core.pipe_terminus import MissQueue

        return MissQueue(limit=4)

    def test_clean_queue_passes(self, armed):
        queue = self._queue()
        queue.park(("p", b"f"), ["a", "b"])
        queue.drain(("p", b"f"), fast=True)
        queue.check_drained()

    def test_leak_detected(self, armed):
        queue = self._queue()
        queue.park(("p", b"f"), ["a"])
        with pytest.raises(sanitize.SanitizeError, match="miss-queue-leak"):
            queue.check_drained()

    def test_follower_less_lead_leaves_no_entry(self, armed):
        """Regression: ``park(flow, [])`` (a cold lead with no followers)
        used to insert an empty per-flow list nobody drained, one per
        single-packet cold run, without bound."""
        from repro.core.pipe_terminus import MissQueue

        for limit in (4, 0):
            queue = MissQueue(limit=limit)
            for i in range(100):
                assert queue.park(("p", b"f%d" % i), []) == []
            # The bound hit before anything parked leaves no entry either.
            assert queue.park(("p", b"g"), ["s"] * (limit + 1)) == ["s"]
            assert len(queue.drain(("p", b"g"), fast=True)) == limit
            assert queue.stats.offered == limit + 1
            assert not queue._flows  # repro: allow(DET002)
            queue.check_drained()

    def test_empty_flow_entry_detected(self, armed):
        queue = self._queue()
        queue._flows[("p", b"f")] = []  # repro: allow(DET002)
        with pytest.raises(sanitize.SanitizeError, match="miss-queue-leak"):
            queue.check_drained()

    def test_ledger_violation_detected(self, armed):
        queue = self._queue()
        queue.park(("p", b"f"), ["a"])
        queue.drain(("p", b"f"), fast=True)
        # Corrupt the ledger: a drain that was never parked.
        queue.stats.drained_fast += 1  # repro: allow(DET002)
        with pytest.raises(sanitize.SanitizeError, match="miss-queue-ledger"):
            queue.check_drained()

    def test_crash_discard_keeps_ledger_clean(self, armed):
        queue = self._queue()
        queue.park(("p", b"f"), ["a", "b", "c"])
        assert queue.discard_all() == 3
        queue.check_drained()
        assert queue.stats.dropped == 3

    def _node(self):
        from repro.core.service_node import ServiceNode
        from repro.netsim import Simulator

        return ServiceNode(Simulator(), "sn", "10.0.0.1")

    def test_batch_ingress_detects_leak_when_armed(self, armed):
        node = self._node()
        node.terminus.miss_queue.park(("p", b"f"), ["stuck"])
        with pytest.raises(sanitize.SanitizeError, match="miss-queue-leak"):
            node.terminus.receive_batch([])

    def test_batch_ingress_skips_check_when_disarmed(self, disarmed):
        node = self._node()
        node.terminus.miss_queue.park(("p", b"f"), ["stuck"])
        assert node.terminus.receive_batch([]) == 0


def test_conservation_ledgers_name_real_counters():
    """A renamed or misspelled counter must break the build, not silently
    void the runtime ledger check that reads it with ``getattr``."""
    classes = stats_classes()
    for class_name, (total, exits) in sanitize.CONSERVATION_LEDGERS.items():
        assert class_name in classes, f"no *Stats dataclass named {class_name}"
        fields = counter_fields(classes[class_name])
        for name in (total, *exits):
            assert name in fields, f"{class_name} has no counter {name!r}"


class TestPacketFateLedger:
    """Every arrival meets exactly one first fate; armed bursts check it."""

    def _node(self):
        from repro.core.service_node import ServiceNode
        from repro.netsim import Simulator

        return ServiceNode(Simulator(), "sn", "10.0.0.1")

    def _stranger(self):
        from repro.core.packet import ILPPacket, L3Header, make_payload

        return ILPPacket(
            l3=L3Header(src="198.51.100.9", dst="10.0.0.1"),
            ilp_wire=b"",
            payload=make_payload(b""),
        )

    def test_counted_drop_balances(self, armed):
        node = self._node()
        assert node.terminus.receive_batch([self._stranger()] * 3) == 3
        assert node.terminus.stats.drops_no_peer == 3

    def test_unbooked_fate_detected_when_armed(self, armed):
        node = self._node()
        node.terminus.stats.packets_in += 1  # an arrival nobody accounted for
        with pytest.raises(sanitize.SanitizeError, match="packet-fate-ledger"):
            node.terminus.receive_batch([self._stranger()])

    def test_short_circuits_are_the_guard_ledgers_term(self, armed):
        node = self._node()
        node.terminus.stats.packets_in += 1
        node.terminus.overload.stats.short_circuits += 1
        assert node.terminus.receive_batch([]) == 0

    def test_egress_miss_is_not_a_fate(self, armed):
        # An unknown *next hop* drops an already-booked packet: it must
        # not be booked under the ingress counter the ledger sums.
        from repro.core.packet import make_payload

        node = self._node()
        header = ILPHeader(service_id=1, connection_id=1)
        assert not node.terminus.send("203.0.113.1", header, make_payload(b""))
        assert node.terminus.stats.drops_no_route == 1
        assert node.terminus.receive_batch([]) == 0

    def test_disarmed_skips_the_check(self, disarmed):
        node = self._node()
        node.terminus.stats.packets_in += 1
        assert node.terminus.receive_batch([]) == 0


class TestHeaderReencode:
    def test_fresh_encode_passes(self):
        header = ILPHeader(service_id=7, connection_id=42)
        header.set_str(TLV.DEST_ADDR, "10.0.0.9")
        _san_check_header_wire(header, header.encode())

    def test_drifted_wire_detected(self):
        header = ILPHeader(service_id=7, connection_id=42)
        wire = bytearray(header.encode())
        wire[-1] ^= 0xFF
        with pytest.raises(sanitize.SanitizeError, match="header-reencode"):
            _san_check_header_wire(header, bytes(wire))

    def test_stale_memo_scenario_detected(self):
        # A caller that keeps pre-encoded bytes, then mutates the header,
        # must not ship the stale wire form.
        header = ILPHeader(service_id=7, connection_id=42)
        stale = header.encode()
        header.set_str(TLV.DEST_ADDR, "10.0.0.9")
        with pytest.raises(sanitize.SanitizeError, match="header-reencode"):
            _san_check_header_wire(header, stale)
