"""Property-based tests (hypothesis) for core invariants."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import crypto
from repro.core.decision_cache import CacheKey, Decision, DecisionCache
from repro.core.ilp import ILPHeader
from repro.core.psp import PSPContext, pairwise_secret
from repro.netsim import Simulator
from repro.netsim.trace import percentile
from repro.sched import WeightedFairQueue


# -- ILP header roundtrip ------------------------------------------------------

tlv_values = st.binary(min_size=0, max_size=128)
tlv_dicts = st.dictionaries(
    st.integers(min_value=1, max_value=255), tlv_values, max_size=8
)


class TestILPRoundtrip:
    @given(
        service_id=st.integers(min_value=0, max_value=0xFFFF),
        connection_id=st.integers(min_value=0, max_value=2**64 - 1),
        flags=st.integers(min_value=0, max_value=0xFF),
        tlvs=tlv_dicts,
    )
    def test_encode_decode_identity(self, service_id, connection_id, flags, tlvs):
        header = ILPHeader(
            service_id=service_id,
            connection_id=connection_id,
            flags=flags,
            tlvs=dict(tlvs),
        )
        decoded = ILPHeader.decode(header.encode())
        assert decoded.service_id == service_id
        assert decoded.connection_id == connection_id
        assert decoded.flags == flags
        assert decoded.tlvs == tlvs

    @given(tlvs=tlv_dicts)
    def test_encoded_size_matches(self, tlvs):
        header = ILPHeader(service_id=1, connection_id=1, tlvs=dict(tlvs))
        assert len(header.encode()) == header.encoded_size


# -- crypto / PSP -----------------------------------------------------------

class TestCryptoProperties:
    @given(plaintext=st.binary(max_size=512), aad=st.binary(max_size=32))
    def test_seal_open_roundtrip(self, plaintext, aad):
        key = crypto.derive_key(b"k" * 32, "test")
        nonce = b"\x00" * 7 + b"\x01"
        assert (
            crypto.open_sealed(key, nonce, crypto.seal(key, nonce, plaintext, aad), aad)
            == plaintext
        )

    @given(
        plaintext=st.binary(min_size=1, max_size=256),
        flip=st.integers(min_value=0),
    )
    def test_any_single_bitflip_detected(self, plaintext, flip):
        key = crypto.derive_key(b"k" * 32, "test")
        nonce = b"\x00" * 7 + b"\x02"
        sealed = bytearray(crypto.seal(key, nonce, plaintext))
        index = flip % len(sealed)
        sealed[index] ^= 0x01
        with pytest.raises(crypto.CryptoError):
            crypto.open_sealed(key, nonce, bytes(sealed))

    @given(messages=st.lists(st.binary(max_size=64), min_size=1, max_size=20))
    def test_psp_any_arrival_order(self, messages):
        secret = pairwise_secret("10.0.0.1", "10.0.0.2")
        tx, rx = PSPContext(secret), PSPContext(secret)
        blobs = [tx.seal(m) for m in messages]
        # Reverse order is the worst case; all must decrypt.
        for blob, message in zip(reversed(blobs), reversed(messages)):
            assert rx.open(blob) == message


# -- decision cache -----------------------------------------------------------

class TestCacheProperties:
    @given(
        capacity=st.integers(min_value=1, max_value=64),
        operations=st.lists(
            st.tuples(st.integers(min_value=0, max_value=100), st.booleans()),
            max_size=200,
        ),
    )
    def test_capacity_never_exceeded(self, capacity, operations):
        cache = DecisionCache(capacity=capacity)
        for conn_id, is_install in operations:
            key = CacheKey("10.0.0.1", 1, conn_id)
            if is_install:
                cache.install(key, Decision.drop())
            else:
                cache.lookup(key)
            assert len(cache) <= capacity

    @given(
        installs=st.sets(st.integers(min_value=0, max_value=1000), max_size=50),
        evict_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_eviction_only_loses_performance_not_entries_integrity(
        self, installs, evict_fraction
    ):
        """After arbitrary eviction, every surviving entry still returns its
        original decision, and no phantom entries appear."""
        cache = DecisionCache(capacity=4096)
        for conn_id in installs:
            cache.install(
                CacheKey("10.0.0.1", 1, conn_id), Decision.forward(f"10.0.{conn_id % 250}.1")
            )
        cache.evict_random_fraction(evict_fraction)
        surviving = set(cache.keys())
        for key in surviving:
            decision = cache.lookup(key)
            assert decision.targets[0].peer == f"10.0.{key.connection_id % 250}.1"
        for conn_id in installs:
            key = CacheKey("10.0.0.1", 1, conn_id)
            if key not in surviving:
                assert cache.lookup(key) is None


# -- schedulers ----------------------------------------------------------

class TestSchedulerProperties:
    @given(
        weights=st.lists(
            st.floats(min_value=0.5, max_value=8.0), min_size=2, max_size=4
        ),
    )
    @settings(max_examples=30)
    def test_wfq_conserves_work(self, weights):
        wfq = WeightedFairQueue()
        for i, w in enumerate(weights):
            wfq.add_flow(f"f{i}", w)
        total = 0
        for i in range(len(weights)):
            for j in range(20):
                wfq.enqueue(f"f{i}", 100, (i, j))
                total += 1
        seen = 0
        while wfq.dequeue() is not None:
            seen += 1
        assert seen == total

    @given(
        weights=st.lists(
            st.floats(min_value=1.0, max_value=4.0), min_size=2, max_size=3
        )
    )
    @settings(max_examples=20)
    def test_wfq_backlogged_service_tracks_weights(self, weights):
        wfq = WeightedFairQueue()
        for i, w in enumerate(weights):
            wfq.add_flow(f"f{i}", w)
        for _ in range(200):
            for i in range(len(weights)):
                wfq.enqueue(f"f{i}", 100, None)
        # Serve half the total; all flows stay backlogged throughout.
        for _ in range(100 * len(weights)):
            wfq.dequeue()
        served = [wfq.bytes_dequeued(f"f{i}") for i in range(len(weights))]
        total_weight = sum(weights)
        total_served = sum(served)
        for got, weight in zip(served, weights):
            expected = total_served * weight / total_weight
            assert got == pytest.approx(expected, rel=0.25)


# -- simulator -----------------------------------------------------------

class TestSimulatorProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=50))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


# -- statistics ----------------------------------------------------------

class TestPercentileProperties:
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100
        ),
        pct=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_percentile_bounded_by_extremes(self, values, pct):
        ordered = sorted(values)
        result = percentile(ordered, pct)
        assert ordered[0] <= result <= ordered[-1]
