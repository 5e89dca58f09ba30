"""Property-based tests on service-layer data structures."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.control.core_store import CoreStore
from repro.sched import TokenBucket
from repro.services.caching import CacheStore
from repro.services.msgqueue import QueueState, queue_home
from repro.wireguard import TunnelMesh


class TestCacheStoreProperties:
    @given(
        operations=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),  # object id
                st.booleans(),  # put or get
                st.floats(min_value=0.0, max_value=100.0),  # time
            ),
            max_size=150,
        ),
        capacity=st.integers(min_value=1, max_value=16),
    )
    def test_capacity_and_consistency(self, operations, capacity):
        store = CacheStore(capacity=capacity, default_ttl=1e6)
        shadow: dict[str, bytes] = {}
        for obj, is_put, now in sorted(operations, key=lambda o: o[2]):
            url = f"/o/{obj}"
            if is_put:
                store.put(url, url.encode(), now=now)
                shadow[url] = url.encode()
            else:
                got = store.get(url, now=now)
                if got is not None:
                    # Anything returned must be the correct body...
                    assert got == shadow.get(url)
            assert len(store) <= capacity

    @given(
        ttl=st.floats(min_value=0.1, max_value=100.0),
        age=st.floats(min_value=0.0, max_value=200.0),
    )
    def test_ttl_is_exact_boundary(self, ttl, age):
        store = CacheStore(default_ttl=ttl)
        store.put("/x", b"b", now=0.0)
        got = store.get("/x", now=age)
        assert (got is not None) == (age < ttl)


class TestTokenBucketProperties:
    @given(
        rate=st.floats(min_value=100.0, max_value=1e6),
        burst=st.integers(min_value=10, max_value=10_000),
        packets=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=2000),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            max_size=100,
        ),
    )
    def test_never_exceeds_rate_plus_burst(self, rate, burst, packets):
        """Long-run admitted bytes ≤ burst + rate*elapsed — the defining
        token-bucket property."""
        bucket = TokenBucket(rate_bps=rate, burst_bytes=burst)
        admitted = 0
        last_time = 0.0
        for size, gap in packets:
            last_time += gap
            if bucket.try_consume(size, now=last_time):
                admitted += size
        assert admitted <= burst + rate * last_time / 8.0 + 1e-6


class TestQueueProperties:
    @given(
        messages=st.lists(st.binary(min_size=1, max_size=16), max_size=120),
        max_log=st.integers(min_value=1, max_value=64),
    )
    def test_bounded_log_keeps_newest(self, messages, max_log):
        state = QueueState("q", max_log=max_log)
        for message in messages:
            state.append(message)
        assert len(state.log) == min(len(messages), max_log)
        assert state.log == messages[-max_log:]

    @given(
        messages=st.lists(st.binary(min_size=1, max_size=8), max_size=80),
        max_log=st.integers(min_value=4, max_value=32),
    )
    def test_cursors_never_out_of_range(self, messages, max_log):
        state = QueueState("q", max_log=max_log)
        state.cursors["c"] = 0
        for i, message in enumerate(messages):
            state.append(message)
            # Consumer consumes everything available each round.
            state.cursors["c"] = len(state.log)
        assert 0 <= state.cursors["c"] <= len(state.log)

    @given(
        queues=st.lists(
            st.text(min_size=1, max_size=12, alphabet="abcdefgh123"),
            min_size=1,
            max_size=30,
        ),
        sns=st.lists(
            st.text(min_size=1, max_size=8, alphabet="0123456789."),
            min_size=1,
            max_size=8,
            unique=True,
        ),
    )
    def test_queue_home_deterministic_and_valid(self, queues, sns):
        for queue in queues:
            home = queue_home(queue, sns)
            assert home in sns
            assert home == queue_home(queue, list(reversed(sns)))


class TestCoreStoreProperties:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["add", "remove"]),
                st.integers(min_value=0, max_value=10),
            ),
            max_size=100,
        )
    )
    def test_wal_replay_equals_live_state(self, ops):
        store = CoreStore()
        for op, member in ops:
            if op == "add":
                store.add("k", member)
            else:
                store.remove("k", member)
        rebuilt = store.rebuild_from_wal()
        assert rebuilt.members("k") == store.members("k")

    @given(members=st.sets(st.integers(min_value=0, max_value=50), max_size=30))
    def test_add_remove_roundtrip_empties(self, members):
        store = CoreStore()
        for m in members:
            store.add("g", m)
        for m in members:
            assert store.remove("g", m)
        assert store.members("g") == set()


class TestMeshProperties:
    @given(
        n_tunnels=st.integers(min_value=1, max_value=40),
        splits=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=20, deadline=None)
    def test_advance_is_split_invariant(self, n_tunnels, splits):
        """Advancing in k chunks produces the same rekey count as one jump."""
        horizon = 720.0

        def run(steps: int) -> int:
            mesh = TunnelMesh("n", rekey_interval=180.0, keepalives_enabled=False)
            mesh.add_peers(n_tunnels)
            total = 0
            for i in range(1, steps + 1):
                total += mesh.advance(until=horizon * i / steps).rekeys
            return total

        assert run(splits) == run(1) == n_tunnels * 4
