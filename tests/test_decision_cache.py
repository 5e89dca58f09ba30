"""Unit tests for the decision cache (Appendix B semantics)."""

import pytest

from repro.core.decision_cache import (
    Action,
    CacheError,
    CacheKey,
    Decision,
    DecisionCache,
    EvictionPolicy,
    ForwardTarget,
)


def key(i: int) -> CacheKey:
    return CacheKey(src=f"10.0.0.{i % 250 + 1}", service_id=1, connection_id=i)


class TestDecision:
    def test_forward_requires_targets(self):
        with pytest.raises(CacheError):
            Decision(action=Action.FORWARD)

    def test_drop_cannot_have_targets(self):
        with pytest.raises(CacheError):
            Decision(action=Action.DROP, targets=(ForwardTarget("10.0.0.1"),))

    def test_multi_target_forward(self):
        decision = Decision.forward("10.0.0.1", "10.0.0.2", "10.0.0.3")
        assert len(decision.targets) == 3


class TestLookupInstall:
    def test_miss_then_hit(self):
        cache = DecisionCache(capacity=8)
        assert cache.lookup(key(1)) is None
        cache.install(key(1), Decision.forward("10.0.0.2"))
        result = cache.lookup(key(1))
        assert result is not None
        assert result.targets[0].peer == "10.0.0.2"

    def test_keys_are_exact_match(self):
        cache = DecisionCache()
        cache.install(key(1), Decision.drop())
        other = CacheKey(src=key(1).src, service_id=2, connection_id=1)
        assert cache.lookup(other) is None

    def test_reinstall_replaces(self):
        cache = DecisionCache()
        cache.install(key(1), Decision.forward("10.0.0.2"))
        cache.install(key(1), Decision.drop())
        assert cache.lookup(key(1)).action is Action.DROP
        assert len(cache) == 1

    def test_stats(self):
        cache = DecisionCache()
        cache.lookup(key(1))
        cache.install(key(1), Decision.drop())
        cache.lookup(key(1))
        assert cache.stats.lookups == 2
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5


class TestInstallMany:
    def _snapshot(self, cache):
        return (
            cache.snapshot_entries(),
            cache.stats.installs,
            cache.stats.evictions,
            len(cache),
        )

    def test_equivalent_to_sequential_installs(self):
        pairs = [(key(i), Decision.drop()) for i in range(6)]
        pairs.append((key(2), Decision.forward("10.0.0.9")))  # replace
        seq, batch = DecisionCache(capacity=8), DecisionCache(capacity=8)
        for k, d in pairs:
            seq.install(k, d, now=1.0)
        batch.install_many(pairs, now=1.0)
        assert self._snapshot(batch) == self._snapshot(seq)

    def test_replacement_moves_to_lru_tail(self):
        cache = DecisionCache(capacity=8)
        cache.install(key(1), Decision.drop())
        cache.install(key(2), Decision.drop())
        cache.install_many([(key(1), Decision.forward("10.0.0.9"))])
        entries = cache.snapshot_entries()
        assert entries[-1][0] == key(1)
        assert cache.lookup(key(1)).targets[0].peer == "10.0.0.9"

    def test_evicts_at_capacity_like_install(self):
        seq, batch = DecisionCache(capacity=4), DecisionCache(capacity=4)
        pairs = [(key(i), Decision.drop()) for i in range(10)]
        for k, d in pairs:
            seq.install(k, d)
        batch.install_many(pairs)
        assert self._snapshot(batch) == self._snapshot(seq)

    def test_empty_batch_is_noop(self):
        cache = DecisionCache()
        cache.install_many([])
        assert cache.stats.installs == 0
        assert len(cache) == 0


class TestCapacityEviction:
    def test_capacity_bound_holds(self):
        cache = DecisionCache(capacity=16)
        for i in range(100):
            cache.install(key(i), Decision.drop())
        assert len(cache) == 16
        assert cache.stats.evictions == 84

    def test_lru_evicts_least_recent(self):
        cache = DecisionCache(capacity=2, policy=EvictionPolicy.LRU)
        cache.install(key(1), Decision.drop())
        cache.install(key(2), Decision.drop())
        cache.lookup(key(1))  # touch 1 -> 2 is now LRU
        cache.install(key(3), Decision.drop())
        assert key(1) in cache
        assert key(2) not in cache

    def test_fifo_evicts_oldest(self):
        cache = DecisionCache(capacity=2, policy=EvictionPolicy.FIFO)
        cache.install(key(1), Decision.drop())
        cache.install(key(2), Decision.drop())
        cache.lookup(key(1))  # FIFO ignores recency
        cache.install(key(3), Decision.drop())
        assert key(1) not in cache

    def test_random_policy_respects_capacity(self):
        cache = DecisionCache(capacity=8, policy=EvictionPolicy.RANDOM)
        for i in range(50):
            cache.install(key(i), Decision.drop())
        assert len(cache) == 8

    def test_invalid_capacity(self):
        with pytest.raises(CacheError):
            DecisionCache(capacity=0)

    def test_evict_random_fraction(self):
        cache = DecisionCache(capacity=128)
        for i in range(100):
            cache.install(key(i), Decision.drop())
        evicted = cache.evict_random_fraction(0.5)
        assert evicted == 50
        assert len(cache) == 50


class TestInvalidation:
    def test_invalidate_single(self):
        cache = DecisionCache()
        cache.install(key(1), Decision.drop())
        assert cache.invalidate(key(1)) is True
        assert cache.invalidate(key(1)) is False
        assert cache.lookup(key(1)) is None

    def test_invalidate_connection_all_sources(self):
        cache = DecisionCache()
        for src in ("10.0.0.1", "10.0.0.2", "10.0.0.3"):
            cache.install(
                CacheKey(src=src, service_id=1, connection_id=77), Decision.drop()
            )
        cache.install(CacheKey(src="10.0.0.1", service_id=1, connection_id=78), Decision.drop())
        removed = cache.invalidate_connection(1, 77)
        assert removed == 3
        assert len(cache) == 1


class TestActivityAPI:
    """The §B.2 hit-count / recently-used API."""

    def test_hit_count_increments(self):
        cache = DecisionCache()
        cache.install(key(1), Decision.drop())
        assert cache.hit_count(key(1)) == 0
        cache.lookup(key(1))
        cache.lookup(key(1))
        assert cache.hit_count(key(1)) == 2

    def test_hit_count_missing_entry(self):
        assert DecisionCache().hit_count(key(9)) is None

    def test_recently_used_window(self):
        cache = DecisionCache()
        cache.install(key(1), Decision.drop(), now=0.0)
        cache.lookup(key(1), now=10.0)
        assert cache.recently_used(key(1), now=12.0, window=5.0)
        assert not cache.recently_used(key(1), now=20.0, window=5.0)

    def test_recently_used_never_hit(self):
        cache = DecisionCache()
        cache.install(key(1), Decision.drop(), now=0.0)
        assert not cache.recently_used(key(1), now=0.0, window=100.0)


class TestConnectionIndex:
    """The (service_id, connection_id) secondary index stays in sync with
    the table through installs, evictions, and invalidations."""

    def _assert_index_consistent(self, cache: DecisionCache) -> None:
        # Raises SanitizeError on any table/index divergence, including
        # retained empty buckets and stale key-list positions.
        cache.check_index_coherence()

    def test_index_tracks_install_and_invalidate(self):
        cache = DecisionCache(capacity=64)
        for i in range(20):
            cache.install(key(i), Decision.drop())
        self._assert_index_consistent(cache)
        for i in range(0, 20, 2):
            cache.invalidate(key(i))
        self._assert_index_consistent(cache)
        assert len(cache) == 10

    def test_index_survives_capacity_eviction(self):
        for policy in EvictionPolicy:
            cache = DecisionCache(capacity=8, policy=policy)
            for i in range(50):
                cache.install(key(i), Decision.drop())
            self._assert_index_consistent(cache)
            assert len(cache) == 8

    def test_index_survives_random_fraction_eviction(self):
        cache = DecisionCache(capacity=128)
        for i in range(100):
            cache.install(key(i), Decision.drop())
        cache.evict_random_fraction(0.37)
        self._assert_index_consistent(cache)

    def test_invalidate_connection_uses_index(self):
        cache = DecisionCache()
        for src in ("10.0.0.1", "10.0.0.2", "10.0.0.3"):
            cache.install(CacheKey(src, 5, 99), Decision.drop())
        for i in range(100):
            cache.install(key(i), Decision.drop())
        assert cache.invalidate_connection(5, 99) == 3
        assert cache.invalidate_connection(5, 99) == 0
        self._assert_index_consistent(cache)
        assert len(cache) == 100

    def test_reinstall_does_not_duplicate_index(self):
        cache = DecisionCache()
        cache.install(key(1), Decision.drop())
        cache.install(key(1), Decision.forward("10.0.0.9"))
        self._assert_index_consistent(cache)
        assert cache.invalidate_connection(1, 1) == 1
        self._assert_index_consistent(cache)
        assert len(cache) == 0


class TestLookupMany:
    """Batched multi-key queries (the sharding stage's lookup pass)."""

    def test_counts_of_one_match_individual_lookups_on_hits(self):
        batched, scalar = DecisionCache(), DecisionCache()
        for cache in (batched, scalar):
            cache.install(key(1), Decision.drop())
            cache.install(key(2), Decision.forward("10.0.0.9"))
        keys = [key(1), key(2), key(1)]
        results = batched.lookup_many(keys, [1, 1, 1], now=7.0)
        expected = [scalar.lookup(k, now=7.0) for k in keys]
        assert results == expected
        assert batched.stats == scalar.stats
        assert batched.snapshot_entries() == scalar.snapshot_entries()

    def test_counts_mode_matches_lookup_run(self):
        """A hit for ``count`` packets books exactly ``count`` scalar
        lookups; ``lookup_run`` is the one-key spelling of the same probe."""
        batched, runs, scalar = DecisionCache(), DecisionCache(), DecisionCache()
        for cache in (batched, runs, scalar):
            cache.install(key(1), Decision.drop())
            cache.install(key(2), Decision.forward("10.0.0.9"))
        keys = [key(1), key(3), key(2)]
        counts = [4, 5, 2]
        results = batched.lookup_many(keys, counts, now=3.0)
        expected = [runs.lookup_run(k, c, now=3.0) for k, c in zip(keys, counts)]
        assert results == expected
        assert batched.stats == runs.stats
        assert batched.snapshot_entries() == runs.snapshot_entries()
        for k, c in zip(keys, counts):
            if k in scalar:  # a miss charges nothing in counts mode
                for _ in range(c):
                    scalar.lookup(k, now=3.0)
        assert batched.stats == scalar.stats
        assert batched.snapshot_entries() == scalar.snapshot_entries()

    def test_counts_mode_miss_charges_nothing(self):
        cache = DecisionCache()
        assert cache.lookup_many([key(1), key(2)], [10, 20]) == [None, None]
        assert cache.stats.lookups == 0
        assert cache.stats.misses == 0

    def test_duplicate_keys_stack_bookkeeping(self):
        cache = DecisionCache()
        cache.install(key(1), Decision.drop())
        results = cache.lookup_many([key(1), key(1)], [3, 2], now=1.0)
        assert results[0] is results[1]
        assert cache.stats.lookups == 5
        assert cache.stats.hits == 5
        assert cache.hit_count(key(1)) == 5

    def test_lru_touch_order_follows_key_order(self):
        cache = DecisionCache(policy=EvictionPolicy.LRU)
        for i in (1, 2, 3):
            cache.install(key(i), Decision.drop())
        cache.lookup_many([key(2), key(1)], [1, 1])
        order = [row[0] for row in cache.snapshot_entries()]
        assert order == [key(3), key(2), key(1)]

    def test_empty_batch(self):
        cache = DecisionCache()
        assert cache.lookup_many([], []) == []
        assert cache.stats.lookups == 0


class TestLookupManyIndexCoherence:
    """lookup_many keeps every secondary index coherent, sanitizer armed."""

    @pytest.fixture(autouse=True)
    def _armed(self):
        from repro import sanitize

        previous = sanitize.set_enabled(True)
        yield
        sanitize.set_enabled(previous)

    def test_batched_lookups_between_mutations(self):
        cache = DecisionCache(capacity=32)
        for i in range(40):  # drives evictions through install's armed check
            cache.install(key(i), Decision.drop())
            cache.lookup_many([key(i), key(i - 5), key(i + 1)], [2, 1, 1])
        cache.invalidate(key(39))
        cache.lookup_many([key(39), key(38)], [1, 1])
        cache.invalidate_connection(1, 38)
        cache.lookup_many([key(38)], [4])
        cache.check_index_coherence()

    def test_precomputed_hash_equals_fresh_key(self):
        # The cached-slot hash must behave exactly like the tuple hash it
        # memoizes: equal keys collide, probes built from fresh objects hit.
        cache = DecisionCache()
        cache.install(key(7), Decision.drop())
        fresh = CacheKey(src=key(7).src, service_id=1, connection_id=7)
        assert hash(fresh) == hash(key(7))
        assert cache.lookup_many([fresh], [1]) != [None]
        cache.check_index_coherence()
