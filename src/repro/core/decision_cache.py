"""The pipe-terminus decision cache (match-action table).

Per §4 and Appendix B:

* keys are exact-match on (L3 source, service ID, connection ID);
* the action says whether and to whom to forward (possibly multiple
  destinations — multicast fans out here);
* entries may be **evicted arbitrarily, even for active connections** —
  correctness must never depend on residency, so a miss simply punts the
  packet to the service module, which recomputes the decision;
* services can query per-entry hit counts to learn whether a connection is
  still active (the "recently used" API, §B.2).

The implementation mimics a switch-ASIC exact-match table: bounded
capacity, O(1) lookup, pluggable eviction (LRU / FIFO / random).
"""

from __future__ import annotations

import enum
import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from .. import sanitize as _san


class CacheError(Exception):
    """Raised for invalid cache configuration."""


class Action(enum.Enum):
    FORWARD = "forward"
    DROP = "drop"


@dataclass(frozen=True, slots=True)
class CacheKey:
    """Exact-match key: (L3 source, service ID, connection ID).

    The hash is computed once at construction and cached in a slot: one
    key probes several tables on the fast path (entry table, position map,
    connection index) and the sharding stage batches many keys through
    :meth:`DecisionCache.lookup_many`, so the per-probe tuple hash is
    hoisted to construction time.
    """

    src: str
    service_id: int
    connection_id: int
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        # In-process dict-probe memo only: same per-process semantics as
        # the builtin tuple hash it replaces, never persisted or replayed.
        # repro: allow(DET001) dict-probe memo, not replayed state
        h = hash((self.src, self.service_id, self.connection_id))
        object.__setattr__(self, "_hash", h)

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, slots=True)
class ForwardTarget:
    """One forwarding destination for a matched packet.

    ``peer`` is the next-hop ILP peer (an SN or a host). ``tlv_updates``
    lets the installing service rewrite header TLVs on the fast path (e.g.
    refresh DEST_SN after an inter-edomain handoff) without slow-path
    involvement.
    """

    peer: str
    tlv_updates: tuple[tuple[int, bytes], ...] = ()


@dataclass(frozen=True, slots=True)
class Decision:
    action: Action
    targets: tuple[ForwardTarget, ...] = ()

    def __post_init__(self) -> None:
        if self.action is Action.FORWARD and not self.targets:
            raise CacheError("FORWARD decision needs at least one target")
        if self.action is Action.DROP and self.targets:
            raise CacheError("DROP decision cannot carry targets")

    @staticmethod
    def forward(*peers: str) -> "Decision":
        return Decision(
            action=Action.FORWARD,
            targets=tuple(ForwardTarget(peer) for peer in peers),
        )

    @staticmethod
    def drop() -> "Decision":
        return Decision(action=Action.DROP)


class EvictionPolicy(enum.Enum):
    LRU = "lru"
    FIFO = "fifo"
    RANDOM = "random"


@dataclass(slots=True)
class _Entry:
    decision: Decision
    installed_at: float
    hits: int = 0
    last_hit_at: Optional[float] = None


@dataclass(slots=True)
class CacheStats:
    lookups: int = 0
    hits: int = 0
    misses: int = 0
    installs: int = 0
    evictions: int = 0
    invalidations: int = 0
    stale_hits: int = 0
    stale_misses: int = 0
    stale_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class DecisionCache:
    """Bounded exact-match decision cache.

    Alongside the live table sits a bounded **stale-decision shelf**: the
    last decision ever installed per key, kept (LRU-bounded at
    ``stale_capacity``) even after the live entry is evicted or replaced.
    It exists solely for ``fail_static`` degradation — when a service's
    circuit is open, the terminus may serve a connection's last-known
    decision instead of dropping — and is **never** consulted by the fast
    path. Teardown (:meth:`invalidate`, :meth:`invalidate_connection`) and
    failover (:meth:`invalidate_by_target`) purge it so a torn-down
    connection or a dead next hop can't be resurrected from the shelf, but
    capacity eviction deliberately leaves it alone: surviving arbitrary
    eviction is the point.
    """

    __slots__ = (
        "capacity",
        "policy",
        "_rng",
        "_entries",
        "_by_conn",
        "_key_list",
        "_key_pos",
        "stale_capacity",
        "_stale",
        "stats",
    )

    def __init__(
        self,
        capacity: int = 65536,
        policy: EvictionPolicy = EvictionPolicy.LRU,
        rng: Optional[random.Random] = None,
        stale_capacity: int = 1024,
    ) -> None:
        if capacity < 1:
            raise CacheError("capacity must be >= 1")
        if stale_capacity < 0:
            raise CacheError("stale_capacity must be >= 0")
        self.capacity = capacity
        self.policy = policy
        self._rng = rng or random.Random(0)
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        #: Secondary index for O(victims) connection teardown instead of a
        #: full-table scan: (service_id, connection_id) -> keys.
        self._by_conn: dict[tuple[int, int], set[CacheKey]] = {}
        #: Random-access view of the key set (swap-with-last removal) so
        #: RANDOM eviction picks a victim without copying the whole table.
        self._key_list: list[CacheKey] = []
        self._key_pos: dict[CacheKey, int] = {}
        self.stale_capacity = stale_capacity
        #: Last-known decision per key for ``fail_static`` degradation;
        #: LRU-bounded at ``stale_capacity`` (0 disables the shelf).
        self._stale: "OrderedDict[CacheKey, Decision]" = OrderedDict()
        self.stats = CacheStats()

    # -- secondary-index maintenance ----------------------------------
    def _index_add(self, key: CacheKey) -> None:
        self._by_conn.setdefault(
            (key.service_id, key.connection_id), set()
        ).add(key)
        self._key_pos[key] = len(self._key_list)
        self._key_list.append(key)

    def _index_discard(self, key: CacheKey) -> None:
        conn = (key.service_id, key.connection_id)
        members = self._by_conn.get(conn)
        if members is not None:
            members.discard(key)
            if not members:
                del self._by_conn[conn]
        pos = self._key_pos.pop(key, None)
        if pos is not None:
            last = self._key_list.pop()
            if pos < len(self._key_list):
                self._key_list[pos] = last
                self._key_pos[last] = pos

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def lookup(self, key: CacheKey, now: float = 0.0) -> Optional[Decision]:
        """Query the cache; updates hit bookkeeping."""
        self.stats.lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        entry.hits += 1
        entry.last_hit_at = now
        if self.policy is EvictionPolicy.LRU:
            self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry.decision

    def lookup_run(
        self, key: CacheKey, count: int, now: float = 0.0
    ) -> Optional[Decision]:
        """Query once for ``count`` packets sharing ``key``: one
        :meth:`lookup_many` entry."""
        return self.lookup_many([key], [count], now)[0]

    def lookup_many(
        self, keys: list[CacheKey], counts: list[int], now: float = 0.0
    ) -> list[Optional[Decision]]:
        """Query many keys in one pass; ``out[i]`` is ``keys[i]``'s decision.

        The decide stage's shape: one entry per flow group, ``counts[i]``
        packets behind ``keys[i]``. On a hit, bookkeeping is identical to
        ``counts[i]`` scalar :meth:`lookup` calls — that many stat
        lookups/hits and entry hits, one ``last_hit_at`` stamp, one LRU
        touch (moving the same key ``count`` times equals moving it once)
        — but the table is probed a single time.

        On a miss, *nothing* is counted and ``None`` is returned: the
        group's lead packet may install the decision the rest of the group
        then hits, so the caller charges the lead's scalar :meth:`lookup`
        and probes again for the followers. That keeps a burst's stats
        byte-for-byte equal to feeding its packets one at a time.

        Duplicate keys are fine: later occurrences see the same entry and
        stack their bookkeeping, exactly as repeated scalar calls would.
        """
        entries_get = self._entries.get
        lru = self.policy is EvictionPolicy.LRU
        move_to_end = self._entries.move_to_end
        out: list[Optional[Decision]] = []
        append = out.append
        hits = 0
        for key, count in zip(keys, counts):
            entry = entries_get(key)
            if entry is None:
                append(None)
                continue
            hits += count
            entry.hits += count
            entry.last_hit_at = now
            if lru:
                move_to_end(key)
            append(entry.decision)
        stats = self.stats
        stats.lookups += hits
        stats.hits += hits
        return out

    def _stale_put(self, key: CacheKey, decision: Decision) -> None:
        """Remember ``key``'s latest decision on the bounded stale shelf."""
        if self.stale_capacity == 0:
            return
        stale = self._stale
        if key in stale:
            stale[key] = decision
            stale.move_to_end(key)
            return
        while len(stale) >= self.stale_capacity:
            stale.popitem(last=False)
            self.stats.stale_evictions += 1
        stale[key] = decision

    def stale_lookup(self, key: CacheKey) -> Optional[Decision]:
        """Last-known decision for ``key`` (``fail_static`` degradation).

        Not a fast-path lookup: no hit bookkeeping, no LRU touch on the
        live table. The shelf's own LRU *is* refreshed so connections that
        keep degrading stay resident.
        """
        decision = self._stale.get(key)
        if decision is None:
            self.stats.stale_misses += 1
            return None
        self._stale.move_to_end(key)
        self.stats.stale_hits += 1
        return decision

    @property
    def stale_count(self) -> int:
        """Entries currently on the stale shelf (bounded-memory checks)."""
        return len(self._stale)

    def clear_stale(self) -> int:
        """Wipe the stale shelf (node crash); returns the evicted count."""
        count = len(self._stale)
        self._stale.clear()
        return count

    def install(self, key: CacheKey, decision: Decision, now: float = 0.0) -> None:
        """Install or replace one entry: an :meth:`install_many` of one."""
        self.install_many([(key, decision)], now)

    def install_many(
        self, pairs: list[tuple[CacheKey, Decision]], now: float = 0.0
    ) -> None:
        """Install or replace entries in order, evicting at capacity.

        Pairs are applied one after another — replacement, LRU touch,
        capacity eviction and ``stats.installs`` per pair — and the armed
        coherence scan runs once for the whole batch (it is a single
        logical mutation: a verdict's install set).
        """
        entries = self._entries
        lru = self.policy is EvictionPolicy.LRU
        capacity = self.capacity
        installs = 0
        for key, decision in pairs:
            self._stale_put(key, decision)
            entry = entries.get(key)
            if entry is not None:
                entry.decision = decision
                if lru:
                    entries.move_to_end(key)
                continue
            while len(entries) >= capacity:
                self._evict_one()
            entries[key] = _Entry(decision=decision, installed_at=now)
            self._index_add(key)
            installs += 1
        self.stats.installs += installs
        if _san.ENABLED and pairs:
            self.check_index_coherence()

    def invalidate(self, key: CacheKey) -> bool:
        """Remove one entry (service teardown). Returns True if present."""
        self._stale.pop(key, None)
        if self._entries.pop(key, None) is not None:
            self._index_discard(key)
            self.stats.invalidations += 1
            if _san.ENABLED:
                self.check_index_coherence()
            return True
        return False

    def invalidate_connection(self, service_id: int, connection_id: int) -> int:
        """Remove all entries for a (service, connection), any source.

        O(victims) via the secondary index, not a full-table scan — a busy
        SN tears down connections continuously while the table holds tens of
        thousands of unrelated entries.
        """
        # The shelf may hold keys the live table already evicted, so it is
        # scanned independently (bounded at ``stale_capacity``): a torn-down
        # connection must not be resurrectable via ``fail_static``.
        for key in [
            k
            for k in self._stale
            if k.service_id == service_id and k.connection_id == connection_id
        ]:
            del self._stale[key]
        victims = self._by_conn.get((service_id, connection_id))
        if not victims:
            return 0
        count = len(victims)
        for key in list(victims):
            del self._entries[key]
            self._index_discard(key)
        self.stats.invalidations += count
        if _san.ENABLED:
            self.check_index_coherence()
            if (service_id, connection_id) in self._by_conn:
                _san.fail(
                    "cache-coherence",
                    f"connection ({service_id}, {connection_id}) still indexed "
                    "after invalidate_connection",
                )
        return count

    def invalidate_by_target(self, peer: str) -> int:
        """Remove every entry whose decision forwards via ``peer``.

        The failover path: when a next-hop SN is declared dead, all
        fast-path state pointing at it must go so the next packet of each
        affected connection punts and re-resolves onto the repaired
        route. Full-table scan — failover is rare and correctness-first;
        the common-case operations stay O(1).
        """
        # A dead next hop must not be served from the shelf either.
        for key in [
            k
            for k, decision in self._stale.items()
            if decision.action is Action.FORWARD
            and any(target.peer == peer for target in decision.targets)
        ]:
            del self._stale[key]
        victims = [
            key
            for key, entry in self._entries.items()
            if entry.decision.action is Action.FORWARD
            and any(target.peer == peer for target in entry.decision.targets)
        ]
        for key in victims:
            del self._entries[key]
            self._index_discard(key)
        self.stats.invalidations += len(victims)
        if _san.ENABLED:
            self.check_index_coherence()
            survivors = self.count_targeting(peer)
            if survivors:
                _san.fail(
                    "cache-coherence",
                    f"{survivors} entr(y/ies) still forward via {peer!r} "
                    "after invalidate_by_target",
                )
        return len(victims)

    def evict_random_fraction(self, fraction: float) -> int:
        """Forcibly evict a fraction of entries.

        Used by the property tests and the A-CACHE ablation to prove that
        correctness never depends on residency (Appendix B requirement).
        """
        count = int(len(self._entries) * fraction)
        victims = self._rng.sample(self._key_list, k=count)
        for key in victims:
            del self._entries[key]
            self._index_discard(key)
        self.stats.evictions += count
        if _san.ENABLED:
            self.check_index_coherence()
        return count

    def hit_count(self, key: CacheKey) -> Optional[int]:
        """Per-entry hit counter (the ASIC-supported API of §B.2)."""
        entry = self._entries.get(key)
        return entry.hits if entry is not None else None

    def recently_used(self, key: CacheKey, now: float, window: float) -> bool:
        """Was this entry hit within ``window`` seconds before ``now``?

        Services use this to decide whether a connection is still active
        before expiring their internal state (§B.2).
        """
        entry = self._entries.get(key)
        if entry is None or entry.last_hit_at is None:
            return False
        return (now - entry.last_hit_at) <= window

    def _evict_one(self) -> None:
        if not self._entries:
            return
        if self.policy is EvictionPolicy.RANDOM:
            key = self._key_list[self._rng.randrange(len(self._key_list))]
            del self._entries[key]
        else:
            # LRU keeps recency order; FIFO keeps insertion order. Either
            # way the first item is the right victim.
            key, _ = self._entries.popitem(last=False)
        self._index_discard(key)
        self.stats.evictions += 1

    def keys(self) -> list[CacheKey]:
        return list(self._entries)

    # -- introspection / sanitizer API ---------------------------------
    def snapshot_entries(
        self,
    ) -> list[tuple[CacheKey, Decision, int, float, Optional[float]]]:
        """Point-in-time ``(key, decision, hits, installed_at, last_hit_at)``
        rows in table order (tests, debugging)."""
        return [
            (key, e.decision, e.hits, e.installed_at, e.last_hit_at)
            for key, e in self._entries.items()
        ]

    def count_targeting(self, peer: str) -> int:
        """How many resident FORWARD entries name ``peer`` as a target."""
        return sum(
            1
            for entry in self._entries.values()
            if entry.decision.action is Action.FORWARD
            and any(target.peer == peer for target in entry.decision.targets)
        )

    def check_index_coherence(self) -> None:
        """Verify the secondary indexes agree with the entry table.

        Raises :class:`~repro.sanitize.SanitizeError` on any violation.
        Above :data:`repro.sanitize.FULL_SCAN_LIMIT` entries only the O(1)
        cardinality invariants are checked, so the sanitizer can run after
        every mutation without turning the datapath quadratic.
        """
        n = len(self._entries)
        if len(self._key_list) != n or len(self._key_pos) != n:
            _san.fail(
                "cache-coherence",
                f"key index size mismatch: {n} entries, "
                f"{len(self._key_list)} in key list, "
                f"{len(self._key_pos)} in position map",
            )
        if n > _san.FULL_SCAN_LIMIT:
            return
        for pos, key in enumerate(self._key_list):
            if self._key_pos.get(key) != pos:
                _san.fail(
                    "cache-coherence",
                    f"key {key} at list position {pos} but position map "
                    f"says {self._key_pos.get(key)}",
                )
            if key not in self._entries:
                _san.fail(
                    "cache-coherence", f"indexed key {key} missing from table"
                )
        indexed = 0
        for conn, members in self._by_conn.items():
            if not members:
                _san.fail(
                    "cache-coherence", f"empty index bucket for connection {conn}"
                )
            indexed += len(members)
            for key in members:
                if (key.service_id, key.connection_id) != conn:
                    _san.fail(
                        "cache-coherence",
                        f"key {key} filed under wrong connection {conn}",
                    )
                if key not in self._entries:
                    _san.fail(
                        "cache-coherence",
                        f"connection-indexed key {key} missing from table",
                    )
        if indexed != n:
            _san.fail(
                "cache-coherence",
                f"connection index covers {indexed} keys, table has {n}",
            )
