"""The edomain *core*: an SDN-style persistent, watchable store (§6.2).

Each edomain runs network-management tooling with a persistent and scalable
store the paper calls the core. SNs write membership facts into it and put
watches on the lists they need; the core pushes updates to watchers.

The store is a hierarchical key space (``"groups/<g>/members"``-style keys)
holding sets, with per-key watch callbacks. A tiny write-ahead log supports
the durability story (state survives an SN restart) and lets tests verify
recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

#: Watch callback: (key, op, value) where op is "add" | "remove" | "set"
WatchCallback = Callable[[str, str, Any], None]


@dataclass
class _WatchEntry:
    callback: WatchCallback
    token: int


class CoreStore:
    """Persistent watchable store for one edomain."""

    def __init__(self, edomain_name: str = "default") -> None:
        self.edomain_name = edomain_name
        self._sets: dict[str, set[Any]] = {}
        self._values: dict[str, Any] = {}
        self._watches: dict[str, list[_WatchEntry]] = {}
        self._prefix_watches: list[tuple[str, _WatchEntry]] = []
        self._next_token = 1
        self.wal: list[tuple[str, str, Any]] = []  # (key, op, value)

    # -- set-valued keys -----------------------------------------------------
    def add(self, key: str, member: Any) -> bool:
        """Add to a set key; returns True if it was newly added."""
        members = self._sets.setdefault(key, set())
        if member in members:
            return False
        members.add(member)
        self.wal.append((key, "add", member))
        self._notify(key, "add", member)
        return True

    def remove(self, key: str, member: Any) -> bool:
        members = self._sets.get(key)
        if members is None or member not in members:
            return False
        members.remove(member)
        self.wal.append((key, "remove", member))
        self._notify(key, "remove", member)
        return True

    def members(self, key: str) -> set[Any]:
        return set(self._sets.get(key, set()))

    def set_size(self, key: str) -> int:
        return len(self._sets.get(key, ()))

    # -- scalar keys ----------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        self._values[key] = value
        self.wal.append((key, "set", value))
        self._notify(key, "set", value)

    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    def keys(self, prefix: str = "") -> list[str]:
        all_keys = set(self._sets) | set(self._values)
        return sorted(k for k in all_keys if k.startswith(prefix))

    # -- watches --------------------------------------------------------------
    def watch(self, key: str, callback: WatchCallback) -> int:
        """Watch a key; returns a token for :meth:`unwatch`."""
        token = self._next_token
        self._next_token += 1
        self._watches.setdefault(key, []).append(_WatchEntry(callback, token))
        return token

    def unwatch(self, key: str, token: int) -> bool:
        entries = self._watches.get(key, [])
        for i, entry in enumerate(entries):
            if entry.token == token:
                del entries[i]
                return True
        return False

    def watch_prefix(self, prefix: str, callback: WatchCallback) -> int:
        """Watch every key under a hierarchical prefix (e.g. ``"resilience/"``).

        One subscription covers a whole subtree — the shape SN agents
        need for control-plane push (border mappings, future config keys)
        without a watch per key. Returns a token for
        :meth:`unwatch_prefix`.
        """
        token = self._next_token
        self._next_token += 1
        self._prefix_watches.append((prefix, _WatchEntry(callback, token)))
        return token

    def unwatch_prefix(self, token: int) -> bool:
        for i, (_, entry) in enumerate(self._prefix_watches):
            if entry.token == token:
                del self._prefix_watches[i]
                return True
        return False

    def watcher_count(self, key: str) -> int:
        exact = len(self._watches.get(key, ()))
        by_prefix = sum(
            1 for prefix, _ in self._prefix_watches if key.startswith(prefix)
        )
        return exact + by_prefix

    def _notify(self, key: str, op: str, value: Any) -> None:
        for entry in list(self._watches.get(key, ())):
            entry.callback(key, op, value)
        for prefix, entry in list(self._prefix_watches):
            if key.startswith(prefix):
                entry.callback(key, op, value)

    # -- recovery ---------------------------------------------------------
    def rebuild_from_wal(self) -> "CoreStore":
        """Replay the WAL into a fresh store (crash-recovery model)."""
        fresh = CoreStore(self.edomain_name)
        for key, op, value in self.wal:
            if op == "add":
                fresh._sets.setdefault(key, set()).add(value)
            elif op == "remove":
                fresh._sets.get(key, set()).discard(value)
            elif op == "set":
                fresh._values[key] = value
        fresh.wal = list(self.wal)
        return fresh
