"""Sanitizer-mode runtime invariant checks.

Setting ``REPRO_SANITIZE=1`` in the environment arms cheap runtime
assertions at the datapath and resilience layers, analogous to compiling
with ``-fsanitize``:

* **nonce monotonicity** — within one :class:`~repro.core.psp.SealingKey`
  epoch a PSP context must never seal two packets with the same or a
  decreasing nonce counter (reuse would void confidentiality);
* **cache/index coherence** — after every
  :class:`~repro.core.decision_cache.DecisionCache` mutation the secondary
  connection index, the random-access key list, and the entry table must
  describe the same key set, and after ``invalidate_by_target(peer)`` no
  surviving entry may still forward via ``peer``;
* **header re-encode idempotence** — the bytes the terminus forwards must
  equal ``header.encode()`` recomputed from the decoded object (the memo
  cache must never alias a stale wire form);
* **failover postconditions** — after a border-SN failover no repaired
  route may still point at the dead SN.

The checks are deliberately O(1)-ish (full-table scans only below a size
cutoff) so the tier-1 suite can run once under ``REPRO_SANITIZE=1`` in CI
without a separate slow lane. Violations raise :class:`SanitizeError`,
which subclasses ``AssertionError``: a sanitizer failure is a bug in the
repo, never an input error.

Call sites read ``ENABLED`` through the module (``_san.ENABLED``) so the
test suite can flip it at runtime via :func:`set_enabled`.
"""

from __future__ import annotations

import os

__all__ = [
    "CONSERVATION_LEDGERS",
    "ENABLED",
    "SanitizeError",
    "check_ledger",
    "fail",
    "set_enabled",
    "enabled_from_env",
]


class SanitizeError(AssertionError):
    """An armed runtime invariant was violated (always a repo bug)."""


def enabled_from_env() -> bool:
    """True when ``REPRO_SANITIZE`` is set to a truthy value."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in {
        "1",
        "true",
        "yes",
        "on",
    }


#: Armed at import time from the environment; tests flip it with
#: :func:`set_enabled`. Read via attribute lookup (``_san.ENABLED``), never
#: ``from ... import ENABLED``, so runtime toggles are seen everywhere.
ENABLED: bool = enabled_from_env()

#: Full-structure coherence scans only run below this size; above it the
#: sanitizer falls back to O(1) cardinality checks so an armed tier-1 run
#: stays fast even with large caches.
FULL_SCAN_LIMIT = 512


def set_enabled(value: bool) -> bool:
    """Toggle sanitizer checks at runtime; returns the previous state."""
    global ENABLED
    previous = ENABLED
    ENABLED = bool(value)
    return previous


def fail(check: str, detail: str) -> None:
    """Raise a :class:`SanitizeError` for a named check."""
    raise SanitizeError(f"sanitize[{check}]: {detail}")


#: Declarative conservation ledgers: stats-class name -> (total field,
#: exit fields). The invariant is ``total == sum(exits) + live`` where
#: ``live`` is passed by the call site (units the class itself does not
#: book to an exit: packets still parked, or exits that live on another
#: ledger). ``tests/test_sanitize.py`` checks every field named here
#: against the class definition, so a renamed counter breaks the build
#: instead of silently voiding the runtime check.
CONSERVATION_LEDGERS = {
    "MissQueueStats": (
        "offered",
        ("drained_fast", "replayed", "spilled", "shed", "dropped"),
    ),
    # The packet-fate law: every arrival's *first* disposition, exactly
    # once. ``live`` carries ``OverloadStats.short_circuits`` — a punt an
    # open breaker resolved without crossing is booked on the guard.
    "TerminusStats": (
        "packets_in",
        (
            "drops_no_peer",
            "drops_auth",
            "drops_malformed",
            "fast_path",
            "offload_path",
            "drops_by_offload",
            "drops_shed",
            "punts",
        ),
    ),
}


def check_ledger(stats: object, check: str, *, live: int = 0) -> None:
    """Assert the declared conservation ledger for *stats* balances.

    Looks up ``type(stats).__name__`` in :data:`CONSERVATION_LEDGERS` and
    verifies ``total == sum(exits) + live``. Raises :class:`SanitizeError`
    (via :func:`fail`) when the ledger is missing or out of balance —
    both are repo bugs, never input errors.
    """
    decl = CONSERVATION_LEDGERS.get(type(stats).__name__)
    if decl is None:
        fail(check, f"no conservation ledger declared for {type(stats).__name__}")
        return
    total_field, exit_fields = decl
    total = getattr(stats, total_field)
    if total != sum(getattr(stats, field) for field in exit_fields) + live:
        parts = " + ".join(
            f"{field}={getattr(stats, field)}" for field in exit_fields
        )
        fail(check, f"{total_field}={total} != {parts} + live={live}")
