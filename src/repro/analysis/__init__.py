"""Repo-specific static analysis: determinism & datapath invariants.

The InterEdge reproduction depends on invariants no generic linter checks:
bit-deterministic fault replay, byte-identical batch vs. per-packet
forwarding, and per-epoch nonce discipline in the PSP-style per-hop
crypto. This package turns the syntactic ones into machine-checked rules,
runnable as ``python -m repro.analysis``:

============  ==========================================================
Rule          What it enforces
============  ==========================================================
``DET001``    No unseeded nondeterminism: module-level ``random.*``
              (global RNG), unseeded ``random.Random()`` /
              ``SystemRandom``, wall-clock reads (``time.time`` and
              friends), entropy sources (``os.urandom``, ``secrets``,
              ``uuid4``) outside the blessed entropy boundary, builtin
              ``hash()`` (randomized per process via PYTHONHASHSEED —
              the root of dict-order nondeterminism), and unseeded
              ``numpy`` RNGs. Simulations must replay bit-identically
              from their seeds. Also banned anywhere in non-test code,
              reachable from a callback or not: importing ``socket``,
              ``subprocess``, ``threading``, ``select``,
              ``multiprocessing``, ``asyncio`` or ``pickle``, and calling
              ``time.sleep`` / ``os.system`` and friends.
``DET002``    No cross-module reach-ins to private (``_``-prefixed)
              attributes. An attribute may be touched through a receiver
              other than ``self``/``cls`` only in the module that owns
              it (assigns it on ``self``, declares it in ``__slots__``
              or a class body).
============  ==========================================================

Each rule is one AST pass over one module; there is no whole-program
pass.

A finding can be waived inline with ``# repro: allow(CODE) reason`` on
the offending line or the line above; waivers are deliberate, reviewed
exceptions (e.g. the entropy boundary in ``core/crypto.py``).

Invariants that are properties of runs are checked on runs, in tier-1:

* seeds never come from set order or ``id()`` — every seeding in
  ``src/repro`` is logged under ``PYTHONHASHSEED`` 0, 1 and 7 and the
  logs must match (``tests/test_hash_seed.py``);
* every ``*Stats`` counter moves in some test (a session check in
  ``tests/conftest.py``), and every ``CONSERVATION_LEDGERS`` field exists
  (``tests/test_sanitize.py``);
* control-plane watches end where they started
  (``tests/test_watch_teardown.py``);
* wire-path classes declare ``__slots__`` and pair ``encode``/``decode``
  (``tests/test_ilp_packet.py``), and every span is closed
  (``tests/test_obs_conformance.py``).

The static rules are paired with a *sanitizer mode*
(:mod:`repro.sanitize`): ``REPRO_SANITIZE=1`` arms debug-build runtime
checks of the same invariants at the terminus and resilience layers.
"""

from __future__ import annotations

from .engine import Finding, ModuleContext, analyze_file, analyze_paths
from .rules import ALL_RULES, RULE_DOCS

__all__ = [
    "ALL_RULES",
    "RULE_DOCS",
    "Finding",
    "ModuleContext",
    "analyze_file",
    "analyze_paths",
]
