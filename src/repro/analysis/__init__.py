"""Repo-specific static analysis: determinism & datapath invariants.

The InterEdge reproduction depends on invariants no generic linter checks:
bit-deterministic fault replay, byte-identical batch vs. per-packet
forwarding, and per-epoch nonce discipline in the PSP-style per-hop
crypto. This package turns those conventions into machine-checked rules,
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
``RES001``    Every watch registration (``watch`` / ``watch_prefix`` /
              ``watch_group``) in a class has a matching teardown call
              in the same class — watches must not leak.
``DET003``    *Whole-program.* Every ``random.Random(seed)`` /
              ``.reseed(x)`` argument must dataflow back to a
              constructor parameter, config field, or literal — never
              ``os.urandom``, ``id()``, ``hash()``, wall clocks, or
              set/dict iteration order.
``LEDGER001`` *Whole-program.* Every counter field on a ``*Stats``
              dataclass has at least one write site somewhere in the
              program, and every field named by a
              ``CONSERVATION_LEDGERS`` declaration exists on its class.
============  ==========================================================

The whole-program rules run on a project-wide symbol table
(:mod:`repro.analysis.symbols`): module-qualified names for functions,
methods and classes, import-resolved external calls, and conservative
receiver-type inference from annotations and dataclass fields for
attribute writes. There are no call edges. Resolution caveats are
documented in ``docs/API.md``.

A finding can be waived inline with ``# repro: allow(CODE) reason`` on
the offending line or the line above; waivers are deliberate, reviewed
exceptions (e.g. the entropy boundary in ``core/crypto.py``).

Two invariants that used to be syntactic rules are checked where they
can be checked exactly: wire-path classes declare ``__slots__`` and pair
``encode``/``decode`` (``tests/test_ilp_packet.py`` inspects the imported
classes), and every span is closed (``tests/test_obs_conformance.py``
checks real traces).

The static rules are paired with a *sanitizer mode*
(:mod:`repro.sanitize`): ``REPRO_SANITIZE=1`` arms debug-build runtime
checks of the same invariants at the terminus and resilience layers.
"""

from __future__ import annotations

from .engine import Finding, ModuleContext, analyze_file, analyze_paths
from .rules import ALL_RULES, RULE_DOCS
from .symbols import SymbolTable

__all__ = [
    "ALL_RULES",
    "RULE_DOCS",
    "Finding",
    "ModuleContext",
    "SymbolTable",
    "analyze_file",
    "analyze_paths",
]
