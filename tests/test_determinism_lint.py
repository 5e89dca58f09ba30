"""Determinism lint: two per-module AST rules over every ``.py`` in ``src/`` and ``tests/``.

* ``DET001`` (non-test files): no unseeded nondeterminism (the global
  ``random`` or numpy RNG, unseeded ``random.Random()``, wall-clock reads,
  OS entropy such as ``os.urandom``/``secrets``/``uuid4``, builtin
  ``hash()``), no import of ``socket``, ``subprocess``, ``threading``,
  ``select``, ``multiprocessing``, ``asyncio`` or ``pickle``, and no
  ``time.sleep`` / ``os.system`` and friends. Simulations replay from seeds.
* ``DET002`` (all files): ``obj._private`` through a receiver other than
  ``self``/``cls``/``super()`` only where the module owns the name (assigns
  it on ``self``/``cls``, lists it in ``__slots__``, or binds it in a class
  body or at module level). Dunders are exempt.

``# repro: allow(CODE) reason`` on the offending line or the line above
waives a finding; each other finding is one ``path:line CODE message`` line.

Properties of runs are checked on runs, in tier-1: seeding is identical under
``PYTHONHASHSEED`` 0, 1 and 7 (``test_hash_seed.py``); every ``*Stats``
counter moves in some test (``conftest.py``) and every ``CONSERVATION_LEDGERS``
field exists (``test_sanitize.py``); watches end where they started
(``test_watch_teardown.py``); wire-path classes have ``__slots__`` and paired
``encode``/``decode`` (``test_ilp_packet.py``); spans close (``test_obs_conformance.py``).
"""

from __future__ import annotations

import ast
import re
from itertools import chain
from pathlib import Path
from typing import Optional

import pytest

ROOT = Path(__file__).resolve().parent.parent

_ALLOW = re.compile(r"#\s*repro:\s*allow\(\s*([A-Z0-9_,\s]+?)\s*\)")
_GLOBAL_RNG = frozenset(
    "random randint randrange randbytes choice choices shuffle sample uniform triangular"
    " betavariate expovariate gammavariate gauss lognormvariate normalvariate"
    " vonmisesvariate paretovariate weibullvariate getrandbits seed".split()
)
_WALL_CLOCK = frozenset(
    "time time_ns monotonic monotonic_ns perf_counter perf_counter_ns localtime gmtime".split()
)
_LEAVES_SIM = "blocks or leaves the simulated substrate; the netsim event loop is the only clock"
_BANNED_IMPORTS = dict.fromkeys(
    ("socket", "subprocess", "threading", "select", "multiprocessing", "asyncio"), _LEAVES_SIM
)
_BANNED_IMPORTS["pickle"] = "unpickling runs arbitrary code; give crossing bytes a typed codec"
_BLOCKING = frozenset("time.sleep os.system os.popen os.fork os.wait os.waitpid".split())


def _det001_call(name: str, call: ast.Call) -> Optional[str]:
    """Why calling the imported ``name`` (``module.attr``) breaks replay, if it does."""
    module, _, attr = name.rpartition(".")
    if module in ("random", "numpy.random") and attr in _GLOBAL_RNG:
        return f"{name}() draws from the unseeded global RNG; use a seeded random.Random"
    if attr in ("Random", "default_rng") and module in ("random", "numpy.random"):
        return None if call.args else f"{name}() without a seed"
    if name == "random.SystemRandom" or module == "secrets" or name == "os.urandom":
        return f"{name}() is OS entropy; never replayable (waive it only for key material)"
    if module == "uuid" and attr in ("uuid1", "uuid4"):
        return f"{name}() is nondeterministic"
    if (module == "time" and attr in _WALL_CLOCK) or (
        module in ("datetime", "datetime.datetime") and attr in ("now", "utcnow", "today")
    ):
        return f"wall-clock {name}() must not leak into simulation; use the Simulator clock"
    if name in _BLOCKING:
        return f"{name}() {_LEAVES_SIM}"
    if module == "numpy.random":
        return f"{name}() uses numpy's global RNG; use a seeded Generator"
    return None


def _assigned(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return node.targets
    return [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []


def _owned_privates(tree: ast.Module) -> set[str]:
    """Names this module may touch through any receiver (see DET002)."""
    owned: set[str] = set()
    for node in ast.walk(tree):
        for target in _assigned(node):
            for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                if isinstance(t, ast.Attribute) and getattr(t.value, "id", 0) in ("self", "cls"):
                    owned.add(t.attr)
            if isinstance(node, ast.Assign) and getattr(target, "id", None) == "__slots__":
                slots = node.value
                elts = slots.elts if isinstance(slots, (ast.Tuple, ast.List, ast.Set)) else [slots]
                owned.update(e.value for e in elts if isinstance(getattr(e, "value", 0), str))
    bodies = [tree.body, *(n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]
    for stmt in chain.from_iterable(bodies):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owned.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            owned.update(t.id for t in _assigned(stmt) if isinstance(t, ast.Name))
    return owned


def lint(rel: str, source: str, is_test: bool) -> list[str]:
    """Every unwaived DET001/DET002 finding in one module, as ``path:line CODE message``."""
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        return [f"{rel}:{exc.lineno or 1} PARSE syntax error: {exc.msg}"]
    waived: dict[int, set[str]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        if match := _ALLOW.search(text):
            waived[number] = {code.strip() for code in match.group(1).split(",")}
    findings: list[tuple[int, str, str]] = []

    def emit(node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if code not in waived.get(line, ()) and code not in waived.get(line - 1, ()):
            findings.append((line, code, message))

    nodes = list(ast.walk(tree))
    imported: dict[str, str] = {}  # local name -> qualified module or module.attr
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                imported[alias.asname or top] = alias.name if alias.asname else top
                if not is_test and top in _BANNED_IMPORTS:
                    emit(node, "DET001", f"import of {top}: {_BANNED_IMPORTS[top]}")
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            top = node.module.split(".")[0]
            if not is_test and top in _BANNED_IMPORTS:
                emit(node, "DET001", f"import of {top}: {_BANNED_IMPORTS[top]}")

    def qualified(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return imported.get(expr.id)
        if isinstance(expr, ast.Attribute) and (base := qualified(expr.value)):
            return f"{base}.{expr.attr}"
        return None

    owned = _owned_privates(tree)
    for node in nodes:
        if isinstance(node, ast.Call) and not is_test:
            name = qualified(node.func)
            if name is None and getattr(node.func, "id", None) == "hash":
                emit(node, "DET001", "builtin hash() is randomised per process "
                     "(PYTHONHASHSEED); use a stable digest such as zlib.crc32")
            elif name is not None and (why := _det001_call(name, node)):
                emit(node, "DET001", why)
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            receiver = node.value
            if (
                node.attr.startswith("__")
                or node.attr in owned
                or getattr(receiver, "id", None) in ("self", "cls")
                or (isinstance(receiver, ast.Call) and getattr(receiver.func, "id", 0) == "super")
            ):
                continue
            emit(node, "DET002", f"reach-in to private attribute {node.attr!r} of a foreign "
                 "object; use (or add) a public accessor on the owning class")
    return [f"{rel}:{line} {code} {message}" for line, code, message in sorted(findings)]


def test_live_tree_is_clean():
    findings = []
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            findings += lint(rel, path.read_text(encoding="utf-8"), is_test=top == "tests")
    assert not findings, "\n" + "\n".join(findings)


def test_finding_names_file_line_and_rule():
    [finding] = lint("src/repro/core/m.py", "import random\n\nX = random.random()\n", False)
    assert finding.startswith("src/repro/core/m.py:3 DET001 random.random() draws from the")


def _row(case_id: str, codes: list[str], *lines: str, is_test: bool = False):
    return pytest.param("\n".join(lines) + "\n", is_test, codes, id=case_id)


_D1, _D2 = ["DET001"], ["DET002"]

CASES = [
    # DET001: one row per planted fault or clean fixture.
    _row("global-rng", _D1, "import random", "def jitter():", "    return random.random()"),
    _row("from-import-alias", _D1, "from random import shuffle as mix", "mix([])"),
    _row("wall-clock", _D1, "import time", "def now():", "    return time.time()"),
    _row("builtin-hash", _D1, "def seed_for(address):", "    return hash(address) & 0xFFFF"),
    _row("unseeded-random-instance", _D1, "import random", "RNG = random.Random()"),
    _row("seeded-rng-clean", [], "import random, zlib", "RNG = random.Random(0xA11CE)",
         "zlib.crc32(b'a'), RNG.random()"),
    _row("os-urandom", _D1, "import os", "os.urandom(8)"),
    _row("os-urandom-waived", [], "import os", "# repro: allow(DET001) key", "os.urandom(16)"),
    _row("from-import-entropy", _D1 * 6, "from os import urandom",
         "from random import Random, SystemRandom", "from secrets import token_bytes",
         "from time import monotonic", "from uuid import uuid4",
         "Random(), SystemRandom(), monotonic(), urandom(8), token_bytes(4), uuid4()"),
    _row("attribute-entropy", _D1 * 7, "import datetime, numpy, random, secrets, uuid",
         "rng = numpy.random.default_rng(7)  # seeded: fine",
         "random.SystemRandom(), secrets.token_hex(), uuid.uuid1(), datetime.now()",
         "datetime.datetime.now(), numpy.random.default_rng(), numpy.random.shuffle([])"),
    *(
        _row(f"banned-import-{m}", _D1 * 4, f"import {m}", f"import {m}.sub as alias",
             f"from {m} import thing", "def helper():", f"    import {m}")
        for m in _BANNED_IMPORTS
    ),
    _row("blocking-calls", _D1 * 8, "import os, time", "import time as clock",
         "from os import waitpid", "from time import sleep as nap",
         "time.sleep(0); clock.sleep(1); nap(2); os.system('true'); os.popen('true')",
         "os.fork(); os.wait(); waitpid(1, 0)"),
    _row("unreachable-from-any-callback", _D1, "import time", "class Worker:",
         "    def start(self, engine):", "        engine.schedule(1.0, self.tick)",
         "    def offline_tool(self):", "        time.sleep(1.0)"),
    _row("untyped-receiver", _D1, "import subprocess", "class Agent:",
         "    def attach(self, store):", "        store.watch_prefix('r/', self.on_update)",
         "    def on_update(self, key, op, value):", "        subprocess.run(['true'])"),
    _row("look-alike-names-clean", [], "import os.path, socketserver, time",
         "from . import threading", "from .select import pick", "from .pickle import dumps",
         "def sleep(seconds):", "    return seconds", "class Pipe:", "    def run(self, subprocess):",
         "        self.socket.send(b'x'), self.clock.sleep(1), subprocess.run(), sleep(2)",
         "        return os.path.join('a', 'b'), time.strftime('%Y'), pick(dumps, threading)"),
    _row("banned-import", _D1, "import pickle"),
    _row("banned-import-waived", [], "# repro: allow(DET001) page copy", "import pickle"),
    _row("test-files-exempt", [], "import random, socket", "random.random()", is_test=True),
    # DET002
    _row("foreign-reach-in", _D2, "def poke(cache):", "    return cache._entries"),
    _row("foreign-reach-in-test-file", _D2, "def test_poke(c):", "    c._entries", is_test=True),
    _row("own-private-clean", [], "class Table:", "    def __init__(self):",
         "        self._entries = {}", "def merge(a, b):", "    a._entries.update(b._entries)"),
    _row("slots-ownership", [], "class Packed:", "    __slots__ = ('_v',)", "def bump(p):",
         "    p._v += 1"),
    _row("dunder-exempt", [], "def state(obj):", "    return obj.__dict__"),
    _row("super-exempt", [], "class Child(Base):", "    def peek(self):",
         "        return super()._cache"),
    _row("string-slots-ownership", [], "class P:", "    __slots__ = '_lone'", "def f(p):",
         "    p._lone"),
    _row("module-private-annassign", [], "_quota: int = 8", "def probe(o):", "    o._quota"),
    _row("det002-waived", [], "def poke(c):", "    # repro: allow(DET002) white-box",
         "    c._entries"),
    _row("syntax-error", ["PARSE"], "def oops(:"),
]


@pytest.mark.parametrize("snippet,is_test,codes", CASES)
def test_planted_faults(snippet, is_test, codes):
    assert [finding.split()[1] for finding in lint("mod.py", snippet, is_test)] == codes
