"""The rule catalog: DET001 and DET002.

Each rule is a callable ``rule(ctx: ModuleContext) -> list[Finding]``.
Applicability by file kind is decided here (the determinism rule does not
run over test files; the reach-in rule does).
"""

from __future__ import annotations

import ast
from typing import Optional

from .engine import Finding, ModuleContext

# --------------------------------------------------------------------------
# DET001 — no unseeded nondeterminism
# --------------------------------------------------------------------------

#: ``random`` module-level functions that draw from the *global* RNG.
_GLOBAL_RNG_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "getrandbits",
        "seed",
    }
)

#: Wall-clock reads: real time must never leak into simulated time.
_WALL_CLOCK_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "localtime",
        "gmtime",
    }
)

#: Entropy sources allowed only behind an explicit waiver (the crypto
#: entropy boundary: key generation and connection-ID minting).
_ENTROPY_UUID_FUNCS = frozenset({"uuid1", "uuid4"})

_LEAVES_SIM = (
    "blocks or leaves the simulated substrate; the netsim event loop is "
    "the only scheduler and clock"
)

#: Modules whose *import* is a finding anywhere in non-test code — no
#: reachability argument, no receiver guessing: module -> why.
_BANNED_IMPORTS = {
    "socket": _LEAVES_SIM,
    "subprocess": _LEAVES_SIM,
    "threading": _LEAVES_SIM,
    "select": _LEAVES_SIM,
    "multiprocessing": _LEAVES_SIM,
    "asyncio": _LEAVES_SIM,
    "pickle": "unpickling runs arbitrary code; bytes that cross a "
    "boundary get a typed codec",
}

#: Blocking entry points of modules that are otherwise allowed.
_BLOCKING_CALLS = frozenset(
    {"time.sleep", "os.system", "os.popen", "os.fork", "os.wait", "os.waitpid"}
)


class _ImportTracker(ast.NodeVisitor):
    """Map local names to the modules/objects they were imported from."""

    def __init__(self) -> None:
        #: local alias -> top-level module name ("random", "numpy", ...)
        self.modules: dict[str, str] = {}
        #: local name -> "module.attr" for from-imports
        self.names: dict[str, str] = {}
        #: (statement, top-level module) per absolute import
        self.imported: list[tuple[ast.stmt, str]] = []

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            top = alias.name.split(".")[0]
            self.modules[alias.asname or top] = top
            self.imported.append((node, top))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports never alias stdlib entropy modules
        top = node.module.split(".")[0]
        self.imported.append((node, top))
        for alias in node.names:
            self.names[alias.asname or alias.name] = f"{top}.{alias.name}"


def _resolve_module(tracker: _ImportTracker, node: ast.expr) -> Optional[str]:
    """Top-level module a Name receiver refers to, if it is an import."""
    if isinstance(node, ast.Name):
        return tracker.modules.get(node.id)
    return None


def rule_det001(ctx: ModuleContext) -> list[Finding]:
    """DET001: no unseeded nondeterminism outside blessed wrappers."""
    if ctx.is_test:
        return []
    tracker = _ImportTracker()
    tracker.visit(ctx.tree)
    findings: list[Finding] = []

    def emit(node: ast.AST, message: str) -> None:
        found = ctx.finding(node, "DET001", message)
        if found is not None:
            findings.append(found)

    for statement, top in tracker.imported:
        if top in _BANNED_IMPORTS:
            emit(statement, f"import of {top}: {_BANNED_IMPORTS[top]}")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            origin = tracker.names.get(func.id)
            if func.id == "hash" and origin is None:
                emit(
                    node,
                    "builtin hash() is randomized per process "
                    "(PYTHONHASHSEED); use a stable digest "
                    "(e.g. hashlib/zlib.crc32) for anything that must "
                    "replay deterministically",
                )
            elif origin is not None:
                top, _, name = origin.partition(".")
                if top == "random" and name in _GLOBAL_RNG_FUNCS:
                    emit(
                        node,
                        f"random.{name}() draws from the unseeded global "
                        "RNG; use a seeded random.Random instance",
                    )
                elif top == "random" and name == "Random" and not node.args:
                    emit(node, "random.Random() without a seed is nondeterministic")
                elif top == "random" and name == "SystemRandom":
                    emit(node, "SystemRandom is OS entropy; never replayable")
                elif top == "time" and name in _WALL_CLOCK_FUNCS:
                    emit(
                        node,
                        f"wall-clock time.{name}() must not leak into "
                        "simulation logic; use the Simulator clock",
                    )
                elif top == "os" and name == "urandom":
                    emit(
                        node,
                        "os.urandom() outside the crypto entropy boundary; "
                        "waive explicitly if this is key material",
                    )
                elif top == "secrets":
                    emit(node, f"secrets.{name} is OS entropy; never replayable")
                elif top == "uuid" and name in _ENTROPY_UUID_FUNCS:
                    emit(node, f"uuid.{name}() is nondeterministic")
                elif origin in _BLOCKING_CALLS:
                    emit(node, f"{origin}() {_LEAVES_SIM}")
            continue
        if not isinstance(func, ast.Attribute):
            continue
        receiver = _resolve_module(tracker, func.value)
        attr = func.attr
        if receiver == "random":
            if attr in _GLOBAL_RNG_FUNCS:
                emit(
                    node,
                    f"random.{attr}() draws from the unseeded global RNG; "
                    "use a seeded random.Random instance",
                )
            elif attr == "Random" and not node.args:
                emit(node, "random.Random() without a seed is nondeterministic")
            elif attr == "SystemRandom":
                emit(node, "SystemRandom is OS entropy; never replayable")
        elif receiver == "time" and attr in _WALL_CLOCK_FUNCS:
            emit(
                node,
                f"wall-clock time.{attr}() must not leak into simulation "
                "logic; use the Simulator clock",
            )
        elif receiver == "os" and attr == "urandom":
            emit(
                node,
                "os.urandom() outside the crypto entropy boundary; waive "
                "explicitly if this is key material",
            )
        elif receiver == "secrets":
            emit(node, f"secrets.{attr} is OS entropy; never replayable")
        elif receiver == "uuid" and attr in _ENTROPY_UUID_FUNCS:
            emit(node, f"uuid.{attr}() is nondeterministic")
        elif receiver == "datetime" and attr in ("now", "utcnow", "today"):
            emit(node, f"datetime.{attr}() reads the wall clock")
        elif f"{receiver}.{attr}" in _BLOCKING_CALLS:
            emit(node, f"{receiver}.{attr}() {_LEAVES_SIM}")
        elif (
            isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and _resolve_module(tracker, func.value.value) == "numpy"
        ):
            if attr == "default_rng":
                if not node.args:
                    emit(node, "numpy default_rng() without a seed")
            else:
                emit(
                    node,
                    f"numpy.random.{attr}() uses numpy's global RNG; "
                    "use a seeded Generator",
                )
        elif (
            isinstance(func.value, ast.Attribute)
            and func.value.attr == "datetime"
            and _resolve_module(tracker, func.value.value) == "datetime"
            and attr in ("now", "utcnow", "today")
        ):
            emit(node, f"datetime.datetime.{attr}() reads the wall clock")
    return findings


# --------------------------------------------------------------------------
# DET002 — no cross-module private-attribute reach-ins
# --------------------------------------------------------------------------


def rule_det002(ctx: ModuleContext) -> list[Finding]:
    """DET002: ``x._private`` is only legal where the module owns it."""
    findings: list[Finding] = []
    owned = ctx.owned_privates
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Attribute):
            continue
        attr = node.attr
        if not attr.startswith("_") or attr.startswith("__"):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in ("self", "cls"):
            continue
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "super"
        ):
            continue
        if attr in owned:
            continue
        found = ctx.finding(
            node,
            "DET002",
            f"reach-in to private attribute {attr!r} of a foreign object; "
            "use (or add) a public accessor on the owning class",
        )
        if found is not None:
            findings.append(found)
    return findings


#: The catalog, in report order.
ALL_RULES = (rule_det001, rule_det002)

RULE_DOCS = {
    "DET001": "no unseeded nondeterminism (global RNG, wall clock, "
    "entropy, builtin hash) outside blessed seeded wrappers, and no "
    "blocking/out-of-simulation primitive (sockets, subprocess, threads, "
    "asyncio, time.sleep) or pickle anywhere in non-test code",
    "DET002": "no cross-module reach-ins to private attributes",
}
