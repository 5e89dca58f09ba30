"""Interprocedural rules: DET003, LEDGER001.

These rules run over the whole-program symbol table built by
:mod:`repro.analysis.symbols` instead of one module at a time:

``DET003``
    Seed provenance: every ``random.Random(seed)`` / ``reseed(x)``
    argument must dataflow back to a function/constructor parameter, a
    config-object field, a module constant, or a literal. It must never
    derive from ``os.urandom``, ``id()``, ``hash()``, entropy modules,
    or iteration over a set/dict (unordered across processes).

``LEDGER001``
    Stats-ledger integrity: every ``int``/``float`` counter field on a
    ``*Stats`` dataclass must have at least one write site somewhere in
    the non-test program (dead counters report zero forever and rot
    dashboards), and every field named in a ``CONSERVATION_LEDGERS``
    declaration (see :mod:`repro.sanitize`) must exist on the class it
    names — a ledger typo otherwise silently weakens the runtime
    conservation check.

Findings are reported through the owning module's context, so
``# repro: allow(CODE)`` waivers work exactly like the per-module
rules.
"""

from __future__ import annotations

import ast
from typing import Optional

from .engine import Finding
from .symbols import FunctionInfo, SymbolTable

# --------------------------------------------------------------------------
# DET003 — seed provenance
# --------------------------------------------------------------------------

#: Dotted callees a seed expression must never derive from.
_BANNED_SEED_CALLS = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "os.getpid",
        "builtins.id",
        "builtins.hash",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

_BANNED_SEED_MODULES = frozenset({"secrets"})

#: ``time`` functions whose value depends on when the process runs.
_TIME_FUNCS = frozenset(
    {
        "sleep",
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "thread_time",
        "thread_time_ns",
        "localtime",
        "gmtime",
        "ctime",
        "asctime",
    }
)

_SETISH_BUILTINS = frozenset({"set", "frozenset", "dict"})

_SETISH_METHODS = frozenset({"keys", "values", "items"})


class _SeedEnv:
    """One function's dataflow facts for seed-provenance checks."""

    __slots__ = ("params", "assigns", "for_iters", "info")

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self.params: set[str] = set()
        self.assigns: dict[str, list[ast.expr]] = {}
        self.for_iters: dict[str, ast.expr] = {}
        node = info.node
        args = node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            self.params.add(arg.arg)
        if args.vararg is not None:
            self.params.add(args.vararg.arg)
        if args.kwarg is not None:
            self.params.add(args.kwarg.arg)
        if isinstance(node, ast.Lambda):
            return
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign):
                self._note_assign(stmt.targets, stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._note_assign([stmt.target], stmt.value)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._note_for_target(stmt.target, stmt.iter)
            elif isinstance(stmt, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in stmt.generators:
                    self._note_for_target(gen.target, gen.iter)

    def _note_assign(self, targets: list[ast.expr], value: ast.expr) -> None:
        for target in targets:
            if isinstance(target, ast.Name):
                self.assigns.setdefault(target.id, []).append(value)
            elif isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                for element, item in zip(target.elts, value.elts):
                    if isinstance(element, ast.Name):
                        self.assigns.setdefault(element.id, []).append(item)
            elif isinstance(target, ast.Tuple):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        self.assigns.setdefault(element.id, []).append(value)

    def _note_for_target(self, target: ast.expr, iterable: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.for_iters[target.id] = iterable
        elif isinstance(target, ast.Tuple):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self.for_iters[element.id] = iterable


def _is_setish(expr: ast.expr, env: _SeedEnv) -> bool:
    """Does the expression evaluate to a set/dict (unordered iteration)?"""
    if isinstance(expr, (ast.Set, ast.SetComp, ast.Dict, ast.DictComp)):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in _SETISH_BUILTINS:
            return func.id not in env.assigns and func.id not in env.params
        if isinstance(func, ast.Attribute) and func.attr in _SETISH_METHODS:
            return True
    return False


def _callee_dotted(call: ast.Call, env: _SeedEnv) -> Optional[str]:
    """Resolve a seed-expression callee to a dotted import name."""
    mod = env.info.module
    func = call.func
    if isinstance(func, ast.Name):
        if func.id in env.assigns or func.id in env.params:
            return None
        origin = mod.import_names.get(func.id)
        if origin is not None:
            return origin
        if func.id in ("id", "hash"):
            return f"builtins.{func.id}"
        return None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        target_mod = mod.import_modules.get(func.value.id)
        if target_mod is not None:
            return f"{target_mod}.{func.attr}"
    return None


def _seed_violation(
    expr: ast.expr,
    env: _SeedEnv,
    visiting: frozenset[str],
    allow_set_iter: bool = False,
) -> Optional[str]:
    """Reason the expression's provenance is banned, or None if clean."""
    if isinstance(expr, ast.Constant):
        return None
    if isinstance(expr, ast.Name):
        name = expr.id
        if name in visiting or name in env.params:
            return None
        if name in env.assigns:
            for value in env.assigns[name]:
                reason = _seed_violation(
                    value, env, visiting | {name}, allow_set_iter
                )
                if reason is not None:
                    return reason
            return None
        if name in env.for_iters:
            iterable = env.for_iters[name]
            if not allow_set_iter and _is_setish(iterable, env):
                return "iterates a set/dict (unordered across processes)"
            return _seed_violation(iterable, env, visiting | {name}, True)
        const = env.info.module.constants.get(name)
        if const is not None:
            return _seed_violation(const, env, visiting | {name}, allow_set_iter)
        return None
    if isinstance(expr, ast.Attribute):
        # Config-field reads are blessed; only a call buried in the chain
        # (``os.urandom(4).hex``) can poison it.
        return _seed_violation(expr.value, env, visiting, allow_set_iter)
    if isinstance(expr, ast.Call):
        dotted = _callee_dotted(expr, env)
        if dotted is not None:
            top, _, name = dotted.partition(".")
            if dotted in _BANNED_SEED_CALLS or top in _BANNED_SEED_MODULES:
                return f"derives from {dotted}()"
            if top == "time" and name in _TIME_FUNCS:
                return f"derives from wall clock {dotted}()"
        func = expr.func
        if isinstance(func, ast.Name) and func.id == "sorted":
            # sorted() imposes a total order, neutralizing set/dict
            # iteration order — but not entropy inside the arguments.
            return _seed_violation_children(expr, env, visiting, True)
        if isinstance(func, ast.Name) and func.id in ("iter", "next", "list",
                                                      "tuple", "min", "max"):
            for arg in expr.args:
                if not allow_set_iter and _is_setish(arg, env):
                    return "iterates a set/dict (unordered across processes)"
        return _seed_violation_children(expr, env, visiting, allow_set_iter)
    return _seed_violation_children(expr, env, visiting, allow_set_iter)


def _seed_violation_children(
    expr: ast.expr,
    env: _SeedEnv,
    visiting: frozenset[str],
    allow_set_iter: bool,
) -> Optional[str]:
    for child in ast.iter_child_nodes(expr):
        if isinstance(child, ast.expr):
            reason = _seed_violation(child, env, visiting, allow_set_iter)
            if reason is not None:
                return reason
    return None


def _walk_own_body(node: ast.AST) -> "list[ast.AST]":
    """Walk a function's own statements, not nested def/lambda bodies.

    Nested functions are their own table entries; their seed sites are
    checked when the loop reaches their :class:`FunctionInfo`.
    """
    out: list[ast.AST] = []
    stack: list[ast.AST] = (
        list(ast.iter_child_nodes(node))
        if not isinstance(node, ast.Lambda)
        else [node.body]
    )
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        out.append(current)
        stack.extend(ast.iter_child_nodes(current))
    return out


def rule_det003(program: SymbolTable) -> list[Finding]:
    """DET003: RNG seeds must trace to parameters, config, or literals."""
    findings: list[Finding] = []
    for info in program.functions.values():
        ctx = info.module.ctx
        if ctx.is_test:
            continue
        env: Optional[_SeedEnv] = None
        seed_sites: list[tuple[ast.Call, ast.expr, str]] = []
        for call in info.external_calls:
            if call.dotted == "random.Random" and call.node.args:
                seed_sites.append(
                    (call.node, call.node.args[0], "random.Random()")
                )
        for node in _walk_own_body(info.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "reseed"
                and len(node.args) == 1
            ):
                seed_sites.append((node, node.args[0], "reseed()"))
        for call_node, seed_expr, label in seed_sites:
            if env is None:
                env = _SeedEnv(info)
            reason = _seed_violation(seed_expr, env, frozenset())
            if reason is None:
                continue
            found = ctx.finding(
                call_node,
                "DET003",
                f"seed argument of {label} {reason}; seeds must dataflow "
                "from a constructor parameter, config field, or literal "
                "so replays are bit-identical",
            )
            if found is not None:
                findings.append(found)
    return findings


# --------------------------------------------------------------------------
# LEDGER001 — stats-counter liveness and ledger declarations
# --------------------------------------------------------------------------

_COUNTER_ANNOTATIONS = frozenset({"int", "float"})


def rule_ledger001(program: SymbolTable) -> list[Finding]:
    """LEDGER001: no dead ``*Stats`` counters, no ledger typos."""
    findings: list[Finding] = []
    stats_classes = {
        qual: cls
        for qual, cls in program.classes.items()
        if cls.name.endswith("Stats")
        and cls.fields
        and not cls.module.ctx.is_test
    }
    if not stats_classes and not program.ledger_decls:
        return findings
    by_name: dict[str, list[str]] = {}
    for qual, cls in stats_classes.items():
        by_name.setdefault(cls.name, []).append(qual)
    # Collect every write site in non-test code: direct attribute stores
    # with a typed receiver credit that class; untyped stores credit every
    # stats class carrying the field name (conservative: never report a
    # counter as dead when an untyped write might feed it).
    written: dict[str, set[str]] = {qual: set() for qual in stats_classes}
    for info in program.functions.values():
        if info.module.ctx.is_test:
            continue
        for write in info.attr_writes:
            if write.receiver_class is not None:
                if write.receiver_class in written:
                    written[write.receiver_class].add(write.attr)
                continue
            for qual, cls in stats_classes.items():
                if write.attr in cls.fields:
                    written[qual].add(write.attr)
    for qual, cls in sorted(stats_classes.items()):
        ctx = cls.module.ctx
        for field_name, (ann, node) in cls.fields.items():
            if ann not in _COUNTER_ANNOTATIONS:
                continue
            if field_name in written[qual]:
                continue
            found = ctx.finding(
                node,
                "LEDGER001",
                f"counter {cls.name}.{field_name} has no write site "
                "anywhere in the program; dead counters report zero "
                "forever — wire it up or delete it",
            )
            if found is not None:
                findings.append(found)
    # Ledger declarations: every named class and field must exist.
    for decl in program.ledger_decls:
        mod = program.modules.get(decl.module)
        if mod is None:
            continue
        ctx = mod.ctx
        quals = by_name.get(decl.class_name, [])
        if not quals:
            found = ctx.finding(
                decl.node,
                "LEDGER001",
                f"conservation ledger names unknown stats class "
                f"{decl.class_name!r}; the runtime check would KeyError "
                "or silently skip",
            )
            if found is not None:
                findings.append(found)
            continue
        cls = program.classes[quals[0]]
        for field_name in decl.fields:
            if field_name in cls.fields:
                continue
            found = ctx.finding(
                decl.node,
                "LEDGER001",
                f"conservation ledger for {decl.class_name} names field "
                f"{field_name!r} which does not exist on the class "
                "(ledger typo — the runtime balance check would break)",
            )
            if found is not None:
                findings.append(found)
    return findings


for _rule in (rule_det003, rule_ledger001):
    _rule.interprocedural = True  # type: ignore[attr-defined]
