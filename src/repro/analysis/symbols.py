"""Whole-program symbol table over the analyzed tree.

The per-module rules (DET001, DET002, RES001) see one file at a time; the
interprocedural rules (:mod:`repro.analysis.iprules`) need facts that
span files — which class a counter write lands on, what an imported name
really is. This module builds that view:

* a **symbol table**: every module, class, function, and method under
  the analyzed roots, keyed by dotted qualname
  (``repro.netsim.engine.Simulator.run``, nested defs as
  ``pkg.mod.outer.<locals>.tick``);
* **conservative receiver-type inference**: parameter/attribute
  annotations, dataclass fields, ``self.x = <annotated param>`` /
  ``self.x = ClassName(...)`` assignments, and attribute chains rooted
  at ``self`` or a typed local (``self.net.sim`` resolves through
  ``Network.sim: Simulator``);
* **attribute writes**: every ``recv.attr = / += …`` store with the
  receiver's inferred class (``None`` when it cannot be inferred), plus
  the keyword arguments of project-class constructor calls;
* **external calls**: calls that resolve through the imports to a module
  outside the project are recorded with their dotted name
  (``random.Random``, ``zlib.crc32``).

There are no call edges: nothing here knows who calls whom, so no rule
can reason about reachability. Resolution is *conservative* — a receiver
whose type cannot be inferred is reported as unknown (never guessed),
dynamic dispatch through ``getattr`` is invisible, and module-level
statements are not walked. Class names are resolved through imports
first, then by program-wide unique bare name.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional, Union

from .engine import ModuleContext

FunctionDefLike = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a path relative to the analysis root.

    ``src/repro/core/ilp.py`` -> ``repro.core.ilp``; a package
    ``__init__.py`` names the package itself; an absolute/underived path
    falls back to its stem.
    """
    parts = rel_path.replace("\\", "/").split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return rel_path
    last = parts[-1]
    if last.endswith(".py"):
        parts[-1] = last[:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    parts = [p for p in parts if p and not p.startswith("/")]
    if not parts:  # a bare __init__.py at the root
        return "__init__"
    # Absolute paths (no root given) keep only the stem.
    if rel_path.startswith("/"):
        return parts[-1]
    return ".".join(parts)


@dataclass(slots=True)
class ExternalCall:
    """A call that resolved to an imported module, e.g. ``random.Random``."""

    dotted: str
    node: ast.Call


@dataclass(slots=True)
class AttrWrite:
    """An attribute store ``recv.attr = / += …`` (or a constructor kwarg)."""

    attr: str
    receiver_class: Optional[str]  # class qualname when inferred, else None
    node: ast.AST


@dataclass(slots=True)
class LedgerDecl:
    """A module-level ``CONSERVATION_LEDGERS`` entry: class -> fields."""

    class_name: str
    fields: tuple[str, ...]
    module: str
    node: ast.AST


@dataclass(slots=True)
class FunctionInfo:
    """One function/method/lambda in the symbol table."""

    qualname: str
    module: "ModuleInfo"
    node: FunctionDefLike
    class_qual: Optional[str] = None
    external_calls: list[ExternalCall] = field(default_factory=list)
    attr_writes: list[AttrWrite] = field(default_factory=list)


@dataclass(slots=True)
class ClassInfo:
    """One class: annotated attributes and bases."""

    qualname: str
    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)  # resolved qualnames
    base_exprs: list[ast.expr] = field(default_factory=list)
    #: attribute -> annotation expression (resolved lazily to a class)
    attr_annotations: dict[str, ast.expr] = field(default_factory=dict)
    #: attribute -> resolved class qualname (filled in the resolve pass)
    attr_types: dict[str, str] = field(default_factory=dict)
    #: annotated field -> (annotation source text, AnnAssign node) —
    #: dataclass fields and class-body AnnAssigns, for the ledger rule.
    fields: dict[str, tuple[str, ast.AnnAssign]] = field(default_factory=dict)


class ModuleInfo:
    """Per-module symbol and import facts feeding the symbol table."""

    __slots__ = (
        "name",
        "ctx",
        "import_modules",
        "import_names",
        "top_defs",
        "constants",
    )

    def __init__(self, name: str, ctx: ModuleContext) -> None:
        self.name = name
        self.ctx = ctx
        #: local alias -> dotted module it names (``import a.b as c``)
        self.import_modules: dict[str, str] = {}
        #: local alias -> fully dotted origin (``from a.b import C``)
        self.import_names: dict[str, str] = {}
        #: top-level def/class name -> qualname
        self.top_defs: dict[str, str] = {}
        #: module-level constant assignments (seed-provenance lookups)
        self.constants: dict[str, ast.expr] = {}


class SymbolTable:
    """The whole-program symbol table plus per-function resolved facts."""

    def __init__(self, contexts: list[ModuleContext]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._class_by_name: dict[str, list[str]] = {}
        self.ledger_decls: list[LedgerDecl] = []
        for ctx in contexts:
            self._index_module(ctx)
        self._resolve_types()
        for info in list(self.functions.values()):
            # Nested defs are walked by their enclosing function's visitor
            # (which carries closure-local types and the enclosing class),
            # never independently — walking both would duplicate facts.
            if ".<locals>." in info.qualname:
                continue
            _BodyVisitor(self, info).run()

    # -- indexing ----------------------------------------------------------
    def _index_module(self, ctx: ModuleContext) -> None:
        name = module_name_for(ctx.rel_path)
        mod = ModuleInfo(name, ctx)
        if name in self.modules:  # duplicate stem (absolute paths); last wins
            name = ctx.rel_path
            mod.name = name
        self.modules[name] = mod
        self._collect_imports(mod, ctx.tree)
        for stmt in ctx.tree.body:
            self._index_statement(mod, stmt, prefix=name, class_info=None)

    def _collect_imports(self, mod: ModuleInfo, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    mod.import_modules[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_import_base(mod, node)
                if base is None:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    mod.import_names[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def _resolve_import_base(
        self, mod: ModuleInfo, node: ast.ImportFrom
    ) -> Optional[str]:
        if not node.level:
            return node.module
        # Relative import: climb from the current package. A module's
        # package is its dotted name minus the final component (packages
        # themselves already dropped ``__init__``).
        rel = mod.ctx.rel_path.replace("\\", "/")
        is_package = rel.endswith("__init__.py")
        parts = mod.name.split(".")
        if not is_package:
            parts = parts[:-1]
        climb = node.level - 1
        if climb:
            parts = parts[:-climb] if climb < len(parts) else []
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts) if parts else None

    def _index_statement(
        self,
        mod: ModuleInfo,
        stmt: ast.stmt,
        prefix: str,
        class_info: Optional[ClassInfo],
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{prefix}.{stmt.name}"
            info = FunctionInfo(
                qualname=qual,
                module=mod,
                node=stmt,
                class_qual=class_info.qualname if class_info else None,
            )
            self.functions[qual] = info
            if class_info is not None:
                self._note_self_assignments(class_info, stmt)
            elif prefix == mod.name:
                mod.top_defs[stmt.name] = qual
            for inner in stmt.body:
                self._index_statement(
                    mod, inner, prefix=f"{qual}.<locals>", class_info=None
                )
        elif isinstance(stmt, ast.ClassDef):
            qual = f"{prefix}.{stmt.name}"
            cls = ClassInfo(
                qualname=qual,
                name=stmt.name,
                module=mod,
                node=stmt,
                base_exprs=list(stmt.bases),
            )
            self.classes[qual] = cls
            self._class_by_name.setdefault(stmt.name, []).append(qual)
            if prefix == mod.name:
                mod.top_defs[stmt.name] = qual
            for inner in stmt.body:
                if isinstance(inner, ast.AnnAssign) and isinstance(
                    inner.target, ast.Name
                ):
                    cls.attr_annotations[inner.target.id] = inner.annotation
                    cls.fields[inner.target.id] = (
                        ast.unparse(inner.annotation),
                        inner,
                    )
                self._index_statement(mod, inner, prefix=qual, class_info=cls)
        elif isinstance(stmt, ast.Assign) and class_info is None:
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if target.id == "CONSERVATION_LEDGERS" and isinstance(
                        stmt.value, ast.Dict
                    ):
                        self._index_ledgers(mod, stmt.value)
                    mod.constants.setdefault(target.id, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and class_info is None:
            if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                mod.constants.setdefault(stmt.target.id, stmt.value)

    def _index_ledgers(self, mod: ModuleInfo, value: ast.Dict) -> None:
        for key, entry in zip(value.keys, value.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                continue
            fields = tuple(
                inner.value
                for inner in ast.walk(entry)
                if isinstance(inner, ast.Constant) and isinstance(inner.value, str)
            )
            self.ledger_decls.append(
                LedgerDecl(
                    class_name=key.value,
                    fields=fields,
                    module=mod.name,
                    node=key,
                )
            )

    def _note_self_assignments(
        self, cls: ClassInfo, fn: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        """Record ``self.x`` attribute types visible from ``fn``'s body."""
        param_ann: dict[str, ast.expr] = {
            arg.arg: arg.annotation
            for arg in list(fn.args.posonlyargs)
            + list(fn.args.args)
            + list(fn.args.kwonlyargs)
            if arg.annotation is not None
        }
        for node in ast.walk(fn):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, None
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    cls.attr_annotations.setdefault(target.attr, node.annotation)
                continue
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            if attr in cls.attr_annotations:
                continue
            if isinstance(value, ast.Name) and value.id in param_ann:
                cls.attr_annotations[attr] = param_ann[value.id]
            elif isinstance(value, ast.Call):
                cls.attr_annotations.setdefault(attr, value.func)

    # -- resolution --------------------------------------------------------
    def _resolve_types(self) -> None:
        for cls in self.classes.values():
            cls.bases = [
                resolved
                for expr in cls.base_exprs
                if (resolved := self._resolve_class_expr(expr, cls.module))
                is not None
            ]
        for cls in self.classes.values():
            for attr, ann in cls.attr_annotations.items():
                resolved = self._resolve_class_expr(ann, cls.module)
                if resolved is not None:
                    cls.attr_types[attr] = resolved

    def _resolve_class_expr(
        self, expr: ast.expr, mod: ModuleInfo
    ) -> Optional[str]:
        """Class qualname an annotation/base/constructor expression names."""
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            try:
                expr = ast.parse(expr.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(expr, ast.Subscript):
            base = expr.value
            if isinstance(base, ast.Name) and base.id == "Optional":
                return self._resolve_class_expr(expr.slice, mod)
            if isinstance(base, ast.Attribute) and base.attr == "Optional":
                return self._resolve_class_expr(expr.slice, mod)
            return self._resolve_class_expr(base, mod)
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
            left = self._resolve_class_expr(expr.left, mod)
            return left or self._resolve_class_expr(expr.right, mod)
        if isinstance(expr, ast.Name):
            return self.resolve_class_name(expr.id, mod)
        if isinstance(expr, ast.Attribute):
            dotted = _dotted_name(expr)
            if dotted is None:
                return None
            head, _, rest = dotted.partition(".")
            target_mod = mod.import_modules.get(head)
            if target_mod is not None and rest:
                candidate = f"{target_mod}.{rest}"
                if candidate in self.classes:
                    return candidate
            return self.resolve_class_name(dotted.rsplit(".", 1)[-1], mod)
        return None

    def resolve_class_name(self, name: str, mod: ModuleInfo) -> Optional[str]:
        """Resolve a bare class name: local defs, imports, unique name."""
        local = mod.top_defs.get(name)
        if local in self.classes:
            return local
        origin = mod.import_names.get(name)
        if origin is not None:
            if origin in self.classes:
                return origin
            # ``from a.b import C`` where a.b re-exports C from elsewhere:
            # fall through to the unique-name match.
            tail = origin.rsplit(".", 1)[-1]
            candidates = self._class_by_name.get(tail, [])
            if len(candidates) == 1:
                return candidates[0]
            return None
        candidates = self._class_by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def attr_type_on(self, class_qual: str, attr: str) -> Optional[str]:
        """Resolved type of ``attr`` on the class or its bases."""
        seen: set[str] = set()
        stack = [class_qual]
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            cls = self.classes.get(qual)
            if cls is None:
                continue
            found = cls.attr_types.get(attr)
            if found is not None:
                return found
            stack.extend(cls.bases)
        return None

def _dotted_name(expr: ast.expr) -> Optional[str]:
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class _BodyVisitor:
    """Resolve one function's external calls and attribute writes."""

    def __init__(self, table: SymbolTable, info: FunctionInfo) -> None:
        self.table = table
        self.info = info
        self.mod = info.module
        #: local name -> resolved class qualname
        self.local_types: dict[str, str] = {}
        #: nested def name -> qualname (shadows imports and class names)
        self.local_defs: dict[str, str] = {}

    # -- type inference ----------------------------------------------------
    def _seed_param_types(self) -> None:
        node = self.info.node
        if isinstance(node, ast.Lambda):
            return
        for arg in (
            list(node.args.posonlyargs)
            + list(node.args.args)
            + list(node.args.kwonlyargs)
        ):
            if arg.annotation is not None:
                resolved = self.table._resolve_class_expr(arg.annotation, self.mod)
                if resolved is not None:
                    self.local_types[arg.arg] = resolved

    def infer_type(self, expr: ast.expr) -> Optional[str]:
        """Conservative class-qualname inference for an expression."""
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and self.info.class_qual is not None:
                return self.info.class_qual
            return self.local_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.infer_type(expr.value)
            if base is None:
                return None
            return self.table.attr_type_on(base, expr.attr)
        if isinstance(expr, ast.Call):
            return self._constructor_class(expr)
        return None

    def _constructor_class(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            resolved = self.table.resolve_class_name(func.id, self.mod)
            if resolved is not None and func.id not in self.local_defs:
                return resolved
            return None
        if isinstance(func, ast.Attribute):
            return self.table._resolve_class_expr(func, self.mod)
        return None

    # -- walking -----------------------------------------------------------
    def run(self) -> None:
        self._seed_param_types()
        node = self.info.node
        body = node.body if not isinstance(node, ast.Lambda) else [node.body]
        for stmt in body:
            self._walk(stmt)

    def _walk(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested def: its body is its own table entry; remember the
            # name so a later call to it is not mistaken for an import.
            qual = f"{self.info.qualname}.<locals>.{node.name}"
            self.local_defs[node.name] = qual
            nested = self.table.functions.get(qual)
            if nested is None:
                nested = FunctionInfo(
                    qualname=qual,
                    module=self.mod,
                    node=node,
                    class_qual=self.info.class_qual,
                )
                self.table.functions[qual] = nested
            elif nested.class_qual is None:
                # Indexed without closure context; a closure over ``self``
                # still belongs to the enclosing method's class.
                nested.class_qual = self.info.class_qual
            visitor = _BodyVisitor(self.table, nested)
            visitor.local_types.update(self.local_types)
            visitor.local_defs.update(self.local_defs)
            visitor._seed_param_types()
            for stmt in node.body:
                visitor._walk(stmt)
            return
        if isinstance(node, ast.Lambda):
            qual = f"{self.info.qualname}.<locals>.<lambda:{node.lineno}>"
            if qual not in self.table.functions:
                nested = FunctionInfo(
                    qualname=qual,
                    module=self.mod,
                    node=node,
                    class_qual=self.info.class_qual,
                )
                self.table.functions[qual] = nested
                visitor = _BodyVisitor(self.table, nested)
                visitor.local_types.update(self.local_types)
                visitor.local_defs.update(self.local_defs)
                visitor._walk(node.body)
            return
        if isinstance(node, ast.ClassDef):
            return  # classes nested in functions are out of scope
        if isinstance(node, ast.Assign):
            self._note_assign(node)
        elif isinstance(node, ast.AnnAssign):
            self._note_annassign(node)
        elif isinstance(node, ast.AugAssign):
            self._note_attr_write(node.target)
        elif isinstance(node, ast.Call):
            self._note_call(node)
        for child in ast.iter_child_nodes(node):
            self._walk(child)

    def _note_assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_attr_write(target)
            if isinstance(target, ast.Tuple):
                for element in target.elts:
                    self._note_attr_write(element)
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            inferred = self.infer_type(node.value)
            if inferred is not None:
                self.local_types[node.targets[0].id] = inferred

    def _note_annassign(self, node: ast.AnnAssign) -> None:
        self._note_attr_write(node.target)
        if isinstance(node.target, ast.Name):
            resolved = self.table._resolve_class_expr(node.annotation, self.mod)
            if resolved is not None:
                self.local_types[node.target.id] = resolved

    def _note_attr_write(self, target: ast.expr) -> None:
        if isinstance(target, ast.Attribute):
            self.info.attr_writes.append(
                AttrWrite(
                    attr=target.attr,
                    receiver_class=self.infer_type(target.value),
                    node=target,
                )
            )

    # -- call resolution ---------------------------------------------------
    def _note_call(self, call: ast.Call) -> None:
        """Resolve a callee through the imports, never through a receiver.

        A call that lands outside the project is recorded as an
        :class:`ExternalCall`; the keyword arguments of a project class
        constructor count as attribute writes (``FooStats(hits=n)``).
        """
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.local_defs:
                return
            target = dotted = self.mod.top_defs.get(name)
            if dotted is None:
                dotted = self.mod.import_names.get(name)
                if dotted is None:
                    return
                # ``from repro.netsim import Timer`` may name a re-export.
                target = self._project_symbol(
                    dotted
                ) or self.table.resolve_class_name(name, self.mod)
        elif isinstance(func, ast.Attribute):
            path = _dotted_name(func)
            if path is None:
                return
            head, _, rest = path.partition(".")
            target_mod = self.mod.import_modules.get(head)
            if (
                target_mod is None
                or not rest
                or head in self.local_types
                or head == "self"
            ):
                return
            dotted = f"{target_mod}.{rest}"
            target = self._project_symbol(dotted)
        else:
            return
        if target is None:
            self.info.external_calls.append(ExternalCall(dotted, call))
        elif target in self.table.classes:
            for kw in call.keywords:
                if kw.arg is not None:
                    self.info.attr_writes.append(
                        AttrWrite(attr=kw.arg, receiver_class=target, node=call)
                    )

    def _project_symbol(self, dotted: str) -> Optional[str]:
        """Map a fully dotted name onto a project class/function, if any."""
        if dotted in self.table.classes or dotted in self.table.functions:
            return dotted
        head, _, tail = dotted.rpartition(".")
        mod = self.table.modules.get(head)
        if mod is not None:
            qual = f"{mod.name}.{tail}"
            if qual in self.table.classes or qual in self.table.functions:
                return qual
            # The name exists in a project module but is not a class/def
            # (a constant, a re-export): try the unique-name fallback.
            resolved = self.table.resolve_class_name(tail, mod)
            if resolved is not None:
                return resolved
        return None
