"""Analysis engine: file walking, module context, and waivers.

The engine parses each Python file once into a :class:`ModuleContext`
(AST + waiver map + ownership facts) and hands it to every applicable
rule. Two rule shapes exist:

* **per-module** rules — plain callables ``rule(ctx) -> list[Finding]``
  registered in :mod:`repro.analysis.rules`;
* **interprocedural** rules — callables
  ``rule(program: SymbolTable) -> list[Finding]`` (marked with
  ``rule.interprocedural = True``) registered in
  :mod:`repro.analysis.iprules`, which run once over the whole-program
  symbol table built from every parsed module.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

#: Inline waiver: ``# repro: allow(CODE[, CODE...]) optional reason``.
#: Applies to the line it sits on and the line directly below (so a
#: standalone comment can waive the following statement).
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(\s*([A-Z0-9_,\s]+?)\s*\)")


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    __slots__ = (
        "path",
        "rel_path",
        "source",
        "tree",
        "is_test",
        "suppressions",
        "owned_privates",
    )

    def __init__(self, path: Path, rel_path: str, source: str) -> None:
        self.path = path
        self.rel_path = rel_path
        self.source = source
        self.tree = ast.parse(source, filename=rel_path)
        parts = rel_path.replace("\\", "/").split("/")
        self.is_test = "tests" in parts or parts[-1].startswith("test_")
        self.suppressions = _collect_suppressions(source)
        self.owned_privates = _collect_owned_privates(self.tree)

    def allowed(self, code: str, line: int) -> bool:
        """Is ``code`` waived at ``line`` (same line or the line above)?"""
        return code in self.suppressions.get(line, ()) or code in self.suppressions.get(
            line - 1, ()
        )

    def finding(self, node: ast.AST, code: str, message: str) -> Optional[Finding]:
        line = getattr(node, "lineno", 1)
        if self.allowed(code, line):
            return None
        return Finding(
            path=self.rel_path,
            line=line,
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )


def _collect_suppressions(source: str) -> dict[int, frozenset[str]]:
    out: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(line)
        if match:
            codes = frozenset(
                code.strip() for code in match.group(1).split(",") if code.strip()
            )
            out[lineno] = codes
    return out


def _slot_names(node: ast.AST) -> Iterable[str]:
    """String elements of a ``__slots__`` value (tuple/list/str)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                yield element.value


def _collect_owned_privates(tree: ast.Module) -> frozenset[str]:
    """Private names this module *owns* and may therefore touch freely.

    A module owns ``_name`` if it assigns ``self._name`` / ``cls._name``
    anywhere, declares it in a ``__slots__`` tuple, binds it in a class
    body (class attribute, dataclass field, or method definition), or
    assigns it at module level.
    """
    owned: set[str] = set()

    def note_target(target: ast.expr) -> None:
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            if target.value.id in ("self", "cls") and target.attr.startswith("_"):
                owned.add(target.attr)

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                note_target(target)
                if isinstance(target, ast.Tuple):
                    for element in target.elts:
                        note_target(element)
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    if isinstance(node, ast.Assign) and node.value is not None:
                        owned.update(_slot_names(node.value))
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if stmt.name.startswith("_"):
                        owned.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            if target.id == "__slots__":
                                owned.update(_slot_names(stmt.value))
                            elif target.id.startswith("_"):
                                owned.add(target.id)
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    if stmt.target.id.startswith("_"):
                        owned.add(stmt.target.id)
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id.startswith("_"):
                    owned.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.target.id.startswith("_"):
                owned.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_"):
                owned.add(node.name)
    return frozenset(owned)


#: Per-module rule: ``rule(ctx) -> findings``. Interprocedural rules take
#: a SymbolTable instead and are marked ``rule.interprocedural = True``.
Rule = Callable[..., list[Finding]]


def is_interprocedural(rule: Rule) -> bool:
    return bool(getattr(rule, "interprocedural", False))


def rule_code(rule: Rule) -> str:
    """Rule code from the callable name (``rule_det001`` -> ``DET001``)."""
    return rule.__name__.removeprefix("rule_").upper()


def analyze_file(
    path: Path,
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> list[Finding]:
    """Run ``rules`` (default: all) over one ``.py`` file.

    Interprocedural rules see a one-module program — enough for
    self-contained fixtures; use :func:`analyze_paths` for real trees.
    """
    return analyze_paths([path], root, rules)


def iter_python_files(paths: Sequence[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def analyze_paths(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> list[Finding]:
    """Run the rule set over every ``.py`` file under ``paths``.

    Per-module rules run file by file; the interprocedural rules run once
    over the symbol table of every file that parsed.
    """
    from .rules import ALL_RULES

    if rules is None:
        rules = ALL_RULES
    module_rules = [rule for rule in rules if not is_interprocedural(rule)]
    program_rules = [rule for rule in rules if is_interprocedural(rule)]
    findings: list[Finding] = []
    contexts: list[ModuleContext] = []
    for file_path in iter_python_files(paths):
        rel = str(file_path.relative_to(root)) if root is not None else str(file_path)
        try:
            ctx = ModuleContext(file_path, rel, file_path.read_text(encoding="utf-8"))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=rel,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    code="PARSE",
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        contexts.append(ctx)
        for rule in module_rules:
            findings.extend(rule(ctx))
    if program_rules and contexts:
        from .symbols import SymbolTable  # circular: symbols builds on this module

        program = SymbolTable(contexts)
        for rule in program_rules:
            findings.extend(rule(program))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
