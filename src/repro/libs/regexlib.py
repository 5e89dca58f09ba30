"""Regular-expression matching library (the Pigasus/IDS stand-in).

Used by the firewall/NGFW service for payload inspection rules. Patterns
are compiled once and matched against payload bytes; the library keeps
per-pattern hit statistics so operators can audit rule effectiveness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass
class _CompiledRule:
    pattern: re.Pattern
    hits: int = 0


class RegexLibrary:
    """Compiled byte-pattern matching with rule management."""

    def __init__(self) -> None:
        self._rules: dict[str, _CompiledRule] = {}
        self.scans = 0

    def add_rule(self, name: str, pattern: bytes | str) -> None:
        raw = pattern.encode() if isinstance(pattern, str) else pattern
        self._rules[name] = _CompiledRule(pattern=re.compile(raw))

    def remove_rule(self, name: str) -> bool:
        return self._rules.pop(name, None) is not None

    def rule_names(self) -> list[str]:
        return sorted(self._rules)

    def match(self, name: str, data: bytes) -> bool:
        """Does one named rule match the data?"""
        rule = self._rules[name]
        self.scans += 1
        if rule.pattern.search(data) is not None:
            rule.hits += 1
            return True
        return False

    def scan(self, data: bytes) -> list[str]:
        """All rule names matching the data (NGFW-style full scan)."""
        self.scans += 1
        matched = []
        for name, rule in self._rules.items():
            if rule.pattern.search(data) is not None:
                rule.hits += 1
                matched.append(name)
        return matched

    def hits(self, name: str) -> int:
        return self._rules[name].hits
