"""Fixture tests for the interprocedural rules: DET003, LEDGER001.

Mirrors the conventions of ``tests/test_analysis_rules.py``: every rule
gets failing fixtures (the rule fires, with the right message), clean
fixtures (the rule stays quiet), and waiver coverage. The analysis
package is required to pass its own rules (self-analysis).
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import analyze_file, analyze_paths
from repro.analysis.rules import rule_det003, rule_ledger001

REPO_ROOT = Path(__file__).resolve().parent.parent


def _write(tmp_path: Path, name: str, body: str) -> Path:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return path


def _codes(findings) -> list[str]:
    return [f.code for f in findings]


class TestDET003:
    def test_entropy_seed_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            import os
            import random

            class Node:
                def __init__(self):
                    self.rng = random.Random(os.urandom(8))
            """,
        )
        findings = analyze_file(path, rules=[rule_det003])
        assert _codes(findings) == ["DET003"]
        assert "derives from os.urandom()" in findings[0].message

    def test_builtin_hash_and_id_seeds_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            import random

            def make(node):
                a = random.Random(hash(node))
                b = random.Random(id(node))
                return a, b
            """,
        )
        findings = analyze_file(path, rules=[rule_det003])
        assert _codes(findings) == ["DET003", "DET003"]

    def test_wall_clock_seed_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            import random
            import time

            def make():
                return random.Random(time.time_ns())
            """,
        )
        findings = analyze_file(path, rules=[rule_det003])
        assert _codes(findings) == ["DET003"]
        assert "wall clock" in findings[0].message

    def test_seed_through_assignment_chain_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            import os
            import random

            def make():
                raw = os.urandom(4)
                seed = int.from_bytes(raw, "big")
                return random.Random(seed)
            """,
        )
        findings = analyze_file(path, rules=[rule_det003])
        assert _codes(findings) == ["DET003"]

    def test_set_iteration_seed_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            class Links:
                def reshuffle(self, peers):
                    for peer in set(peers):
                        self.link(peer).reseed(peer)

                def link(self, peer):
                    return None
            """,
        )
        findings = analyze_file(path, rules=[rule_det003])
        assert _codes(findings) == ["DET003"]
        assert "iterates a set/dict" in findings[0].message

    def test_sorted_iteration_clean(self, tmp_path):
        # sorted() imposes a total order, neutralizing set iteration.
        path = _write(
            tmp_path,
            "mod.py",
            """
            class Links:
                def reshuffle(self, peers):
                    for peer in sorted(set(peers)):
                        self.link(peer).reseed(peer)

                def link(self, peer):
                    return None
            """,
        )
        assert analyze_file(path, rules=[rule_det003]) == []

    def test_parameter_config_and_literal_seeds_clean(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            import random
            import zlib

            DEFAULT_SEED = 0xA11CE

            class Node:
                def __init__(self, cfg, seed: int):
                    self.a = random.Random(seed)
                    self.b = random.Random(cfg.seed)
                    self.c = random.Random(0x5EED)
                    self.d = random.Random(DEFAULT_SEED)
                    self.e = random.Random(zlib.crc32(cfg.name.encode()))
            """,
        )
        assert analyze_file(path, rules=[rule_det003]) == []

    def test_reseed_from_parameter_clean(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            class Link:
                def flip(self, value):
                    self.rng.reseed(int(value))
            """,
        )
        assert analyze_file(path, rules=[rule_det003]) == []

    def test_tuple_unpack_provenance_tracked(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            import os

            class Agent:
                def apply(self, event):
                    kind, value = event.kind, os.urandom(4)
                    self.rng.reseed(value)
            """,
        )
        findings = analyze_file(path, rules=[rule_det003])
        assert _codes(findings) == ["DET003"]

    def test_waiver_suppresses(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            import os
            import random

            def entropy_rng():
                # repro: allow(DET003, DET001) deliberately nondeterministic tool
                return random.Random(os.urandom(8))
            """,
        )
        assert analyze_file(path, rules=[rule_det003]) == []

    def test_test_modules_exempt(self, tmp_path):
        path = _write(
            tmp_path,
            "test_mod.py",
            """
            import os
            import random

            def test_chaos():
                assert random.Random(os.urandom(8)) is not None
            """,
        )
        assert analyze_file(path, rules=[rule_det003]) == []


class TestLEDGER001:
    def test_dead_counter_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            from dataclasses import dataclass

            @dataclass
            class FooStats:
                hits: int = 0
                dead: int = 0

            class Foo:
                def __init__(self):
                    self.stats = FooStats()

                def hit(self):
                    self.stats.hits += 1
            """,
        )
        findings = analyze_file(path, rules=[rule_ledger001])
        assert _codes(findings) == ["LEDGER001"]
        assert "FooStats.dead" in findings[0].message
        assert "no write site" in findings[0].message

    def test_all_counters_written_clean(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            from dataclasses import dataclass

            @dataclass
            class FooStats:
                hits: int = 0
                misses: int = 0

            class Foo:
                def __init__(self):
                    self.stats = FooStats()

                def probe(self, ok):
                    if ok:
                        self.stats.hits += 1
                    else:
                        self.stats.misses = self.stats.misses + 1
            """,
        )
        assert analyze_file(path, rules=[rule_ledger001]) == []

    def test_untyped_write_credits_by_field_name(self, tmp_path):
        # Conservative: a write through an un-inferable receiver must
        # never let a counter be reported dead.
        path = _write(
            tmp_path,
            "mod.py",
            """
            from dataclasses import dataclass

            @dataclass
            class FooStats:
                hits: int = 0

            def bump(stats):
                stats.hits += 1
            """,
        )
        assert analyze_file(path, rules=[rule_ledger001]) == []

    def test_constructor_kwarg_counts_as_write(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            from dataclasses import dataclass

            @dataclass
            class FooStats:
                hits: int = 0

            def snapshot(n):
                return FooStats(hits=n)
            """,
        )
        assert analyze_file(path, rules=[rule_ledger001]) == []

    def test_non_counter_fields_exempt(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            from dataclasses import dataclass, field

            @dataclass
            class FlowStats:
                samples: list = field(default_factory=list)
            """,
        )
        assert analyze_file(path, rules=[rule_ledger001]) == []

    def test_ledger_unknown_class_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            CONSERVATION_LEDGERS = {
                "GhostStats": ("total", ("a", "b")),
            }
            """,
        )
        findings = analyze_file(path, rules=[rule_ledger001])
        assert _codes(findings) == ["LEDGER001"]
        assert "unknown stats class" in findings[0].message

    def test_ledger_unknown_field_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            from dataclasses import dataclass

            @dataclass
            class FooStats:
                parked: int = 0
                drained: int = 0

            CONSERVATION_LEDGERS = {
                "FooStats": ("parked", ("drianed",)),
            }

            def bump(s: FooStats):
                s.parked += 1
                s.drained += 1
            """,
        )
        findings = analyze_file(path, rules=[rule_ledger001])
        assert _codes(findings) == ["LEDGER001"]
        assert "'drianed'" in findings[0].message
        assert "ledger typo" in findings[0].message

    def test_valid_ledger_clean(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            from dataclasses import dataclass

            @dataclass
            class FooStats:
                parked: int = 0
                drained: int = 0

            CONSERVATION_LEDGERS = {
                "FooStats": ("parked", ("drained",)),
            }

            def bump(s: FooStats):
                s.parked += 1
                s.drained += 1
            """,
        )
        assert analyze_file(path, rules=[rule_ledger001]) == []

    def test_waiver_suppresses(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            from dataclasses import dataclass

            @dataclass
            class FooStats:
                hits: int = 0
                # repro: allow(LEDGER001) reserved for the v2 dashboard
                planned: int = 0

            def bump(s: FooStats):
                s.hits += 1
            """,
        )
        assert analyze_file(path, rules=[rule_ledger001]) == []

    def test_test_module_stats_exempt(self, tmp_path):
        path = _write(
            tmp_path,
            "test_mod.py",
            """
            from dataclasses import dataclass

            @dataclass
            class ProbeStats:
                unused: int = 0
            """,
        )
        assert analyze_file(path, rules=[rule_ledger001]) == []


class TestCrossModule:
    def test_ledger001_write_site_in_other_module(self, tmp_path):
        _write(
            tmp_path,
            "stats.py",
            """
            from dataclasses import dataclass

            @dataclass
            class LinkStats:
                drops: int = 0
            """,
        )
        _write(
            tmp_path,
            "link.py",
            """
            from stats import LinkStats

            class Link:
                def __init__(self):
                    self.stats = LinkStats()

                def drop(self):
                    self.stats.drops += 1
            """,
        )
        assert analyze_paths([tmp_path], rules=[rule_ledger001]) == []


class TestSelfAnalysis:
    def test_analysis_package_passes_its_own_rules(self):
        """The analyzer must hold itself to the rules it enforces."""
        package = REPO_ROOT / "src" / "repro" / "analysis"
        findings = analyze_paths([package], root=REPO_ROOT)
        assert findings == [], "\n" + "\n".join(f.render() for f in findings)
