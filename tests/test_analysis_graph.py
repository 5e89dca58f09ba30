"""Tests for the whole-program symbol table.

The interprocedural rules are only as good as the table under them, so
the resolution machinery gets its own suite: module naming, symbol
indexing, import-resolved external calls, and receiver-type inference
(annotated parameters, dataclass fields, ``self.x = ...`` assignments,
attribute chains, base classes) as seen through the attribute writes the
ledger rule consumes — including the soundness contract that an
un-inferable receiver is reported as unknown rather than guessed.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.engine import ModuleContext
from repro.analysis.symbols import SymbolTable, module_name_for


def _write(tmp_path: Path, name: str, body: str) -> Path:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return path


def _program(tmp_path: Path, **modules: str) -> SymbolTable:
    contexts = []
    for name, body in modules.items():
        path = _write(tmp_path, f"{name}.py", body)
        contexts.append(
            ModuleContext(path, f"{name}.py", path.read_text(encoding="utf-8"))
        )
    return SymbolTable(contexts)


def _writes(program: SymbolTable, qualname: str) -> set[tuple[str, str | None]]:
    """``(attr, receiver class)`` of every attribute write in a function."""
    info = program.functions[qualname]
    return {(write.attr, write.receiver_class) for write in info.attr_writes}


class TestModuleNames:
    def test_src_prefix_stripped(self):
        assert module_name_for("src/repro/core/ilp.py") == "repro.core.ilp"

    def test_package_init_names_package(self):
        assert module_name_for("src/repro/core/__init__.py") == "repro.core"

    def test_plain_relative_path(self):
        assert module_name_for("tests/test_ilp_packet.py") == "tests.test_ilp_packet"

    def test_absolute_path_falls_back_to_stem(self):
        assert module_name_for("/tmp/anywhere/mod.py") == "mod"


class TestSymbolTable:
    def test_functions_classes_and_methods_indexed(self, tmp_path):
        program = _program(
            tmp_path,
            mod="""
            def helper():
                pass

            class Box:
                def get(self):
                    return 1
            """,
        )
        assert "mod.helper" in program.functions
        assert "mod.Box" in program.classes
        assert program.functions["mod.Box.get"].class_qual == "mod.Box"
        assert program.functions["mod.helper"].class_qual is None

    def test_nested_def_qualname(self, tmp_path):
        program = _program(
            tmp_path,
            mod="""
            import zlib

            def outer():
                def inner(data):
                    return zlib.crc32(data)
                inner(b"")
            """,
        )
        nested = program.functions["mod.outer.<locals>.inner"]
        # The nested body is its own entry; its facts are not the outer's.
        assert [c.dotted for c in nested.external_calls] == ["zlib.crc32"]
        assert program.functions["mod.outer"].external_calls == []

    def test_dataclass_fields_recorded(self, tmp_path):
        program = _program(
            tmp_path,
            mod="""
            from dataclasses import dataclass

            @dataclass
            class FooStats:
                hits: int = 0
                notes: list = None
            """,
        )
        cls = program.classes["mod.FooStats"]
        assert set(cls.fields) == {"hits", "notes"}
        assert cls.fields["hits"][0] == "int"


class TestImportResolution:
    def test_external_call_recorded_with_dotted_name(self, tmp_path):
        program = _program(
            tmp_path,
            mod="""
            import zlib

            def digest(data):
                return zlib.crc32(data)
            """,
        )
        info = program.functions["mod.digest"]
        assert [c.dotted for c in info.external_calls] == ["zlib.crc32"]

    def test_aliases_and_from_imports_resolve_to_their_origin(self, tmp_path):
        program = _program(
            tmp_path,
            mod="""
            import random as rnd
            from random import Random as R

            def make(seed):
                return rnd.Random(seed), R(seed)
            """,
        )
        info = program.functions["mod.make"]
        assert [c.dotted for c in info.external_calls] == ["random.Random"] * 2

    def test_project_calls_are_not_external(self, tmp_path):
        program = _program(
            tmp_path,
            util="""
            def helper():
                pass

            class Widget:
                def __init__(self, n=0):
                    self.n = n
            """,
            user="""
            import util
            from util import Widget, helper

            def go():
                helper()
                util.helper()
                return util.Widget(), Widget(n=3)
            """,
        )
        info = program.functions["user.go"]
        assert info.external_calls == []
        # A project constructor's keyword counts as a write on that class.
        assert _writes(program, "user.go") == {("n", "util.Widget")}

    def test_local_def_shadows_an_import(self, tmp_path):
        program = _program(
            tmp_path,
            mod="""
            from zlib import crc32

            def outer(data):
                def crc32(blob):
                    return 0
                return crc32(data)
            """,
        )
        assert program.functions["mod.outer"].external_calls == []


class TestReceiverInference:
    def test_annotated_parameter_receiver(self, tmp_path):
        program = _program(
            tmp_path,
            mod="""
            class Cache:
                hits: int = 0

            def probe(cache: Cache):
                cache.hits += 1
            """,
        )
        assert _writes(program, "mod.probe") == {("hits", "mod.Cache")}

    def test_cross_module_annotated_receiver(self, tmp_path):
        program = _program(
            tmp_path,
            store="""
            class Store:
                reads: int = 0
            """,
            user="""
            from store import Store

            def fetch(store: Store, key):
                store.reads += 1
            """,
        )
        assert _writes(program, "user.fetch") == {("reads", "store.Store")}

    def test_self_attribute_from_annotated_param(self, tmp_path):
        program = _program(
            tmp_path,
            mod="""
            class Clock:
                ticks: int = 0

            class Node:
                def __init__(self, clock: Clock):
                    self.clock = clock

                def stamp(self):
                    self.clock.ticks += 1
            """,
        )
        assert _writes(program, "mod.Node.stamp") == {("ticks", "mod.Clock")}

    def test_self_attribute_from_constructor_assignment(self, tmp_path):
        program = _program(
            tmp_path,
            mod="""
            class Queue:
                depth: int = 0

            class Node:
                def __init__(self):
                    self.queue = Queue()

                def enqueue(self, item):
                    self.queue.depth += 1
            """,
        )
        assert _writes(program, "mod.Node.enqueue") == {("depth", "mod.Queue")}

    def test_attribute_chain_through_typed_fields(self, tmp_path):
        program = _program(
            tmp_path,
            mod="""
            class Sim:
                now: float = 0.0

            class Net:
                sim: Sim

            class Node:
                net: Net

                def stamp(self):
                    self.net.sim.now = 1.0
            """,
        )
        assert _writes(program, "mod.Node.stamp") == {("now", "mod.Sim")}

    def test_inherited_attribute_resolves_through_base(self, tmp_path):
        program = _program(
            tmp_path,
            mod="""
            class Stats:
                runs: int = 0

            class Base:
                stats: Stats

            class Child(Base):
                pass

            def go(c: Child):
                c.stats.runs += 1
            """,
        )
        assert _writes(program, "mod.go") == {("runs", "mod.Stats")}

    def test_local_assigned_from_constructor_is_typed(self, tmp_path):
        program = _program(
            tmp_path,
            mod="""
            class Widget:
                n: int = 0

            def make():
                w = Widget()
                w.n = 3
                return w
            """,
        )
        assert _writes(program, "mod.make") == {("n", "mod.Widget")}

    def test_untyped_receiver_is_unknown_not_guessed(self, tmp_path):
        # Soundness: never guess a class from an un-inferable receiver.
        program = _program(
            tmp_path,
            mod="""
            class Cache:
                hits: int = 0

            def probe(cache):
                cache.hits += 1
            """,
        )
        assert _writes(program, "mod.probe") == {("hits", None)}
