"""Fixture tests for the determinism & datapath-invariant analysis suite.

Each rule gets at least one failing fixture (the rule fires) and one clean
fixture (the rule stays quiet), plus waiver and CLI behavior, plus the
acceptance gate: the live tree is clean.
"""

from __future__ import annotations

import json
import runpy
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from repro.analysis import analyze_file, analyze_paths
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.rules import rule_det001, rule_det002

REPO_ROOT = Path(__file__).resolve().parent.parent


def _write(tmp_path: Path, name: str, body: str) -> Path:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return path


def _codes(findings) -> list[str]:
    return [f.code for f in findings]


class TestDET001:
    def test_global_rng_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        findings = analyze_file(path, rules=[rule_det001])
        assert _codes(findings) == ["DET001"]
        assert "global" in findings[0].message

    def test_from_import_alias_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            from random import shuffle as mix

            def scramble(items):
                mix(items)
            """,
        )
        assert _codes(analyze_file(path, rules=[rule_det001])) == ["DET001"]

    def test_wall_clock_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            import time

            def now():
                return time.time()
            """,
        )
        findings = analyze_file(path, rules=[rule_det001])
        assert _codes(findings) == ["DET001"]
        assert "wall-clock" in findings[0].message

    def test_builtin_hash_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            def seed_for(address):
                return hash(address) & 0xFFFFFFFF
            """,
        )
        findings = analyze_file(path, rules=[rule_det001])
        assert _codes(findings) == ["DET001"]
        assert "PYTHONHASHSEED" in findings[0].message

    def test_unseeded_random_instance_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            import random

            RNG = random.Random()
            """,
        )
        assert _codes(analyze_file(path, rules=[rule_det001])) == ["DET001"]

    def test_seeded_rng_clean(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            import random
            import zlib

            RNG = random.Random(0xA11CE)

            def seed_for(address):
                return zlib.crc32(address.encode())

            def jitter():
                return RNG.random()
            """,
        )
        assert analyze_file(path, rules=[rule_det001]) == []

    def test_os_urandom_needs_waiver(self, tmp_path):
        flagged = _write(
            tmp_path,
            "bad.py",
            """
            import os

            def token():
                return os.urandom(8)
            """,
        )
        waived = _write(
            tmp_path,
            "good.py",
            """
            import os

            def key_material():
                # repro: allow(DET001) entropy boundary: real key material
                return os.urandom(16)
            """,
        )
        assert _codes(analyze_file(flagged, rules=[rule_det001])) == ["DET001"]
        assert analyze_file(waived, rules=[rule_det001]) == []

    def test_from_import_entropy_variants_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            from os import urandom
            from random import Random, SystemRandom
            from secrets import token_bytes
            from time import monotonic
            from uuid import uuid4

            def entropy_soup():
                return (
                    Random(),
                    SystemRandom(),
                    monotonic(),
                    urandom(8),
                    token_bytes(4),
                    uuid4(),
                )
            """,
        )
        findings = analyze_file(path, rules=[rule_det001])
        assert _codes(findings) == ["DET001"] * 6
        messages = " ".join(f.message for f in findings)
        for needle in ("without a seed", "OS entropy", "wall-clock", "uuid4"):
            assert needle in messages

    def test_attribute_entropy_variants_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            import datetime
            import numpy
            import random
            import secrets
            import uuid

            def entropy_soup(items):
                rng = numpy.random.default_rng(7)  # seeded: fine
                return (
                    rng,
                    random.SystemRandom(),
                    secrets.token_hex(),
                    uuid.uuid1(),
                    datetime.now(),
                    datetime.datetime.now(),
                    numpy.random.default_rng(),
                    numpy.random.shuffle(items),
                )
            """,
        )
        findings = analyze_file(path, rules=[rule_det001])
        assert _codes(findings) == ["DET001"] * 7
        messages = " ".join(f.message for f in findings)
        for needle in (
            "SystemRandom",
            "secrets.token_hex",
            "uuid.uuid1",
            "wall clock",
            "default_rng() without a seed",
            "global RNG",
        ):
            assert needle in messages

    @pytest.mark.parametrize(
        "module",
        [
            "socket",
            "subprocess",
            "threading",
            "select",
            "multiprocessing",
            "asyncio",
            "pickle",
        ],
    )
    def test_banned_imports_flagged_in_every_spelling(self, tmp_path, module):
        path = _write(
            tmp_path,
            "mod.py",
            f"""
            import {module}
            import {module}.sub as alias
            from {module} import thing

            def helper():
                import {module}
            """,
        )
        findings = analyze_file(path, rules=[rule_det001])
        assert _codes(findings) == ["DET001"] * 4
        assert all(f"import of {module}" in f.message for f in findings)

    def test_blocking_calls_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            import os
            import time
            import time as clock
            from os import waitpid
            from time import sleep as nap

            def stall(pid):
                time.sleep(0)
                clock.sleep(1)
                nap(2)
                os.system("true")
                os.popen("true")
                os.fork()
                os.wait()
                waitpid(pid, 0)
            """,
        )
        findings = analyze_file(path, rules=[rule_det001])
        assert _codes(findings) == ["DET001"] * 8
        assert "time.sleep()" in findings[0].message

    def test_flagged_when_unreachable_from_any_callback(self, tmp_path):
        # No reachability argument: an offline helper nobody registers
        # is as banned as an event-loop callback.
        path = _write(
            tmp_path,
            "mod.py",
            """
            import time

            class Engine:
                def schedule(self, delay, callback):
                    pass

            class Worker:
                def start(self, eng: Engine):
                    eng.schedule(1.0, self.tick)

                def tick(self):
                    pass

                def offline_tool(self):
                    time.sleep(1.0)
            """,
        )
        findings = analyze_file(path, rules=[rule_det001])
        assert _codes(findings) == ["DET001"]
        assert findings[0].line == 16

    def test_flagged_under_an_untyped_receiver(self, tmp_path):
        # No receiver guessing either: nothing needs to know what
        # ``store`` is for the import to be a finding.
        path = _write(
            tmp_path,
            "mod.py",
            """
            import subprocess

            class Agent:
                def attach(self, store):
                    store.watch_prefix("resilience/", self.on_update)

                def on_update(self, key, op, value):
                    subprocess.run(["true"])
            """,
        )
        findings = analyze_file(path, rules=[rule_det001])
        assert _codes(findings) == ["DET001"]
        assert "import of subprocess" in findings[0].message

    def test_look_alike_names_stay_clean(self, tmp_path):
        path = _write(
            tmp_path,
            "pkg/mod.py",
            """
            import os.path
            import socketserver
            import time
            from . import threading
            from .select import pick
            from .pickle import dumps

            def sleep(seconds):
                return seconds

            class Pipe:
                def __init__(self, socket, clock):
                    self.socket = socket
                    self.clock = clock

                def run(self, subprocess):
                    self.socket.send(b"x")
                    self.clock.sleep(1)
                    subprocess.run()
                    sleep(2)
                    os.path.join("a", "b")
                    return time.strftime("%Y"), pick(dumps, threading)
            """,
        )
        assert analyze_file(path, rules=[rule_det001]) == []

    def test_banned_import_needs_waiver(self, tmp_path):
        flagged = _write(tmp_path, "bad.py", "import pickle\n")
        waived = _write(
            tmp_path,
            "good.py",
            """
            # repro: allow(DET001) models a page copy; never fed foreign bytes
            import pickle
            """,
        )
        assert _codes(analyze_file(flagged, rules=[rule_det001])) == ["DET001"]
        assert analyze_file(waived, rules=[rule_det001]) == []

    def test_test_files_exempt(self, tmp_path):
        path = _write(
            tmp_path,
            "test_mod.py",
            """
            import random

            def test_stuff():
                assert random.random() >= 0.0
            """,
        )
        assert analyze_file(path, rules=[rule_det001]) == []


class TestDET002:
    def test_foreign_private_reach_in_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            def poke(cache):
                return cache._entries
            """,
        )
        findings = analyze_file(path, rules=[rule_det002])
        assert _codes(findings) == ["DET002"]
        assert "_entries" in findings[0].message

    def test_own_private_clean(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            class Table:
                def __init__(self):
                    self._entries = {}

                def size(self):
                    return len(self._entries)


            def merge(a, b):
                # Same module owns _entries, so sibling access is fine.
                a._entries.update(b._entries)
            """,
        )
        assert analyze_file(path, rules=[rule_det002]) == []

    def test_slots_declare_ownership(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            class Packed:
                __slots__ = ("_v",)


            def bump(p):
                p._v += 1
            """,
        )
        assert analyze_file(path, rules=[rule_det002]) == []

    def test_dunder_exempt(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            def state(obj):
                return obj.__dict__
            """,
        )
        assert analyze_file(path, rules=[rule_det002]) == []

    def test_super_access_exempt(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            class Base:
                def __init__(self):
                    self._cache = {}

            class Child(Base):
                def peek(self):
                    return super()._cache
            """,
        )
        assert analyze_file(path, rules=[rule_det002]) == []

    def test_string_slots_declare_ownership(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            class Probe:
                __slots__ = "_lone"

            def read(probe):
                return probe._lone
            """,
        )
        assert analyze_file(path, rules=[rule_det002]) == []

    def test_module_level_private_annassign_owned(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            _quota: int = 8

            def probe(other):
                return other._quota
            """,
        )
        assert analyze_file(path, rules=[rule_det002]) == []

    def test_waiver_suppresses(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """
            def poke(cache):
                # repro: allow(DET002) white-box corruption for a test
                return cache._entries
            """,
        )
        assert analyze_file(path, rules=[rule_det002]) == []


class TestEngineEdges:
    def test_syntax_error_reported_as_parse_finding(self, tmp_path):
        path = _write(tmp_path, "broken.py", "def oops(:\n")
        findings = analyze_paths([path])
        assert _codes(findings) == ["PARSE"]
        assert "syntax error" in findings[0].message


class TestCLI:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        _write(tmp_path, "pkg/clean.py", "X = 1\n")
        assert analysis_main([str(tmp_path)]) == 0
        assert "clean: 0 findings" in capsys.readouterr().err

    def test_exit_one_on_findings(self, tmp_path, capsys):
        _write(
            tmp_path,
            "pkg/dirty.py",
            """
            import random

            X = random.random()
            """,
        )
        assert analysis_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_rule_filter(self, tmp_path):
        _write(
            tmp_path,
            "pkg/dirty.py",
            """
            import random

            X = random.random()
            """,
        )
        # Filtering to an unrelated rule hides the DET001 finding.
        assert analysis_main([str(tmp_path), "--rules", "DET002"]) == 0
        assert analysis_main([str(tmp_path), "--rules", "DET001"]) == 1

    def test_unknown_rule_is_usage_error(self, tmp_path):
        assert analysis_main([str(tmp_path), "--rules", "NOPE999"]) == 2

    @pytest.mark.parametrize(
        "code", ["EVT001", "WIRE001", "OBS001", "DET003", "LEDGER001", "RES001"]
    )
    def test_retired_rule_is_usage_error(self, tmp_path, capsys, code):
        assert analysis_main([str(tmp_path), "--rules", f"DET001,{code}"]) == 2
        assert code in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [
            ["--cache", "c.json"],
            ["--graph-json", "-"],
            ["--baseline", "b.json"],
            ["--write-baseline"],
            ["--since-baseline"],
        ],
    )
    def test_retired_flag_is_usage_error(self, tmp_path, flag):
        _write(tmp_path, "pkg/clean.py", "X = 1\n")
        with pytest.raises(SystemExit) as exc:
            analysis_main([str(tmp_path), *flag])
        assert exc.value.code == 2

    def test_json_output(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            "pkg/dirty.py",
            """
            import random

            X = random.random()
            """,
        )
        assert analysis_main(["--json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["code"] == "DET001"
        assert payload[0]["line"] == 4
        assert payload[0]["path"].endswith("dirty.py")

    def test_default_paths_require_repo_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert analysis_main([]) == 2
        assert "no paths" in capsys.readouterr().err

    def test_default_paths_scan_src_and_tests(self, tmp_path, monkeypatch):
        _write(tmp_path, "src/clean.py", "X = 1\n")
        _write(tmp_path, "tests/also_clean.py", "Y = 2\n")
        monkeypatch.chdir(tmp_path)
        assert analysis_main([]) == 0

    def test_module_entrypoint(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["repro.analysis", "--list-rules"])
        with warnings.catch_warnings():
            # runpy warns when re-executing an already-imported __main__.
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(SystemExit) as exc:
                runpy.run_module("repro.analysis", run_name="__main__")
        assert exc.value.code == 0
        assert "DET001" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == ["DET001", "DET002"]


class TestLiveTree:
    def test_repository_is_clean(self):
        """The acceptance gate: the shipped tree has zero findings."""
        paths = [REPO_ROOT / "src", REPO_ROOT / "tests"]
        findings = analyze_paths(paths, root=REPO_ROOT)
        assert findings == [], "\n" + "\n".join(f.render() for f in findings)
