"""Self-test of the perf harness (not under ``testpaths``; run it by name).

    PYTHONPATH=src python -m pytest benchmarks/perf/test_harness.py -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.perf.harness import Bench, tail_percentile
from benchmarks.perf.runner import ROOT, load_contract
from benchmarks.perf.sets import verdict
from benchmarks.perf.trace import SPAN_WIDTH, Budget, self_times
from benchmarks.perf.workloads import WORKLOADS

CONTRACT = load_contract()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    command = [sys.executable if arg == "python3" else arg for arg in CONTRACT["command"]]
    return subprocess.run(
        [*command, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_contract_names_and_workloads() -> None:
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += [w["name"] for w in CONTRACT["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    declared = {w["name"]: w["why"] for w in CONTRACT["workloads"]}
    assert declared == {w.name: w.why for w in WORKLOADS.values()}
    assert any(m["name"] == "setup_s" for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_declared_metric(workload: str, trace: int) -> None:
    proc = run_cli("--workload", workload, "--seed", "1", "--rounds", "2", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
    if not trace:
        assert all(got["value"] > 0 for got in result["metrics"].values())
        assert result["metrics"]["delivery_ratio"]["value"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in CONTRACT["paths"]:
        shutil.copytree(
            ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("out", "__pycache__")
        )
    proc = run_cli(
        "--workload", "steady_local", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_is_duration_minus_children() -> None:
    # (name id, start, end, parent row, round)
    rows = [
        (0, 0, 100, -1, 0),  # root: children cover 10..40 and 50..90
        (1, 10, 40, 0, 0),  # child with one grandchild
        (2, 15, 25, 1, 0),
        (1, 50, 90, 0, 0),  # child without children
        (0, 200, 230, -1, 1),  # second root, one child
        (2, 205, 230, 4, 1),
    ]
    flat = [
        value
        for nid, start, end, parent, rnd in rows
        for value in (nid, start, end, parent * SPAN_WIDTH if parent >= 0 else -1, rnd)
    ]
    own = self_times(flat)
    assert own == [30, 20, 10, 40, 5, 25]
    roots = sum(end - start for _, start, end, parent, _ in rows if parent < 0)
    assert sum(own) == roots == 130
    budget = Budget(flat, ["federation", "host.send", "psp.seal"])
    assert budget.wall_ns == 130 and budget.residual_ns == 0
    assert budget.self_ns["federation"] == 35 and budget.calls["host.send"] == 2


def test_tail_percentile_keeps_ten_samples_beyond() -> None:
    assert [tail_percentile(n) for n in (600, 600, 240, 120)] == [98, 98, 95, 90]
    assert tail_percentile(12) == 50


@pytest.fixture()
def driven_round() -> tuple[Bench, list]:
    """A bench whose sinks hold one round's deliveries, not yet checked."""
    bench = Bench(replace(WORKLOADS["steady_local"], warmup_rounds=0), seed=7)
    phases = bench.generate_round(0)
    bench.drive(phases)
    return bench, phases[0][1]


def busiest_sink(bench: Bench):
    return max(bench.topo.sinks, key=lambda host: len(host.delivered))


def test_checker_accepts_an_untouched_round(driven_round) -> None:
    bench, sent = driven_round
    bench.checker.check_round(sent, bench.topo.sinks)
    assert bench.checker.violations == [] and bench.checker.failed == 0


def test_checker_catches_a_corrupted_payload(driven_round) -> None:
    bench, sent = driven_round
    _header, payload = busiest_sink(bench).delivered[5]
    payload.data = payload.data[:-1] + bytes([payload.data[-1] ^ 0xFF])
    bench.checker.check_round(sent, bench.topo.sinks)
    assert bench.checker.failed >= 1
    assert any("corrupt" in v for v in bench.checker.violations)


def test_checker_catches_reordered_delivery(driven_round) -> None:
    bench, sent = driven_round
    delivered = busiest_sink(bench).delivered
    assert delivered[0][0].connection_id == delivered[1][0].connection_id
    delivered[0], delivered[1] = delivered[1], delivered[0]
    bench.checker.check_round(sent, bench.topo.sinks)
    assert bench.checker.failed >= 1
    assert any("out of order" in v for v in bench.checker.violations)


def test_checker_catches_duplicates_and_misdelivery(driven_round) -> None:
    bench, sent = driven_round
    sink = busiest_sink(bench)
    other = next(host for host in bench.topo.sinks if host is not sink)
    other.delivered.append(sink.delivered.pop())
    sink.delivered.append(sink.delivered[-1])
    bench.checker.check_round(sent, bench.topo.sinks)
    text = " ".join(bench.checker.violations)
    assert "meant for" in text and "not delivered" in text
    assert bench.checker.failed >= 1


def test_compare_verdicts() -> None:
    def stats(lo: float, med: float, hi: float) -> dict[str, float]:
        return {"min": lo, "median": med, "max": hi}

    base = stats(99, 100, 101)
    assert verdict(base, stats(99.5, 100.5, 101.5), "lower", 0.08)[1] == "within"
    assert verdict(base, stats(119, 120, 121), "lower", 0.08) == (1.2, "worse")
    assert verdict(base, stats(119, 120, 121), "higher", 0.08)[1] == "better"
    # Ranges that overlap by more than the bound cannot resolve it.
    assert verdict(stats(80, 100, 120), stats(85, 105, 125), "lower", 0.08)[1] == "unresolved"
    # Deterministic metrics: equal points are within even a zero bound.
    assert verdict(stats(1, 1, 1), stats(1, 1, 1), "higher", 0.0)[1] == "within"
