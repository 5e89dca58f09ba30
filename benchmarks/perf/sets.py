"""Benchmark sets (3 runs per workload plus a traced pass), history, compare."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

from .runner import HERE, ROOT, run_child

PASSES = 3
HISTORY = HERE / "history.jsonl"
#: ``setup_s`` may move by this much (seconds) whatever its relative bound says.
SETUP_FLOOR_S = 0.05
#: Taken from the timed runs, not the (eight times shorter) traced pass.
FROM_TIMED_RUNS = (
    "federation.round_cost_us_p50",
    "federation.round_cost_us_tail",
    "federation.calib_us_per_op",
)
#: End-to-end metrics that depend only on the seed, never on the machine.
DETERMINISTIC = ("delivery_ratio", "sim_latency_us_p50", "sim_latency_us_p99")


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )  # fmt: skip
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def summarise(runs: list[dict[str, Any]], traced: dict[str, Any]) -> dict[str, Any]:
    """Median/min/max of the timed runs, per-layer rows of the traced pass."""
    e2e = {}
    for name in runs[0]["e2e"]:
        values = [run["e2e"][name] for run in runs]
        e2e[name] = {
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "values": values,
        }
    layers = dict(traced["layers"])
    for name in FROM_TIMED_RUNS:
        layers[name] = statistics.median(run["layers"][name] for run in runs)
    return {
        "e2e": e2e,
        "layers": layers,
        "budget_us_per_pkt": traced["budget_us_per_pkt"],
        "rounds": runs[0]["rounds"],
        "tail_pct": runs[0]["tail_pct"],
        "fate": runs[0]["fate"],
    }


def set_failures(name: str, runs: list[dict[str, Any]], traced: dict[str, Any]) -> list[str]:
    """Checker violations and determinism mismatches: harness failures, not noise."""
    out = []
    for i, run in enumerate([*runs, traced]):
        out += [f"{name} run {i}: {violation}" for violation in run["violations"]]
    for i, run in enumerate(runs[1:], start=1):
        if run["fate"] != runs[0]["fate"]:
            out.append(f"{name}: fate counters of run {i} differ from run 0")
        for metric in DETERMINISTIC:
            if run["e2e"][metric] != runs[0]["e2e"][metric]:
                out.append(f"{name}: {metric} of run {i} differs from run 0")
    return out


def print_set(summary: dict[str, Any], contract: dict[str, Any]) -> None:
    for name, data in summary.items():
        print(f"\n== {name}: {data['rounds']} timed rounds x {PASSES} runs ==")
        for metric in contract["end_to_end"]:
            stats = data["e2e"][metric["name"]]
            print(
                f"{metric['name']:38s} {stats['median']:14.4f} {metric['unit']:7s}"
                f" [{stats['min']:.4f}, {stats['max']:.4f}]"
            )
        for metric in contract["per_layer"]:
            value = data["layers"][metric["name"]]
            note = f" (p{data['tail_pct']})" if metric["name"].endswith("_tail") else ""
            print(f"{metric['name']:38s} {value:14.4f} {metric['unit']}{note}")
        budget = data["budget_us_per_pkt"]
        total = sum(budget.values())
        print(f"-- traced budget, us per delivered packet (sums to {total:.2f}) --")
        for bucket, value in budget.items():
            print(f"   {bucket:24s} {value:9.3f}  {100 * value / total:5.1f}%")
        top = sorted((b for b in budget if b != "federation"), key=budget.__getitem__)[-2:]
        print(f"   top two layers: {top[1]}, {top[0]}")


def append_history(summary: dict[str, Any], header: dict[str, Any]) -> None:
    with open(HISTORY, "a", encoding="utf-8") as fh:
        for name, data in summary.items():
            line = dict(header, workload=name)
            line.update({metric: stats["median"] for metric, stats in data["e2e"].items()})
            line["federation.calib_us_per_op"] = data["layers"]["federation.calib_us_per_op"]
            fh.write(json.dumps(line) + "\n")


def run_set(seed: int, rounds: Optional[int], out: Path, contract: dict[str, Any]) -> int:
    names = [w["name"] for w in contract["workloads"]]
    runs: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    for i in range(PASSES):
        # Rotate the order so no workload always runs on a warm (or cold) box.
        for name in names[i:] + names[:i]:
            print(f"pass {i + 1}/{PASSES}: {name}", file=sys.stderr)
            runs[name].append(run_child(name, seed, trace=False, rounds=rounds))
    traced = {}
    for name in names:
        print(f"traced pass: {name}", file=sys.stderr)
        traced[name] = run_child(name, seed, trace=True, rounds=rounds)

    summary = {name: summarise(runs[name], traced[name]) for name in names}
    failures = [f for name in names for f in set_failures(name, runs[name], traced[name])]
    header = {
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": _commit(),
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print_set(summary, contract)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(dict(header, workloads=summary, failures=failures), fh, indent=1)
    print(f"\nset written to {out}")
    if rounds is None:
        append_history(summary, header)
        print(f"history appended to {HISTORY}")
    for failure in failures:
        print(f"FAILURE {failure}")
    return 1 if failures else 0


# -- compare ----------------------------------------------------------------
def verdict(
    a: dict[str, float], b: dict[str, float], better: str, bound: float
) -> tuple[float, str]:
    """Judge set B against set A on one metric.

    Returns (B's median as a ratio of A's, verdict). ``unresolved`` means the
    two sets' [min, max] ranges overlap by more than the bound: the runs
    scatter more than the difference the bound is meant to catch.
    """
    base = a["median"]
    ratio = b["median"] / base
    overlap = min(a["max"], b["max"]) - max(a["min"], b["min"])
    if overlap > bound * abs(base):
        return ratio, "unresolved"
    worse_by = (ratio - 1) if better == "lower" else (1 - ratio)
    if worse_by > bound:
        return ratio, "worse"
    if worse_by < -bound:
        return ratio, "better"
    return ratio, "within"


def compare_main(path_a: Path, path_b: Path, contract: dict[str, Any]) -> int:
    with open(path_a, encoding="utf-8") as fh:
        set_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        set_b = json.load(fh)
    print(f"A = {path_a} ({set_a['commit']}, seed {set_a['seed']})")
    print(f"B = {path_b} ({set_b['commit']}, seed {set_b['seed']})")
    print(
        f"{'workload':17s} {'metric':19s} {'A median [min, max]':>36s} "
        f"{'B median [min, max]':>36s}  B/A (base A)       bound  verdict"
    )
    bad = 0
    for workload in contract["workloads"]:
        name = workload["name"]
        for metric in contract["end_to_end"]:
            a = set_a["workloads"][name]["e2e"][metric["name"]]
            b = set_b["workloads"][name]["e2e"][metric["name"]]
            bound = metric["bound"]
            if metric["name"] == "setup_s":
                bound = max(bound, SETUP_FLOOR_S / a["median"])
            ratio, word = verdict(a, b, metric["better"], bound)
            bad += word in ("worse", "unresolved")

            def cell(s: dict[str, float]) -> str:
                return f"{s['median']:.4f} [{s['min']:.4f}, {s['max']:.4f}]"

            print(
                f"{name:17s} {metric['name']:19s} {cell(a):>36s} {cell(b):>36s}  "
                f"{ratio:.4f} of {a['median']:<10.4f} {bound:5.3f}  {word}"
            )
    for which, data in (("A", set_a), ("B", set_b)):
        for failure in data["failures"]:
            print(f"FAILURE in {which}: {failure}")
            bad += 1
    return 1 if bad else 0
