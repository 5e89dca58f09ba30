"""Starting workload runs in child interpreters, and reading their results."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
#: A child is one workload run; the longest takes well under a minute here.
CHILD_TIMEOUT_S = 170

class HarnessFailure(Exception):
    """The harness could not produce a result (as opposed to a bad result)."""


def load_contract() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract: dict[str, Any] = json.load(fh)
    return contract


def check_environment() -> None:
    """Refuse to measure a program that is not the one in this checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise HarnessFailure(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    for flag in ("REPRO_OBS", "REPRO_SANITIZE"):
        if os.environ.get(flag):
            raise HarnessFailure(f"{flag} is set; the benchmark measures the unarmed datapath")


def run_child(
    workload: str,
    seed: int,
    *,
    trace: bool,
    seconds: Optional[float] = None,
    rounds: Optional[int] = None,
) -> dict[str, Any]:
    """One workload run in a fresh interpreter; returns its full result."""
    argv = [
        sys.executable, "-m", "benchmarks.perf", "child",
        "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
    ]  # fmt: skip
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    if rounds is not None:
        argv += ["--rounds", str(rounds)]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessFailure(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise HarnessFailure(f"{workload}: child exited {proc.returncode}\n{proc.stderr}")
    result: dict[str, Any] = json.loads(proc.stdout.splitlines()[-1])
    return result


def contract_line(result: dict[str, Any], trace: bool, contract: dict[str, Any]) -> str:
    """The one JSON object the benchmark contract asks for."""
    declared = contract["per_layer" if trace else "end_to_end"]
    values = result["layers" if trace else "e2e"]
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
            },
        }
    )
