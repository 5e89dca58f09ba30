"""Analysis-runtime budget: the whole-tree cold run must stay fast.

CI runs the full analysis (all per-module rules plus the whole-program
symbol-table pass) in the lint job on every push, uncached; if it creeps
past a few seconds it will get skipped or resented. The budget is
deliberately generous — an order of magnitude above the current cost —
so it only trips on real regressions (accidentally quadratic
resolution), not on CI jitter.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis import analyze_paths

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Wall-clock ceiling for one cold whole-tree run, in seconds.
COLD_RUN_BUDGET = 10.0


def test_cold_whole_tree_run_within_budget():
    paths = [REPO_ROOT / "src", REPO_ROOT / "tests"]
    start = time.perf_counter()
    analyze_paths(paths, root=REPO_ROOT)
    elapsed = time.perf_counter() - start
    assert elapsed < COLD_RUN_BUDGET, (
        f"cold whole-tree analysis took {elapsed:.2f}s "
        f"(budget {COLD_RUN_BUDGET}s); profile the symbol-table pass before "
        "raising the budget"
    )
