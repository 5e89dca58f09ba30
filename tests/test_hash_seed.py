"""Runs replay bit-identically under every ``PYTHONHASHSEED``.

Three child interpreters run the same soak scenarios (chaos, overload,
Poisson/on-off traffic over a lossy reseeded link) under
``PYTHONHASHSEED`` 0, 1 and 7. Each child wraps ``random.Random.seed`` to
log every seeding made from ``src/repro`` — the call site and the seed
value — next to each scenario's outcome fingerprint. The three logs must
be identical, and every ``random.Random(`` / ``.reseed(`` call site in
``src/repro`` must appear in them, so a new site that no scenario reaches
fails here until one does.

Outcomes alone are not enough: a seed taken from set order or ``id()`` at
a site whose draws do not change what these scenarios deliver leaves
every fingerprint the same. The seed log shows it. Hash seeds differ in
which sets they reorder, so all three stay.

Run ``python -m tests.test_hash_seed`` from the repo root (with ``src`` on
``PYTHONPATH``) to print one child's log as JSON.
"""

from __future__ import annotations

import ast
import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
HASH_SEEDS = ("0", "1", "7")


def rng_sites() -> list[tuple[str, int, int]]:
    """``(path, first line, last line)`` of every ``random.Random(...)`` and
    ``.reseed(...)`` call in ``src/repro``, path relative to ``src``."""
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            constructs = (
                func.attr == "Random"
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
            )
            if constructs or func.attr == "reseed":
                end = node.end_lineno or node.lineno
                sites.append((path.relative_to(SRC).as_posix(), node.lineno, end))
    return sites


# -- the child ----------------------------------------------------------------


def _repro_frames() -> list[str]:
    """``path:line`` of every ``src/repro`` frame on the stack, innermost first."""
    frames = []
    frame = inspect.currentframe()
    prefix = str(PACKAGE) + os.sep
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename.startswith(prefix):
            rel = Path(filename).relative_to(SRC).as_posix()
            frames.append(f"{rel}:{frame.f_lineno}")
        frame = frame.f_back
    return frames


def _chaos() -> Any:
    from tests.integration.test_soak import _chaos_run

    handles, injector, coordinator, delivered = _chaos_run()
    return (
        injector.trace_digest(),
        delivered,
        [(e["at"], e["kind"]) for e in coordinator.log],
        handles.net.sim.events_processed,
    )


def _overload() -> Any:
    from repro import WellKnownService
    from tests.integration.test_soak import _overload_chaos_run

    handles, injector, victim, delivered = _overload_chaos_run()
    guard = victim.terminus.overload
    return (
        injector.trace_digest(),
        delivered,
        guard.stats,
        guard.breakers[WellKnownService.IP_DELIVERY].transitions,
        handles.net.sim.events_processed,
    )


def _poisson() -> Any:
    """Poisson and on-off flows over lossy links: one reseeded by the fault
    plan, one by :meth:`Link.set_loss`."""
    from repro import WellKnownService
    from repro.netsim import FaultInjector, FaultPlan, link_name
    from repro.netsim.workloads import OnOffSource, PoissonSource
    from repro.scenarios import metro_federation

    handles = metro_federation(n_edomains=2, sns_per_edomain=2, hosts_per_sn=1)
    net, hosts = handles.net, handles.hosts
    lossy = link_name(hosts[3].name, handles.sns[3].name)
    plan = FaultPlan(seed=3).set_loss(lossy, at=1.0, rate=0.2, seed=11)
    injector = FaultInjector(net.sim, plan).bind(net)
    injector.arm()
    hosts[1].link_to(handles.sns[1]).set_loss(0.1, seed=13)
    for i, (src, dst) in enumerate(((hosts[0], hosts[3]), (hosts[1], hosts[2]))):
        conn = src.connect(
            WellKnownService.IP_DELIVERY, dest_addr=dst.address, allow_direct=False
        )
        sink = lambda seq, size, src=src, conn=conn: src.send(conn, b"%d" % seq)
        if i == 0:
            PoissonSource(net.sim, sink, rate_pps=80, seed=5).start(duration=4.0)
        else:
            OnOffSource(net.sim, sink, rate_bps=80_000, packet_bytes=200, seed=6).start(
                duration=4.0
            )
    net.run(6.0)
    return (
        injector.trace_digest(),
        [[p.data for _, p in host.delivered] for host in hosts],
        net.sim.events_processed,
    )


SCENARIOS = {"chaos": _chaos, "overload": _overload, "poisson": _poisson}


def child_run() -> dict[str, Any]:
    """Run every scenario with ``random.Random.seed`` logged."""
    log: list[list[str]] = []
    reached: set[str] = set()
    seed = random.Random.seed

    def logged_seed(self: random.Random, a: Any = None, version: int = 2) -> None:
        frames = _repro_frames()
        if frames:
            log.append([frames[0], repr(a)])
            reached.update(frames)
        seed(self, a, version)

    random.Random.seed = logged_seed  # type: ignore[method-assign]
    try:
        outcomes = {}
        for name, scenario in SCENARIOS.items():
            log.append(["scenario", name])
            outcomes[name] = repr(scenario())
    finally:
        random.Random.seed = seed  # type: ignore[method-assign]
    return {"seeds": log, "reached": sorted(reached), "outcomes": outcomes}


# -- the test -------------------------------------------------------------------


def _first_difference(a: list, b: list) -> str:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"entry {i}: {x} vs {y}"
    return f"lengths {len(a)} vs {len(b)}"


def test_seed_log_and_outcomes_identical_under_every_hash_seed():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(ROOT)))}
    children = {
        hash_seed: subprocess.Popen(
            [sys.executable, "-m", "tests.test_hash_seed"],
            cwd=ROOT,
            env={**env, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for hash_seed in HASH_SEEDS
    }
    runs = {}
    for hash_seed, child in children.items():
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        runs[hash_seed] = json.loads(out)

    base = runs[HASH_SEEDS[0]]
    assert len(base["seeds"]) > len(SCENARIOS)
    for hash_seed, run in runs.items():
        assert run["seeds"] == base["seeds"], (
            f"seed log under PYTHONHASHSEED={hash_seed} differs from "
            f"{HASH_SEEDS[0]}'s at {_first_difference(run['seeds'], base['seeds'])}"
        )
        assert run["outcomes"] == base["outcomes"], f"PYTHONHASHSEED={hash_seed}"
        assert run["reached"] == base["reached"], f"PYTHONHASHSEED={hash_seed}"

    reached = set(base["reached"])
    missed = [
        f"{path}:{first}"
        for path, first, last in rng_sites()
        if not any(f"{path}:{line}" in reached for line in range(first, last + 1))
    ]
    assert not missed, f"RNG sites no scenario reaches: {missed}"


if __name__ == "__main__":
    print(json.dumps(child_run()))
