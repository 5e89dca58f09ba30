"""The four traffic mixes, and the seeded packet schedule of each.

A workload is data: how many connections exist before timing starts, how
big the decision caches are, and which flows a round sends on, in which
order. Everything random is drawn from one ``random.Random`` seeded with
the workload name and the ``--seed`` argument, so the program under test
only ever sees the generated packets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

#: Data packets delivered per round, on every workload.
PACKETS_PER_ROUND = 256

#: Source and destination hosts (4 x 4 host pairs), on every workload.
HOSTS_PER_SIDE = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Connections opened (FIRST packet sent and drained) during set-up.
    connections: int
    payload_bytes: int
    cache_capacity: int
    #: Timed rounds of a fixed-count run (``python -m benchmarks.perf run``).
    rounds: int
    #: Untimed rounds before timing, part of ``setup_s``.
    warmup_rounds: int
    #: Rounds of the untimed pass that samples simulated latency.
    latency_rounds: int
    #: ``draw(rng, round, n_connections) -> [flow index, ...]`` for one round
    #: of an established-connection workload; None for ``conn_churn``, whose
    #: rounds open their own connections.
    draw: "Callable[[random.Random, int, int], list[int]] | None"


def _runs_of_64(rng: random.Random, rnd: int, n: int) -> list[int]:
    """4 runs of 64 same-flow packets; flows rotate round by round."""
    flows = [(rnd * 4 + k) % n for k in range(4)]
    return [flow for flow in flows for _ in range(PACKETS_PER_ROUND // 4)]


def _round_robin(rng: random.Random, rnd: int, n: int) -> list[int]:
    """256 distinct flows, so every run has length 1."""
    start = rnd * PACKETS_PER_ROUND
    return [(start + i) % n for i in range(PACKETS_PER_ROUND)]


def _uniform(rng: random.Random, rnd: int, n: int) -> list[int]:
    return [rng.randrange(n) for _ in range(PACKETS_PER_ROUND)]


#: conn_churn: connections opened per round, and data packets on each
#: (the FIRST packet plus three more) -- 64 x 4 = 256 delivered per round.
CHURN_CONNS_PER_ROUND = 64
CHURN_PACKETS_PER_CONN = PACKETS_PER_ROUND // CHURN_CONNS_PER_ROUND


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="steady_local",
            why=(
                "8 long-lived flows in runs of 64 x 64 B: terminus work amortises "
                "over runs, so host, netsim and SN transmit dominate; smallest packet"
            ),
            connections=8,
            payload_bytes=64,
            cache_capacity=65536,
            rounds=600,
            warmup_rounds=24,
            latency_rounds=4,
            draw=_runs_of_64,
        ),
        Workload(
            name="interleaved_wide",
            why=(
                "512 warm flows round-robined so every run has length 1: most work "
                "in terminus sharding, cache probes, ILP decode, gather-seal; no slow path"
            ),
            connections=512,
            payload_bytes=64,
            cache_capacity=65536,
            rounds=600,
            warmup_rounds=8,
            latency_rounds=4,
            draw=_round_robin,
        ),
        Workload(
            name="conn_churn",
            why=(
                "64 connections opened, used and closed per round: every connection "
                "takes the slow path at every hop (ipc, execution_env, services, cache writes)"
            ),
            connections=0,
            payload_bytes=256,
            # 4096 entries fill after 64 rounds of 64 leaked entries (see the
            # README's findings), so the table is in steady state -- one
            # eviction per install -- once the 66 warm-up rounds are done.
            cache_capacity=4096,
            rounds=240,
            warmup_rounds=66,
            latency_rounds=8,
            draw=None,
        ),
        Workload(
            name="cache_thrash",
            why=(
                "2048 established flows against 512-entry caches, 1200 B: ~75% of "
                "packets miss, recompute and evict at every hop; the large-packet point"
            ),
            connections=2048,
            payload_bytes=1200,
            cache_capacity=512,
            rounds=120,
            warmup_rounds=8,
            latency_rounds=32,
            draw=_uniform,
        ),
    )
}
