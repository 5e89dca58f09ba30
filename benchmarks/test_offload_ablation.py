"""A-OFFLOAD — ablation: terminus offload vs slow-path service (§B.1).

Appendix B.1 lets services push simple match+action work (e.g. scrubbing
a flood source, metering) into the pipe-terminus. This bench measures the
same drop-everything-from-source policy executed three ways:

* slow path: every packet punts over IPC to a service that drops it;
* offload rule: the terminus drops after header decrypt — no IPC;
* decision cache: a DROP entry — the theoretical fastest.

Each runs in two arms: packets fed one at a time (bursts of one), and
64-packet bursts of the flood flow through ``receive_batch`` — the shape a
link delivery event hands the terminus, where the offload program walks
the whole cold group in one plan.

Expected shape: cache ≥ offload ≫ slow path, in both arms.
"""

from __future__ import annotations

import time

import pytest

from repro.core.decision_cache import CacheKey, Decision
from repro.core.ilp import ILPHeader
from repro.core.offload import ActionKind, Match, MatchField, OffloadAction
from repro.core.packet import ILPPacket, L3Header, make_payload
from repro.core.psp import PSPContext, pairwise_secret
from repro.core.service_node import ServiceNode
from repro.core.service_module import ServiceModule, Verdict
from repro.netsim import Simulator

from .conftest import report

SN_ADDR = "10.0.0.1"
ATTACKER = "10.0.0.66"

_results: list[dict] = []
#: Arm -> packets per ``receive_batch`` call.
ARMS = {"per-packet": 1, "burst64": 64}


class _DropService(ServiceModule):
    SERVICE_ID = 0x0B0B
    NAME = "bench-dropper"

    def handle_packet(self, header, packet) -> Verdict:
        return Verdict.drop()


def _rig(mode: str):
    sim = Simulator()
    node = ServiceNode(sim, "sn", SN_ADDR)
    node.terminus.set_transmit(lambda peer, pkts: len(pkts))
    secret = pairwise_secret(SN_ADDR, ATTACKER)
    node.keystore.establish(ATTACKER, secret)
    node.env.load(_DropService())
    if mode == "offload":
        node.terminus.offload.install_rule(
            _DropService.SERVICE_ID,
            (Match(MatchField.SRC_ADDR, ATTACKER),),
            OffloadAction(ActionKind.DROP),
        )
    elif mode == "cache":
        node.cache.install(
            CacheKey(ATTACKER, _DropService.SERVICE_ID, 7), Decision.drop()
        )
    tx = PSPContext(secret)
    header = ILPHeader(service_id=_DropService.SERVICE_ID, connection_id=7)
    wire = tx.seal(header.encode())
    payload = make_payload(b"f" * 64)

    def make_packet():
        return ILPPacket(
            l3=L3Header(src=ATTACKER, dst=SN_ADDR),
            ilp_wire=tx.seal(header.encode()),
            payload=payload,
        )

    return node, make_packet


def _measure(mode: str, n: int = 3000, burst: int = 1) -> float:
    node, make_packet = _rig(mode)
    packets = [make_packet() for _ in range(n)]
    bursts = [packets[i : i + burst] for i in range(0, n, burst)]
    receive_batch = node.terminus.receive_batch
    start = time.perf_counter()
    for chunk in bursts:
        receive_batch(chunk)
    elapsed = time.perf_counter() - start
    assert node.terminus.stats.packets_in == n
    return n / elapsed


@pytest.mark.parametrize("arm", ARMS)
@pytest.mark.parametrize("mode", ["slowpath", "offload", "cache"])
def test_drop_throughput(benchmark, mode, arm):
    pps = benchmark.pedantic(
        _measure, args=(mode, 3000, ARMS[arm]), rounds=1, iterations=1
    )
    _results.append({"mechanism": f"{mode} ({arm})", "drop PPS": f"{pps:,.0f}"})


@pytest.mark.parametrize("arm", ARMS)
def test_offload_beats_slow_path(benchmark, arm):
    burst = ARMS[arm]

    def compare():
        _measure("slowpath", 500, burst)  # warmup
        return (
            _measure("slowpath", burst=burst),
            _measure("offload", burst=burst),
            _measure("cache", burst=burst),
        )

    slow, offload, cache = benchmark.pedantic(compare, rounds=1, iterations=1)
    _results.append(
        {
            "mechanism": f"offload/slowpath speedup ({arm})",
            "drop PPS": f"{offload / slow:.1f}x",
        }
    )
    assert offload > slow * 1.5  # no IPC round trip
    assert cache > slow * 1.5


def teardown_module(module):
    if _results:
        report(
            "A-OFFLOAD: drop-policy execution point",
            _results,
            ["mechanism", "drop PPS"],
        )
