"""A-CACHE — ablation: decision-cache size vs datapath throughput.

Appendix B allows arbitrary eviction so the cache can be small; this
ablation quantifies the cost of that freedom. We drive F flows through a
terminus whose cache holds C entries, C/F ∈ {2.0, 1.0, 0.5, 0.1, 0}, and
report packets/sec plus hit rate. Expected shape: throughput degrades
smoothly as the working set exceeds capacity (falling toward the
null-service floor), and correctness never does — every packet still
arrives.
"""

from __future__ import annotations

import pytest

from repro.core.decision_cache import CacheKey, Decision
from repro.core.ilp import ILPHeader, TLV
from repro.core.packet import ILPPacket, L3Header, make_payload
from repro.core.psp import PSPContext, pairwise_secret
from repro.core.service_node import ServiceNode
from repro.core.service_module import ServiceModule, Verdict
from repro.netsim import Simulator

from .conftest import report

SN_ADDR = "10.0.0.1"
INGRESS = "10.0.0.2"
EGRESS = "10.0.0.3"

_results: list[dict] = []


class _InstallingService(ServiceModule):
    """Forwards and installs — the IPDelivery pattern, minimal form."""

    SERVICE_ID = 0x0002
    NAME = "bench-delivery"

    def handle_packet(self, header: ILPHeader, packet) -> Verdict:
        verdict = Verdict.forward(EGRESS, header, packet.payload)
        verdict.installs.append(
            (
                CacheKey(packet.l3.src, self.SERVICE_ID, header.connection_id),
                Decision.forward(EGRESS),
            )
        )
        return verdict


def _make_rig(cache_capacity: int):
    sim = Simulator()
    node = ServiceNode(sim, "sn", SN_ADDR, cache_capacity=max(1, cache_capacity))
    delivered = []
    node.terminus.set_transmit(
        lambda peer, pkts: delivered.extend([peer] * len(pkts)) or len(pkts)
    )
    secret = pairwise_secret(SN_ADDR, INGRESS)
    node.keystore.establish(INGRESS, secret)
    node.keystore.establish(EGRESS, pairwise_secret(SN_ADDR, EGRESS))
    node.env.load(_InstallingService())
    if cache_capacity == 0:
        # "No cache": evict everything after each install via capacity 1
        # plus forced eviction in the driver.
        pass
    return node, PSPContext(secret), delivered


def _drive(node, tx_ctx, n_flows: int, packets_per_flow: int, flush: bool):
    payload = make_payload(b"y" * 64)
    count = 0
    for round_i in range(packets_per_flow):
        for flow in range(n_flows):
            header = ILPHeader(
                service_id=0x0002, connection_id=flow, tlvs={TLV.DEST_ADDR: b"192.168.0.9"}
            )
            pkt = ILPPacket(
                l3=L3Header(src=INGRESS, dst=SN_ADDR),
                ilp_wire=tx_ctx.seal(header.encode()),
                payload=payload,
            )
            node.terminus.receive(pkt)
            count += 1
            if flush:
                node.cache.evict_random_fraction(1.0)
    return count


@pytest.mark.parametrize(
    "label,capacity_ratio",
    [
        ("2.0x", 2.0),
        ("1.0x", 1.0),
        ("0.5x", 0.5),
        ("0.1x", 0.1),
        ("none", 0.0),
    ],
)
def test_cache_capacity_sweep(benchmark, label, capacity_ratio):
    n_flows = 200
    capacity = int(n_flows * capacity_ratio)
    node, tx_ctx, delivered = _make_rig(capacity or 1)
    flush = capacity_ratio == 0.0

    count = benchmark.pedantic(
        _drive,
        args=(node, tx_ctx, n_flows, 10, flush),
        rounds=1,
        iterations=1,
    )
    stats = node.terminus.stats
    total = stats.fast_path + stats.punts
    # Correctness: every packet was forwarded regardless of cache pressure.
    assert len(delivered) == count
    _results.append(
        {
            "capacity/flows": label,
            "hit_rate": f"{node.cache.stats.hit_rate:.2f}",
            "fast_path": stats.fast_path,
            "punts": stats.punts,
        }
    )
    if capacity_ratio >= 1.0:
        # Ample cache: only first packet per flow punts.
        assert stats.punts == n_flows
    if flush:
        assert stats.fast_path == 0


def test_lru_beats_random_under_skew(benchmark):
    """Zipf-ish skew: LRU keeps the hot flows resident."""
    import random as random_mod

    from repro.core.decision_cache import DecisionCache, EvictionPolicy

    rng = random_mod.Random(7)
    flows = [int(rng.paretovariate(1.2)) % 500 for _ in range(20_000)]

    def run(policy):
        cache = DecisionCache(capacity=50, policy=policy)
        for flow in flows:
            key = CacheKey("10.0.0.2", 1, flow)
            if cache.lookup(key) is None:
                cache.install(key, Decision.drop())
        return cache.stats.hit_rate

    def both():
        return run(EvictionPolicy.LRU), run(EvictionPolicy.RANDOM)

    lru_rate, random_rate = benchmark.pedantic(both, rounds=1, iterations=1)
    _results.append(
        {
            "capacity/flows": "LRU-vs-RANDOM(skewed)",
            "hit_rate": f"{lru_rate:.2f} vs {random_rate:.2f}",
            "fast_path": "-",
            "punts": "-",
        }
    )
    assert lru_rate >= random_rate - 0.02


def teardown_module(module):
    if _results:
        report(
            "A-CACHE: decision-cache capacity ablation",
            _results,
            ["capacity/flows", "hit_rate", "fast_path", "punts"],
        )
