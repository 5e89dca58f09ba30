"""A-IPC — ablation: IPC vs shared-memory service invocation (§6.3).

The prototype "used IPC to send and receive data from services which
obviously adds overhead ... there are well-known solutions" — i.e. shared
memory rings. This ablation measures both invocation channels on identical
work, isolating the marshalling cost that creates Table 1's no-service /
null-service gap.
"""

from __future__ import annotations

import pytest

from repro.core.ilp import ILPHeader, TLV
from repro.core.ipc import InvocationChannel, InvocationMode
from repro.core.packet import ILPPacket, L3Header, make_payload
from repro.core.service_module import Verdict

from .conftest import report

_results: list[dict] = []


def _mk_packet(payload_size: int) -> tuple[ILPHeader, ILPPacket]:
    header = ILPHeader(service_id=1, connection_id=42, tlvs={TLV.DEST_ADDR: b"192.168.0.9"})
    packet = ILPPacket(
        l3=L3Header(src="10.0.0.2", dst="10.0.0.1"),
        ilp_wire=b"\x00" * 48,
        payload=make_payload(b"z" * payload_size),
    )
    return header, packet


def _handler(header, packet):
    return Verdict.forward("10.0.0.3", header, packet.payload)


@pytest.mark.parametrize("mode", [InvocationMode.IPC, InvocationMode.SHARED_MEMORY])
@pytest.mark.parametrize("payload_size", [64, 1024])
def test_invocation_cost(benchmark, mode, payload_size):
    channel = InvocationChannel(mode)
    header, packet = _mk_packet(payload_size)
    verdict = benchmark(channel.invoke, _handler, header, packet)
    assert verdict.emits[0].peer == "10.0.0.3"
    if benchmark.stats is None:  # --benchmark-disable: no timing row
        return
    ops = benchmark.stats.stats.mean
    _results.append(
        {
            "mode": mode.value,
            "payload": payload_size,
            "mean_us": f"{ops * 1e6:.2f}",
        }
    )


def test_shm_is_faster(benchmark):
    """The headline: shared memory beats IPC by a wide margin."""
    import time

    header, packet = _mk_packet(256)

    def compare():
        timings = {}
        for mode in (InvocationMode.IPC, InvocationMode.SHARED_MEMORY):
            channel = InvocationChannel(mode)
            for _ in range(200):  # warmup
                channel.invoke(_handler, header, packet)
            start = time.perf_counter()
            for _ in range(3000):
                channel.invoke(_handler, header, packet)
            timings[mode] = time.perf_counter() - start
        return timings

    timings = benchmark.pedantic(compare, rounds=1, iterations=1)
    ratio = timings[InvocationMode.IPC] / timings[InvocationMode.SHARED_MEMORY]
    _results.append(
        {"mode": "ipc/shm ratio", "payload": 256, "mean_us": f"{ratio:.1f}x"}
    )
    assert ratio > 2.0


def teardown_module(module):
    if _results:
        report(
            "A-IPC: invocation channel ablation",
            _results,
            ["mode", "payload", "mean_us"],
        )
