"""Conformance: the production terminus against the Figure-2 oracle.

One test body, parametrised (SNIPPETS.md #1 style) over invocation mode ×
observability arm × delivery shape × scenario. Each case feeds the same
packet sequence to a real :class:`~repro.core.service_node.ServiceNode`
terminus — as one burst, or as bursts of one — and, one packet at a time,
to :class:`tests.reference.terminus_model.ReferenceTerminus`, an
independent transcription of Figure 2 that shares no code with
``pipe_terminus`` or the offload engine. They must agree on every flow's
egress projection (next hop, header plaintext, payload, ``qos_src``, in
order), on the ``TerminusStats`` / ``CacheStats`` counters the figure
defines, on the offload programs' counters, and on how many punts crossed
the service boundary.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import pytest

from repro.core.decision_cache import Action, CacheKey, Decision, ForwardTarget
from repro.core.ilp import Flags, ILPHeader, TLV
from repro.core.ipc import InvocationMode
from repro.core.offload import ActionKind, Match, MatchField, OffloadAction
from repro.core.packet import ILPPacket, L3Header, make_payload
from repro.core.psp import PSPContext, pairwise_secret
from repro.core.service_node import ServiceNode
from repro.netsim import Simulator
from tests.property.test_terminus_batch_equivalence import (
    MISSING_SERVICE,  # neither module nor offload program
    OFFLOAD_SERVICE,  # offload rules, no module
    PEER_A,
    PEER_B,
    SN_ADDR,
    UNKNOWN_PEER,
    _DeterministicService as _Service,  # verdict = f(conn % 4), see there
)
from tests.reference.terminus_model import Meter, ReferenceTerminus, Rule, per_flow

PEERS = (PEER_A, PEER_B)
SERVICE = _Service.SERVICE_ID

#: What ``_Service`` installs for ``conn % 4 == 3``.
FANOUT = Decision(
    action=Action.FORWARD,
    targets=(
        ForwardTarget(PEER_B),
        ForwardTarget(PEER_A, tlv_updates=((TLV.DEST_SN, b"10.0.9.9"),)),
    ),
)


def _ingress(conn: int) -> str:
    """Ingress peer by conn parity, so (next hop, plaintext) names a flow."""
    return PEER_A if conn % 2 == 0 else PEER_B


@dataclass(frozen=True)
class _Spec:
    conn: int
    kind: str = "data"  # data | control | last | badauth | malformed | unknown_peer
    service_id: int = SERVICE
    payload: bytes = b"y" * 8
    src_host: bool = True


@dataclass(frozen=True)
class _Scenario:
    name: str
    specs: tuple[_Spec, ...]
    installs: tuple[tuple[int, Decision], ...] = field(default=())
    #: Offload program of SERVICE (module-backed): rules, then meters as
    #: (name, rate_bps, burst_bytes).
    program: tuple[Rule, ...] = ()
    meters: tuple[tuple[str, float, int], ...] = ()
    #: Why the one-burst arm is a known divergence (strict xfail), if it is.
    one_burst_xfail: str = ""


def _runs(conns, depth, **kw) -> tuple[_Spec, ...]:
    return tuple(_Spec(conn, **kw) for conn in conns for _ in range(depth))


def _round_robin(conns, depth, **kw) -> tuple[_Spec, ...]:
    return tuple(_Spec(conn, **kw) for _ in range(depth) for conn in conns)


def _payloads(conn, payloads) -> tuple[_Spec, ...]:
    return tuple(_Spec(conn, payload=payload) for payload in payloads)


def _interleave(*flows) -> tuple[_Spec, ...]:
    """Round-robin several flows' specs, each flow's order kept."""
    out: list[_Spec] = []
    for i in range(max(map(len, flows))):
        out += [flow[i] for flow in flows if i < len(flow)]
    return tuple(out)


_WARM = tuple((conn, Decision.forward(PEER_B)) for conn in range(4))
LONG, SHORT = b"y" * 40, b"y" * 8
#: OFFLOAD_SERVICE (no module) in every scenario: count, forward long ones.
OFFLOAD_RULES: tuple[Rule, ...] = (
    ((), ("count", "seen")),
    ((("payload_len_gt", 12),), ("forward", PEER_B)),
)
#: SERVICE's program in the programmed scenarios: long packets go to
#: PEER_A, so an offload forward and a verdict's PEER_B egress stay apart.
FORWARD_LONG: tuple[Rule, ...] = (
    ((("payload_len_gt", make_payload(SHORT).wire_size),), ("forward", PEER_A)),
)
#: Admits exactly two LONG packets at one instant (no refill at t = 0).
METER_BURST = 2 * make_payload(LONG).wire_size

SCENARIOS = (
    _Scenario("warm_flow_local", _runs(range(4), 4), _WARM),
    _Scenario("fully_interleaved", _round_robin(range(4), 4), _WARM),
    _Scenario("cold_storm", _round_robin(range(8), 3)),
    _Scenario(
        "barrier_mid_burst",
        _runs([1], 2)
        + (_Spec(1, "control"),)
        + _runs([5], 2)
        + (_Spec(5, "last"),)
        + _round_robin([5, 1], 2),
        ((1, Decision.forward(PEER_B)),),
    ),
    _Scenario(
        "offload_programmed",
        _round_robin([0, 1], 2, service_id=OFFLOAD_SERVICE, payload=b"y" * 40)
        + _runs([2], 2, service_id=OFFLOAD_SERVICE)  # 16 B on the wire: forwarded
        + _runs([1], 3),
    ),
    # The program forwards conn 1's long packets and passes the first short
    # one on; its verdict installs, so the rest of the group hits (conn 5
    # shares the span with a lead that installs at once).
    _Scenario(
        "programmed_lead_installs",
        _interleave(
            _payloads(1, [LONG, LONG, SHORT, LONG, SHORT]), _payloads(5, [SHORT, LONG])
        ),
        program=FORWARD_LONG,
    ),
    # The same, but conn 2's verdict installs nothing: its followers go back
    # through the program, long ones forwarded, short ones punted.
    _Scenario(
        "programmed_lead_installs_nothing",
        _interleave(
            _payloads(2, [LONG, SHORT, LONG, SHORT, LONG]), _payloads(1, [SHORT, LONG])
        ),
        program=FORWARD_LONG,
    ),
    # The program resolves every packet of both groups: no punt, no batch.
    _Scenario(
        "program_resolves_groups",
        _round_robin([1, 2], 3, payload=LONG),
        program=FORWARD_LONG,
    ),
    # One metered flow: the meter admits 2 of 5 packets at one instant, the
    # admitted ones fall through to the forward rule, the rest drop.
    _Scenario(
        "meter_admits_k_of_n",
        _runs([1], 5, payload=LONG),
        program=(((), ("meter", "m")),) + FORWARD_LONG,
        meters=(("m", 8.0, METER_BURST),),
    ),
    # One connection, two plaintexts (with and without SRC_HOST): two flow
    # groups under one cache key. In one burst the second group drains off
    # the first group's lead install, so its LONG packet, which arrived
    # before that lead, hits the cache instead of meeting the program.
    _Scenario(
        "one_connection_two_plaintexts",
        (
            _Spec(1, payload=LONG),
            _Spec(1, payload=LONG, src_host=False),
            _Spec(1, payload=SHORT),
            _Spec(1, payload=SHORT, src_host=False),
        ),
        program=FORWARD_LONG,
        one_burst_xfail="ROADMAP item 24: the burst shards on header plaintext, "
        "the cache keys on the connection",
    ),
    _Scenario(
        "fanout_with_rewrite",
        _round_robin([3, 0], 4) + _runs([7], 3),  # conn 7 installs FANOUT cold
        ((3, FANOUT), (0, Decision.forward(PEER_B))),
    ),
    _Scenario(
        "missing_service",
        _round_robin([0, 1], 3, service_id=MISSING_SERVICE) + _runs([0], 2),
        ((0, Decision.forward(PEER_B)),),
    ),
    _Scenario(
        "bad_input",
        (
            _Spec(0),
            _Spec(0, "badauth"),
            _Spec(0),
            _Spec(1, "malformed"),
            _Spec(1, "unknown_peer"),
            _Spec(1),
            _Spec(1, "badauth"),
            _Spec(1),
        ),
        _WARM,
    ),
)

OBS_ARMS: dict[str, Optional[int]] = {"obs_off": None, "quiet": 0, "sampled": 3}


def _program_offload(engine, scenario: _Scenario) -> None:
    """Install the scenario's programs, spelled in the oracle's terms, into
    the production engine."""
    for name, rate, burst in scenario.meters:
        engine.provision_meter(SERVICE, name, rate, burst)
    for service_id, rules in ((OFFLOAD_SERVICE, OFFLOAD_RULES), (SERVICE, scenario.program)):
        for matches, (kind, operand) in rules:
            engine.install_rule(
                service_id,
                tuple(Match(MatchField(f), o) for f, o in matches),
                OffloadAction(ActionKind(kind), operand),
            )


def _build(spec: _Spec, tx: dict[str, PSPContext]) -> ILPPacket:
    flags = {"control": Flags.CONTROL, "last": Flags.LAST}.get(spec.kind, Flags.NONE)
    tlvs = {TLV.SRC_HOST: b"192.168.0.12"} if spec.src_host else None
    header = ILPHeader(spec.service_id, spec.conn, flags, tlvs)
    peer = _ingress(spec.conn)
    wire = tx[peer].seal(b"\x01\x02" if spec.kind == "malformed" else header.encode())
    if spec.kind == "badauth":
        wire = wire[:-1] + bytes([wire[-1] ^ 0x01])
    return ILPPacket(
        l3=L3Header(src=UNKNOWN_PEER if spec.kind == "unknown_peer" else peer, dst=SN_ADDR),
        ilp_wire=wire,
        payload=make_payload(spec.payload),
    )


def _packets(scenario: _Scenario) -> list[ILPPacket]:
    tx = {peer: PSPContext(pairwise_secret(SN_ADDR, peer)) for peer in PEERS}
    return [_build(spec, tx) for spec in scenario.specs]


def _production(scenario, mode, sample_every, deliver: Callable):
    node = ServiceNode(Simulator(), "sn", SN_ADDR, invocation_mode=mode)
    sent: list[tuple[str, ILPPacket]] = []
    node.terminus.set_transmit(
        lambda peer, pkts: sent.extend((peer, p) for p in pkts) or len(pkts)
    )
    for peer in PEERS:
        node.keystore.establish(peer, pairwise_secret(SN_ADDR, peer))
    node.env.load(_Service())
    _program_offload(node.terminus.offload, scenario)
    if sample_every is not None:
        node.enable_observability(sample_every=sample_every, capacity=1024)
    for conn, decision in scenario.installs:
        node.cache.install(CacheKey(_ingress(conn), SERVICE, conn), decision)
    deliver(node.terminus, _packets(scenario))
    opener = {peer: PSPContext(pairwise_secret(SN_ADDR, peer)) for peer in PEERS}
    out = [
        (peer, opener[peer].open(pkt.ilp_wire), pkt.payload.data, pkt.qos_src)
        for peer, pkt in sent
    ]
    counters = {
        (service_id, name): n
        for service_id, program in node.terminus.offload.stats().items()
        for name, n in program["counters"].items()
    }
    return (
        per_flow(out),
        asdict(node.terminus.stats),
        asdict(node.cache.stats),
        counters,
        node.terminus.channel.stats,
    )


def _reference(scenario) -> ReferenceTerminus:
    model = ReferenceTerminus(
        {peer: pairwise_secret(SN_ADDR, peer) for peer in PEERS},
        {SERVICE: _Service()},
        {OFFLOAD_SERVICE: list(OFFLOAD_RULES), SERVICE: list(scenario.program)},
        {(SERVICE, name): Meter(rate, burst) for name, rate, burst in scenario.meters},
    )
    for conn, decision in scenario.installs:
        model.install((_ingress(conn), SERVICE, conn), decision)
    for packet in _packets(scenario):
        model.receive(packet)
    return model


def _one_burst(terminus, packets) -> None:
    assert terminus.receive_batch(packets) == len(packets)


def _bursts_of_one(terminus, packets) -> None:
    for packet in packets:
        terminus.receive(packet)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
@pytest.mark.parametrize("deliver", [_one_burst, _bursts_of_one], ids=lambda f: f.__name__[1:])
@pytest.mark.parametrize("obs_arm", sorted(OBS_ARMS))
@pytest.mark.parametrize("mode", list(InvocationMode), ids=lambda m: m.value)
def test_production_terminus_conforms_to_figure_2(request, mode, obs_arm, deliver, scenario):
    if scenario.one_burst_xfail and deliver is _one_burst:
        request.applymarker(pytest.mark.xfail(strict=True, reason=scenario.one_burst_xfail))
    flows, stats, cache_stats, counters, channel = _production(
        scenario, mode, OBS_ARMS[obs_arm], deliver
    )
    model = _reference(scenario)
    assert flows == model.per_flow()
    # Every TerminusStats field is a Figure-2 outcome the model counts
    # (overload-only fields stay zero on both sides).
    assert stats == {name: model.stats[name] for name in stats}
    for name in ("lookups", "hits", "misses", "installs"):
        assert cache_stats[name] == model.cache_stats[name], name
    assert cache_stats["evictions"] == 0  # the oracle's table is unbounded
    assert counters == dict(model.counters)
    # Every punt to a loaded service crossed once, and nothing else did.
    crossed = model.stats["punts"] - model.stats["drops_no_service"]
    assert channel.invocations == crossed
    assert (channel.batches == 0) == (crossed == 0)
