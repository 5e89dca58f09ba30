"""Properties of the IPC frame codec (``repro.core.ipc``).

* ``decode(encode(x)) == x`` for request frames (punts) and response
  frames (``None`` / verdicts), whether an emit crosses in full or as a
  back-reference.
* A back-referenced header / payload resolves to the caller's own object.
* Decoder robustness (ROADMAP 3b): truncated, extended and bit-flipped
  frames raise only ``IPCError`` / ``ILPError`` / ``PacketError``.
* The boundary carries no deadline and no timeout: request kind 2, punt
  flag ``0x04`` and result tag 1 are refused with ``IPCError``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.decision_cache import Action, CacheKey, Decision, ForwardTarget
from repro.core.ilp import ILPError, ILPHeader
from repro.core.ipc import (
    IPCError,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.core.packet import ILPPacket, L3Header, L4Header, PacketError, Payload
from repro.core.service_module import Emit, Verdict

TYPED_ERRORS = (IPCError, ILPError, PacketError)

addresses = st.ip_addresses(v=4).map(str)
u8 = st.integers(min_value=0, max_value=0xFF)
u16 = st.integers(min_value=0, max_value=0xFFFF)
u64 = st.integers(min_value=0, max_value=2**64 - 1)
seconds = st.floats(allow_nan=False)

headers = st.builds(
    ILPHeader,
    service_id=u16,
    connection_id=u64,
    flags=u8,
    tlvs=st.dictionaries(u8, st.binary(max_size=40), max_size=4),
)
payloads = st.builds(
    Payload,
    l4=st.none() | st.builds(L4Header, sport=u16, dport=u16, proto=u8),
    data=st.binary(max_size=200),
)
packets = st.builds(
    ILPPacket,
    l3=st.builds(
        L3Header,
        src=addresses,
        dst=addresses,
        proto=u8,
        ttl=st.integers(min_value=1, max_value=255),
    ),
    ilp_wire=st.binary(max_size=80),
    payload=payloads,
    packet_id=u64,
    created_at=seconds,
    qos_src=st.none() | addresses,
)
punt_lists = st.lists(st.tuples(headers, packets), max_size=5)

targets = st.builds(
    ForwardTarget,
    peer=addresses,
    tlv_updates=st.lists(
        st.tuples(u8, st.binary(max_size=20)), max_size=3
    ).map(tuple),
)
decisions = st.just(Decision.drop()) | st.builds(
    Decision,
    action=st.just(Action.FORWARD),
    targets=st.lists(targets, min_size=1, max_size=3).map(tuple),
)
installs = st.lists(
    st.tuples(
        st.builds(CacheKey, src=addresses, service_id=u16, connection_id=u64),
        decisions,
    ),
    max_size=3,
)
#: An emit before it is bound to a punt: ``None`` for header / payload
#: means "hand back what the punt carried" (the descriptor-return case).
emit_plans = st.lists(
    st.tuples(addresses, st.none() | headers, st.none() | payloads), max_size=3
)
result_plans = st.none() | st.tuples(emit_plans, installs, st.booleans())


@st.composite
def exchanges(draw):
    """A request plus one result plan per punt."""
    punts = draw(punt_lists)
    plans = draw(st.lists(result_plans, min_size=len(punts), max_size=len(punts)))
    return punts, plans


def _bind(plan, header, packet):
    """The result a handler holding ``(header, packet)`` returns for ``plan``."""
    if not isinstance(plan, tuple):
        return plan
    emit_plan, install_list, dropped = plan
    emits = [
        Emit(
            peer,
            header if own_header is None else own_header,
            packet.payload if own_payload is None else own_payload,
        )
        for peer, own_header, own_payload in emit_plan
    ]
    return Verdict(emits, list(install_list), dropped)


def _response_for(punts, plans):
    rx_punts, refs = decode_request(encode_request(punts))
    results = [_bind(plan, *punt) for plan, punt in zip(plans, rx_punts)]
    return encode_response(results, refs), results


@settings(max_examples=200, deadline=None)
@given(punt_lists)
def test_request_round_trip(punts):
    rx_punts, refs = decode_request(encode_request(punts))
    assert rx_punts == punts
    assert [wire for wire, *_rest in refs] == [h.encode() for h, _p in punts]
    for (rx_header, rx_packet), (header, packet) in zip(rx_punts, punts):
        assert rx_header is not header
        assert rx_packet is not packet
        assert rx_packet.payload is not packet.payload


@settings(max_examples=200, deadline=None)
@given(exchanges())
def test_response_round_trip(exchange):
    punts, plans = exchange
    frame, sent = _response_for(punts, plans)
    results = decode_response(frame, punts)
    assert results == sent
    for result, plan, (header, packet) in zip(results, plans, punts):
        if not isinstance(plan, tuple):
            continue
        for emit, (_peer, own_header, own_payload) in zip(result.emits, plan[0]):
            # Handed back untouched -> the caller's own object; anything
            # else is a copy (equal by value, checked above).
            if own_header is None:
                assert emit.header is header
            if own_payload is None:
                assert emit.payload is packet.payload
            else:
                assert emit.payload is not own_payload


def _mutations(draw, frame: bytes) -> tuple[str, bytes]:
    kind = draw(st.sampled_from(("truncate", "extend", "flip")))
    if kind == "truncate":
        return kind, frame[: draw(st.integers(0, len(frame) - 1))]
    if kind == "extend":
        return kind, frame + draw(st.binary(min_size=1, max_size=16))
    bit = draw(st.integers(0, len(frame) * 8 - 1))
    flipped = bytearray(frame)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return kind, bytes(flipped)


@st.composite
def mutated_requests(draw):
    return _mutations(draw, encode_request(draw(punt_lists)))


@st.composite
def mutated_responses(draw):
    punts, plans = draw(exchanges())
    frame, _sent = _response_for(punts, plans)
    return punts, _mutations(draw, frame)


def _decode_or_typed_error(kind, decode) -> None:
    """Truncated / extended frames must be refused; a bit flip may still
    parse. Whatever is raised must be one of the typed errors — anything
    else (``struct.error``, ``IndexError``, ``UnicodeDecodeError``...)
    propagates and fails the test."""
    if kind == "flip":
        try:
            decode()
        except TYPED_ERRORS:
            pass
    else:
        with pytest.raises(TYPED_ERRORS):
            decode()


@settings(max_examples=500, deadline=None)
@given(mutated_requests())
def test_request_decoder_raises_only_typed_errors(mutated):
    kind, frame = mutated
    _decode_or_typed_error(kind, lambda: decode_request(frame))


@settings(max_examples=500, deadline=None)
@given(mutated_responses())
def test_response_decoder_raises_only_typed_errors(mutated):
    punts, (kind, frame) = mutated
    _decode_or_typed_error(kind, lambda: decode_response(frame, punts))


@settings(max_examples=100, deadline=None)
@given(exchanges().filter(lambda exchange: exchange[0]))
def test_deadline_and_timeout_codes_are_refused(exchange):
    punts, plans = exchange
    request = encode_request(punts)
    # Byte 0 is the frame kind, byte 3 the first punt's flags / result tag.
    for at, value in ((0, 2), (3, request[3] | 0x04)):
        bad = bytearray(request)
        bad[at] = value
        with pytest.raises(IPCError):
            decode_request(bytes(bad))
    response = bytearray(_response_for(punts, plans)[0])
    response[3] = 1
    with pytest.raises(IPCError):
        decode_response(bytes(response), punts)


def test_frames_are_not_interchangeable():
    punts = [(ILPHeader(1, 2), ILPPacket(L3Header("10.0.0.1", "10.0.0.2"), b"w", Payload(None)))]
    request = encode_request(punts)
    response, _sent = _response_for(punts, [None])
    with pytest.raises(IPCError):
        decode_request(response)
    with pytest.raises(IPCError):
        decode_response(request, punts)
    with pytest.raises(IPCError):
        decode_response(response, punts * 2)
