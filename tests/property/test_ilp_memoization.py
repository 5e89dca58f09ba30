"""Property: an ILPHeader is a value, so its encode() memo is transparent.

A header cannot be changed after construction; a rewrite (``with_tlvs``,
``dataclasses.replace``) returns a new header. After ANY sequence of
rewrites, encodes, pickles and copies, ``encode()`` must equal a memo-free
reference encoding of a plain-dict model of the expected state, and must
round-trip through ``decode``. Every attempt to mutate a header in place
must raise and leave its ``encode()`` unchanged.
"""

from __future__ import annotations

import copy
import pickle
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ilp import Flags, ILPHeader

tlv_types = st.integers(min_value=0, max_value=0xFF)
tlv_values = st.binary(min_size=0, max_size=64)
# A with_tlvs update: a None value removes the TLV.
tlv_updates = st.dictionaries(tlv_types, st.none() | tlv_values, max_size=4)

# One step: (op, args). Applied in order to the header under test and
# mirrored into a plain model (service_id, connection_id, flags, tlvs).
operations = st.one_of(
    st.tuples(st.just("with_tlvs"), tlv_updates),
    st.tuples(st.just("flags"), st.integers(min_value=0, max_value=0xFF)),
    st.tuples(st.just("service_id"), st.integers(min_value=0, max_value=0xFFFF)),
    st.tuples(st.just("connection_id"), st.integers(min_value=0, max_value=2**64 - 1)),
    st.tuples(st.just("encode")),  # interleaved encodes populate the memo
    st.tuples(st.just("decode")),  # continue on a decode (memo = its input)
    st.tuples(st.just("pickle")),
    st.tuples(st.just("copy")),
    st.tuples(st.just("deepcopy")),
)

CLONES = {
    "pickle": lambda h: pickle.loads(pickle.dumps(h)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _reference_encode(service_id: int, connection_id: int, flags: int, tlvs: dict) -> bytes:
    """The wire format of §4 spelled out, with no memo and no ILPHeader."""
    out = struct.pack(">BHBQ", 1, service_id, flags, connection_id)
    for tlv_type in sorted(tlvs):
        out += struct.pack(">BH", tlv_type, len(tlvs[tlv_type])) + tlvs[tlv_type]
    return out


def _mutation_attempts(header: ILPHeader):
    """Every way of editing a header in place; each must raise."""
    yield lambda: setattr(header, "flags", Flags.LAST)
    yield lambda: setattr(header, "service_id", 1)
    yield lambda: setattr(header, "connection_id", 1)
    yield lambda: setattr(header, "tlvs", {})
    yield lambda: delattr(header, "flags")
    yield lambda: header.tlvs.__setitem__(0x90, b"x")
    yield lambda: header.tlvs.__delitem__(0x90)
    yield lambda: header.tlvs.pop(0x90, None)
    yield lambda: header.tlvs.update({0x90: b"x"})
    yield lambda: header.tlvs.clear()
    yield lambda: header.tlvs.setdefault(0x90, b"x")


@settings(max_examples=300, deadline=None)
@given(
    service_id=st.integers(min_value=0, max_value=0xFFFF),
    connection_id=st.integers(min_value=0, max_value=2**64 - 1),
    initial=st.dictionaries(tlv_types, tlv_values, max_size=6),
    ops=st.lists(operations, max_size=20),
)
def test_memoized_encode_equals_fresh_encode(service_id, connection_id, initial, ops):
    header = ILPHeader(service_id=service_id, connection_id=connection_id, tlvs=initial)
    model = {"service_id": service_id, "connection_id": connection_id, "flags": 0}
    tlvs = dict(initial)
    for op in ops:
        kind = op[0]
        before, before_wire = header, _reference_encode(**model, tlvs=tlvs)
        if kind == "with_tlvs":
            header = header.with_tlvs(op[1])
            for tlv_type, value in op[1].items():
                if value is None:
                    tlvs.pop(tlv_type, None)
                else:
                    tlvs[tlv_type] = value
        elif kind in model:
            header = replace(header, **{kind: op[1]})
            model[kind] = op[1]
        elif kind == "encode":
            header.encode()
        elif kind == "decode":
            header = ILPHeader.decode(header.encode())
        else:
            header = CLONES[kind](header)
        # No step changes the header it started from.
        assert before.encode() == before_wire
        wire = _reference_encode(**model, tlvs=tlvs)
        assert header.encode() == wire
        assert header.encoded_size == len(wire)
        assert dict(header.tlvs) == tlvs

    decoded = ILPHeader.decode(header.encode())
    assert decoded == header
    assert decoded.encode() == header.encode()


@settings(max_examples=100, deadline=None)
@given(initial=st.dictionaries(tlv_types, tlv_values, max_size=6))
def test_memo_does_not_leak_through_pickle_or_copy(initial):
    """Clones (``enclave._cross`` pickles service arguments) are equal
    values with the same wire form, and are as immutable as the original."""
    header = ILPHeader(service_id=7, connection_id=9, flags=Flags.FIRST, tlvs=initial)
    wire = header.encode()  # populate the memo
    for clone_of in CLONES.values():
        clone = clone_of(header)
        assert clone == header
        assert clone.encode() == wire
        for attempt in _mutation_attempts(clone):
            with pytest.raises((AttributeError, TypeError)):
                attempt()
            assert clone.encode() == wire
    assert header.encode() == _reference_encode(7, 9, Flags.FIRST, initial)


def test_every_mutation_attempt_raises_and_leaves_encode_unchanged():
    header = ILPHeader(service_id=1, connection_id=2, tlvs={0x90: b"v", 3: b"c"})
    wire = header.encode()
    for attempt in _mutation_attempts(header):
        with pytest.raises((AttributeError, TypeError)):
            attempt()
        assert header.encode() == wire
        assert dict(header.tlvs) == {0x90: b"v", 3: b"c"}


def test_decode_preseeds_memo_only_when_canonical():
    h = ILPHeader(service_id=1, connection_id=2, flags=Flags.FIRST, tlvs={3: b"c", 1: b"a"})
    wire = h.encode()
    decoded = ILPHeader.decode(wire)
    # Canonical wire (encode() sorts TLVs): memo pre-seeded with the input.
    assert decoded.encode() is wire
    # A rewrite is a new header with its own encoding; the decoded one keeps
    # its memo.
    rewritten = decoded.with_tlvs({2: b"b"})
    assert rewritten.encode() == _reference_encode(1, 2, Flags.FIRST, {1: b"a", 2: b"b", 3: b"c"})
    assert decoded.encode() is wire
    # Non-canonical wire (TLVs out of order) decodes to the same value, but
    # is re-encoded canonically rather than echoed.
    swapped = wire[:12] + wire[16:] + wire[12:16]
    assert ILPHeader.decode(swapped) == decoded
    assert ILPHeader.decode(swapped).encode() == wire
