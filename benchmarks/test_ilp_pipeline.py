"""F2 — the Figure 2 pipeline, microbenchmarked stage by stage.

Regenerates the processing structure of Figure 2 as numbers: ILP header
encode/decode, PSP seal/open, decision-cache lookup, and the assembled
fast path. Not a paper table per se (Figure 2 is a diagram), but the
executable form of it — and the baseline the ablations compare against.
"""

from __future__ import annotations

import pytest

from repro.core.decision_cache import CacheKey, Decision, DecisionCache
from repro.core.ilp import ILPHeader, TLV
from repro.core.psp import PSPContext, pairwise_secret


@pytest.fixture
def header() -> ILPHeader:
    h = ILPHeader(
        service_id=2,
        connection_id=123456,
        tlvs={TLV.DEST_ADDR: b"192.168.0.77", TLV.SRC_HOST: b"192.168.0.12"},
    )
    return h


def test_ilp_encode(benchmark, header):
    raw = benchmark(header.encode)
    assert len(raw) == header.encoded_size


def test_ilp_decode(benchmark, header):
    raw = header.encode()
    decoded = benchmark(ILPHeader.decode, raw)
    assert decoded.connection_id == header.connection_id


def test_psp_seal(benchmark, header):
    ctx = PSPContext(pairwise_secret("10.0.0.1", "10.0.0.2"))
    raw = header.encode()
    blob = benchmark(ctx.seal, raw)
    assert len(blob) > len(raw)


def test_psp_open(benchmark, header):
    secret = pairwise_secret("10.0.0.1", "10.0.0.2")
    tx, rx = PSPContext(secret), PSPContext(secret)
    blob = tx.seal(header.encode())
    plaintext = benchmark(rx.open, blob)
    assert plaintext == header.encode()


def test_cache_lookup_hit(benchmark):
    cache = DecisionCache(capacity=65536)
    key = CacheKey("10.0.0.2", 2, 123456)
    cache.install(key, Decision.forward("10.0.0.3"))
    decision = benchmark(cache.lookup, key)
    assert decision is not None


def test_cache_lookup_miss(benchmark):
    cache = DecisionCache(capacity=65536)
    key = CacheKey("10.0.0.2", 2, 99)
    decision = benchmark(cache.lookup, key)
    assert decision is None


def test_full_fast_path(benchmark, header):
    """decrypt -> decode -> cache hit -> encode -> re-encrypt (Figure 2)."""
    in_secret = pairwise_secret("10.0.0.1", "10.0.0.2")
    out_secret = pairwise_secret("10.0.0.1", "10.0.0.3")
    rx = PSPContext(in_secret)
    sender = PSPContext(in_secret)
    tx = PSPContext(out_secret)
    cache = DecisionCache()
    key = CacheKey("10.0.0.2", 2, 123456)
    cache.install(key, Decision.forward("10.0.0.3"))
    wire = sender.seal(header.encode())

    def fast_path():
        decoded = ILPHeader.decode(rx.open(wire))
        decision = cache.lookup(
            CacheKey("10.0.0.2", decoded.service_id, decoded.connection_id)
        )
        assert decision is not None
        return tx.seal(decoded.encode())

    out = benchmark(fast_path)
    assert len(out) > 0


def test_ilp_encode_memoized(benchmark, header):
    """The fast path's encode: memo hit after the first serialization."""
    header.encode()  # populate the memo
    raw = benchmark(header.encode)
    assert raw == ILPHeader(2, 123456, tlvs=header.tlvs).encode()


def test_psp_seal_preencoded(benchmark, header):
    """Seal with the header's wire form reused across packets (the
    _apply_decision fan-out pattern: encode once, seal N times)."""
    ctx = PSPContext(pairwise_secret("10.0.0.1", "10.0.0.2"))
    raw = header.encode()
    blob = benchmark(ctx.seal, raw)
    assert len(blob) == len(raw) + PSPContext.overhead()


def test_full_fast_path_memoized(benchmark, header):
    """Figure 2 fast path as the overhauled terminus runs it: the decoded
    header's wire memo is pre-seeded, so re-encode is a dictionary hit."""
    in_secret = pairwise_secret("10.0.0.1", "10.0.0.2")
    out_secret = pairwise_secret("10.0.0.1", "10.0.0.3")
    rx = PSPContext(in_secret)
    sender = PSPContext(in_secret)
    tx = PSPContext(out_secret)
    cache = DecisionCache()
    key = CacheKey("10.0.0.2", 2, 123456)
    cache.install(key, Decision.forward("10.0.0.3"))
    wire = sender.seal(header.encode())

    def fast_path():
        decoded = ILPHeader.decode(rx.open(wire))
        decision = cache.lookup(
            CacheKey("10.0.0.2", decoded.service_id, decoded.connection_id)
        )
        assert decision is not None
        return tx.seal(decoded.encode())

    out = benchmark(fast_path)
    assert len(out) > 0
