"""Crypto fast-path microbenchmark: the seed cipher vs. PSP's AES-GCM.

* ``_legacy_seal``/``_legacy_open`` are a faithful copy of the seed
  implementation (two fresh HMAC subkey derivations per operation, fresh
  ``sha256(key || nonce || ctr)`` per keystream block, per-byte
  generator-expression XOR), kept as the fixed baseline. The wire is not
  compatible with it: :class:`~repro.core.crypto.SealingKey` is AES-GCM.
* The seal+open throughput of the current path must be ≥ 3× the legacy
  path, each side opening its own seals, measured in the same run on the
  same machine.
* ``BENCH_crypto.json`` is written at the repo root with pps and µs/op for
  {seal, open, terminus fast-path forward}, legacy baselines, and the
  speedups — so the perf trajectory stays comparable across PRs.

Run directly (no --benchmark-only needed):
    PYTHONPATH=src python -m pytest benchmarks/test_crypto_fastpath.py -q
"""

from __future__ import annotations

import hashlib
import hmac
import json
import struct
import time
from pathlib import Path

import pytest

from repro.core import crypto
from repro.core.decision_cache import CacheKey, Decision
from repro.core.ilp import ILPHeader, TLV
from repro.core.packet import ILPPacket, L3Header, make_payload
from repro.core.psp import PSPContext, pairwise_secret
from repro.core.service_node import ServiceNode
from repro.netsim import Simulator

_BLOCK = hashlib.sha256().digest_size
_RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_crypto.json"

_results: dict[str, dict] = {}


# -- the seed implementation, verbatim semantics ------------------------


def _legacy_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    blocks = []
    for counter in range((length + _BLOCK - 1) // _BLOCK):
        blocks.append(
            hashlib.sha256(key + nonce + struct.pack(">I", counter)).digest()
        )
    return b"".join(blocks)[:length]


def _legacy_xor(data: bytes, stream: bytes) -> bytes:
    return bytes(a ^ b for a, b in zip(data, stream))


def _legacy_mac_key(key: bytes) -> bytes:
    return crypto.derive_key(key, "ilp-mac")


def _legacy_enc_key(key: bytes) -> bytes:
    return crypto.derive_key(key, "ilp-enc")


def _legacy_seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    ciphertext = _legacy_xor(
        plaintext, _legacy_keystream(_legacy_enc_key(key), nonce, len(plaintext))
    )
    tag = hmac.new(
        _legacy_mac_key(key), nonce + aad + ciphertext, hashlib.sha256
    ).digest()[: crypto.TAG_SIZE]
    return ciphertext + tag


def _legacy_open(key: bytes, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
    ciphertext, tag = sealed[: -crypto.TAG_SIZE], sealed[-crypto.TAG_SIZE :]
    expected = hmac.new(
        _legacy_mac_key(key), nonce + aad + ciphertext, hashlib.sha256
    ).digest()[: crypto.TAG_SIZE]
    if not hmac.compare_digest(tag, expected):
        raise crypto.CryptoError("authentication tag mismatch")
    return _legacy_xor(
        ciphertext, _legacy_keystream(_legacy_enc_key(key), nonce, len(ciphertext))
    )


# -- tamper detection ---------------------------------------------------


class TestCrossCompat:
    """Both ciphers reject a tampered blob."""

    def test_tamper_still_detected(self):
        key = crypto.random_key()
        nonce = crypto.NonceGenerator().next()
        for seal, open_ in (
            (crypto.seal, crypto.open_sealed),
            (_legacy_seal, _legacy_open),
        ):
            blob = bytearray(seal(key, nonce, b"payload"))
            blob[0] ^= 0xFF
            with pytest.raises(crypto.CryptoError):
                open_(key, nonce, bytes(blob))


# -- measurement --------------------------------------------------------


def _measure(fn, *, min_seconds: float = 0.25) -> tuple[float, float]:
    """Run ``fn`` repeatedly for ~min_seconds; return (ops/sec, µs/op)."""
    fn()  # warm caches (schedules, memos) outside the timed region
    n = 0
    start = time.perf_counter()
    deadline = start + min_seconds
    while True:
        for _ in range(200):
            fn()
        n += 200
        now = time.perf_counter()
        if now >= deadline:
            break
    elapsed = now - start
    return n / elapsed, elapsed / n * 1e6


HEADER_BYTES = None


def _header_bytes() -> bytes:
    h = ILPHeader(
        service_id=2,
        connection_id=123456,
        tlvs={TLV.DEST_ADDR: b"192.168.0.77", TLV.SRC_HOST: b"192.168.0.12"},
    )
    return h.encode()


def test_seal_open_speedup_vs_seed():
    """The acceptance gate: ≥ 3× seal+open throughput over the seed path."""
    key = crypto.random_key()
    nonce = crypto.NonceGenerator().next()
    plaintext = _header_bytes()
    blob = crypto.seal(key, nonce, plaintext)
    legacy_blob = _legacy_seal(key, nonce, plaintext)

    legacy_seal_pps, legacy_seal_us = _measure(
        lambda: _legacy_seal(key, nonce, plaintext)
    )
    legacy_open_pps, legacy_open_us = _measure(
        lambda: _legacy_open(key, nonce, legacy_blob)
    )
    new_seal_pps, new_seal_us = _measure(lambda: crypto.seal(key, nonce, plaintext))
    new_open_pps, new_open_us = _measure(
        lambda: crypto.open_sealed(key, nonce, blob)
    )

    seal_speedup = new_seal_pps / legacy_seal_pps
    open_speedup = new_open_pps / legacy_open_pps
    combined = (new_seal_pps * new_open_pps * (legacy_seal_pps + legacy_open_pps)) / (
        legacy_seal_pps * legacy_open_pps * (new_seal_pps + new_open_pps)
    )  # ratio of harmonic-mean throughputs == ratio of seal+open round trips

    _results["seal"] = {
        "pps": round(new_seal_pps, 1),
        "us_per_op": round(new_seal_us, 3),
        "seed_pps": round(legacy_seal_pps, 1),
        "seed_us_per_op": round(legacy_seal_us, 3),
        "speedup": round(seal_speedup, 2),
    }
    _results["open"] = {
        "pps": round(new_open_pps, 1),
        "us_per_op": round(new_open_us, 3),
        "seed_pps": round(legacy_open_pps, 1),
        "seed_us_per_op": round(legacy_open_us, 3),
        "speedup": round(open_speedup, 2),
    }
    _results["seal_open_roundtrip_speedup"] = {"speedup": round(combined, 2)}

    assert combined >= 3.0, (
        f"seal+open speedup {combined:.2f}x < 3x "
        f"(seal {seal_speedup:.2f}x, open {open_speedup:.2f}x)"
    )


SN_ADDR = "10.0.0.1"
INGRESS = "10.0.0.2"
EGRESS = "10.0.0.3"


def test_terminus_fastpath_forward_throughput():
    """Assembled Figure 2 fast path via batch ingress: decrypt → decode →
    cache hit → encode (memoized) → re-encrypt → transmit."""
    sim = Simulator()
    node = ServiceNode(sim, "sn", SN_ADDR)
    delivered = [0]

    def sink(peer: str, packets: list[ILPPacket]) -> int:
        delivered[0] += len(packets)
        return len(packets)

    node.terminus.set_transmit(sink)
    secret_in = pairwise_secret(SN_ADDR, INGRESS)
    node.keystore.establish(INGRESS, secret_in)
    node.keystore.establish(EGRESS, pairwise_secret(SN_ADDR, EGRESS))
    node.cache.install(CacheKey(INGRESS, 2, 123456), Decision.forward(EGRESS))
    tx = PSPContext(secret_in)
    payload = make_payload(b"x" * 64)
    header_bytes = _header_bytes()

    def make_batch(n: int) -> list[ILPPacket]:
        return [
            ILPPacket(
                l3=L3Header(src=INGRESS, dst=SN_ADDR),
                ilp_wire=tx.seal(header_bytes),
                payload=payload,
            )
            for _ in range(n)
        ]

    # Warmup, then timed batches (packet construction outside the window).
    node.terminus.receive_batch(make_batch(200))
    total = 0
    elapsed = 0.0
    while elapsed < 0.3:
        batch = make_batch(1000)
        t0 = time.perf_counter()
        node.terminus.receive_batch(batch)
        elapsed += time.perf_counter() - t0
        total += len(batch)

    pps = total / elapsed
    _results["terminus_forward"] = {
        "pps": round(pps, 1),
        "us_per_op": round(elapsed / total * 1e6, 3),
        "batch": 1000,
    }
    assert delivered[0] == total + 200
    assert node.terminus.stats.fast_path == total + 200


def teardown_module(module):
    if not _results:
        return
    _results["meta"] = {
        "note": "ops on one core of this container; header = 2-TLV ILP header",
        "header_bytes": len(_header_bytes()),
    }
    _RESULTS_PATH.write_text(json.dumps(_results, indent=2) + "\n")
    print(f"\nwrote {_RESULTS_PATH}")
    for name in ("seal", "open", "terminus_forward"):
        if name in _results:
            print(f"  {name}: {_results[name]}")
