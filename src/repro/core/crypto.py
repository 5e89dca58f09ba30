"""Simulation-grade cryptographic primitives.

The paper's ILP uses PSP [34], an AEAD designed for NIC offload that
operates on individual packets with no inter-packet state. We reproduce the
*properties* the architecture depends on — per-packet independence,
pairwise keys, authenticated encryption, cheap key derivation and rotation —
with stdlib ``hashlib``/``hmac`` building blocks.

**This is not production cryptography.** The stream cipher is a SHA-256
counter keystream and the MAC a truncated HMAC; both are fine for a
simulator (no adversary runs inside the process) and keep the repository
dependency-free. DESIGN.md §4 records the substitution.

Fast path
---------

Appendix B frames the pipe-terminus as an ASIC-bound datapath; its software
stand-in must at least be algorithmically lean. Three things make per-packet
cost here: subkey derivation, keystream generation, and the XOR. The
:class:`SealingKey` schedule removes the first (the two HMAC-SHA256 subkey
derivations and the MAC's key-pad absorption happen once per key, not per
packet), an incremental hash construction removes most of the second (one
pre-absorbed SHA-256 state is ``copy()``-ed per block instead of rehashing
``key || nonce`` from scratch), and a single big-int XOR removes the third
(one C-level operation instead of a per-byte generator expression). The
wire format and every emitted byte are identical to the original
implementation — old seals open under the new code and vice versa
(``benchmarks/test_crypto_fastpath.py`` proves cross-compatibility and
measures the speedup).
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import os
import struct
from dataclasses import dataclass

KEY_SIZE = 32
TAG_SIZE = 16
NONCE_SIZE = 8
_BLOCK = hashlib.sha256().digest_size

# Pre-packed big-endian block counters for the common case (headers span a
# handful of keystream blocks); larger messages fall back to struct.pack.
_CTR = [struct.pack(">I", i) for i in range(64)]
_PACK_CTR = struct.Struct(">I").pack


class CryptoError(Exception):
    """Raised on authentication failure or key misuse."""


def random_key() -> bytes:
    """A fresh uniformly random 256-bit key."""
    # repro: allow(DET001) entropy boundary: key material must be real entropy
    return os.urandom(KEY_SIZE)


def derive_key(master: bytes, label: str, context: bytes = b"") -> bytes:
    """HKDF-expand style one-step derivation: HMAC(master, label || ctx)."""
    if len(master) < 16:
        raise CryptoError("master key too short")
    return hmac.new(master, label.encode() + b"\x00" + context, hashlib.sha256).digest()


def _xor(data: bytes, stream: bytes) -> bytes:
    """XOR ``data`` with the first ``len(data)`` bytes of ``stream``.

    One arbitrary-precision int XOR instead of a per-byte generator
    expression: the conversion and XOR all run in C.
    """
    n = len(data)
    if n == 0:
        return b""
    if len(stream) != n:
        stream = stream[:n]
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(n, "big")


class SealingKey:
    """Precomputed subkey schedule for one symmetric key.

    Holds everything :func:`seal`/:func:`open_sealed` would otherwise
    rederive per packet:

    * the encryption subkey, pre-absorbed into a SHA-256 state so each
      keystream block is a ``copy() + update(counter) + digest()``;
    * the MAC subkey's HMAC inner/outer pads, pre-absorbed into two SHA-256
      states so a tag is two ``copy() + update + digest()`` rounds — the
      stdlib ``hmac`` wrapper's per-call object construction and key-pad
      absorption are hoisted out of the packet path entirely.

    Output is bit-identical to the module-level functions; a schedule is
    purely a cache.
    """

    __slots__ = ("key", "_ks_base", "_mac_inner", "_mac_outer")

    _HMAC_BLOCK = 64  # SHA-256 block size; MAC subkeys (32B) never exceed it

    def __init__(self, key: bytes) -> None:
        self.key = key
        self._ks_base = hashlib.sha256(derive_key(key, "ilp-enc"))
        # HMAC(k, m) == sha256((k ^ opad) || sha256((k ^ ipad) || m)) for
        # keys up to one block; pre-absorb both pads.
        mac_key = derive_key(key, "ilp-mac")
        pad = mac_key.ljust(self._HMAC_BLOCK, b"\x00")
        self._mac_inner = hashlib.sha256(bytes(b ^ 0x36 for b in pad))
        self._mac_outer = hashlib.sha256(bytes(b ^ 0x5C for b in pad))

    def keystream(self, nonce: bytes, length: int) -> bytes:
        """Counter-mode keystream: SHA256(enc_key || nonce || counter) blocks."""
        base = self._ks_base.copy()
        base.update(nonce)
        if length <= _BLOCK:
            base.update(_CTR[0])
            return base.digest()[:length]
        if length <= 2 * _BLOCK:
            second = base.copy()
            base.update(_CTR[0])
            second.update(_CTR[1])
            return (base.digest() + second.digest())[:length]
        blocks = []
        for counter in range((length + _BLOCK - 1) // _BLOCK):
            h = base.copy()
            h.update(_CTR[counter] if counter < 64 else _PACK_CTR(counter))
            blocks.append(h.digest())
        return b"".join(blocks)[:length]

    def _tag(self, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        inner = self._mac_inner.copy()
        inner.update(nonce)
        if aad:
            inner.update(aad)
        inner.update(ciphertext)
        outer = self._mac_outer.copy()
        outer.update(inner.digest())
        return outer.digest()[:TAG_SIZE]

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt-then-MAC. Returns ``ciphertext || tag``."""
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(f"nonce must be {NONCE_SIZE} bytes")
        ciphertext = _xor(plaintext, self.keystream(nonce, len(plaintext)))
        return ciphertext + self._tag(nonce, aad, ciphertext)

    def seal_into(
        self, out: bytearray, nonce: bytes, plaintext: bytes, aad: bytes = b""
    ) -> bytearray:
        """Like :meth:`seal`, but appends to ``out`` in place.

        Avoids the ``ciphertext + tag`` intermediate so callers building a
        framed blob (PSP prepends ``epoch || nonce``) allocate once.
        """
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(f"nonce must be {NONCE_SIZE} bytes")
        ciphertext = _xor(plaintext, self.keystream(nonce, len(plaintext)))
        out += ciphertext
        out += self._tag(nonce, aad, ciphertext)
        return out

    def seal_scatter(
        self,
        prefix: bytes,
        nonces: list[bytes],
        items: list[tuple[bytes, int]],
        aad: bytes = b"",
    ) -> list[bytes]:
        """Seal ``(plaintext, count)`` runs against one flat nonce block.

        The scatter-gather egress primitive: a terminus coalescing several
        flow groups toward one next hop seals each group's header wire form
        under that group's span of ``nonces`` (``count`` consecutive ones,
        in item order), with the hash-state bases and framing loaded once
        for the whole scatter and everything that does not depend on the
        nonce (plaintext big-int conversion, block-count branch) hoisted
        out of each run's loop. Returns one ``prefix || nonce ||
        ciphertext || tag`` blob per nonce, in nonce order, each
        byte-identical to framing :meth:`seal` output by hand with the
        same nonce.
        """
        if nonces and len(nonces[0]) != NONCE_SIZE:
            raise CryptoError(f"nonce must be {NONCE_SIZE} bytes")
        ks_base = self._ks_base
        mac_inner = self._mac_inner
        mac_outer = self._mac_outer
        ctr0 = _CTR[0]
        keystream = self.keystream
        tag_size = TAG_SIZE
        frames: list[bytes] = []
        append = frames.append
        start = 0
        for plaintext, count in items:
            n = len(plaintext)
            pt_int = int.from_bytes(plaintext, "big")
            single_block = n <= _BLOCK
            for nonce in nonces[start : start + count]:
                if single_block:
                    h = ks_base.copy()
                    h.update(nonce)
                    h.update(ctr0)
                    stream = h.digest()
                    if n:
                        ciphertext = (
                            pt_int ^ int.from_bytes(stream[:n], "big")
                        ).to_bytes(n, "big")
                    else:
                        ciphertext = b""
                else:
                    ciphertext = (
                        pt_int ^ int.from_bytes(keystream(nonce, n), "big")
                    ).to_bytes(n, "big")
                inner = mac_inner.copy()
                inner.update(nonce)
                if aad:
                    inner.update(aad)
                inner.update(ciphertext)
                outer = mac_outer.copy()
                outer.update(inner.digest())
                append(prefix + nonce + ciphertext + outer.digest()[:tag_size])
            start += count
        return frames

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt output of :meth:`seal`.

        Raises:
            CryptoError: if the tag does not verify (tampering or wrong key).
        """
        if len(sealed) < TAG_SIZE:
            raise CryptoError("sealed blob too short")
        ciphertext, tag = sealed[:-TAG_SIZE], sealed[-TAG_SIZE:]
        if not hmac.compare_digest(tag, self._tag(nonce, aad, ciphertext)):
            raise CryptoError("authentication tag mismatch")
        return _xor(ciphertext, self.keystream(nonce, len(ciphertext)))


@functools.lru_cache(maxsize=1024)
def sealing_key(key: bytes) -> SealingKey:
    """The (LRU-bounded, process-wide) schedule cache for ``key``.

    Long-lived holders (PSP contexts keep one per epoch) should retain the
    returned object; transient callers go through :func:`seal`/
    :func:`open_sealed`, which consult this cache.
    """
    return SealingKey(key)


def seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """Encrypt-then-MAC. Returns ``ciphertext || tag``.

    The nonce is caller-supplied (PSP carries it in the packet) and MUST be
    unique per (key, packet); :class:`NonceGenerator` provides that.
    """
    return sealing_key(key).seal(nonce, plaintext, aad)


def open_sealed(key: bytes, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
    """Verify and decrypt output of :func:`seal`.

    Raises:
        CryptoError: if the tag does not verify (tampering or wrong key).
    """
    return sealing_key(key).open(nonce, sealed, aad)


class NonceGenerator:
    """Monotonic per-sender nonces (PSP uses a per-SA counter the same way)."""

    __slots__ = ("_counter",)

    _PACK = struct.Struct(">Q").pack

    def __init__(self, start: int = 0) -> None:
        self._counter = start

    def next(self) -> bytes:
        self._counter += 1
        if self._counter >= 2**64:
            raise CryptoError("nonce space exhausted; rekey required")
        return self._PACK(self._counter)

    def take(self, count: int) -> list[bytes]:
        """The next ``count`` nonces at once (a flow run's worth).

        Identical to ``count`` calls to :meth:`next`, minus the per-call
        bounds check and method dispatch.
        """
        start = self._counter
        end = start + count
        if end >= 2**64:
            raise CryptoError("nonce space exhausted; rekey required")
        self._counter = end
        pack = self._PACK
        return [pack(value) for value in range(start + 1, end + 1)]


@dataclass(frozen=True, slots=True)
class KeyPair:
    """A toy asymmetric identity: 'public' key is a hash of the private key.

    Signatures are HMACs keyed by the private key and verified by anyone who
    can obtain the private-key holder's cooperation is *not* modeled —
    instead the verifier trusts the lookup service's registry binding
    ``public`` to the identity, and verification recomputes the HMAC via a
    registry-held verification secret. This mirrors what the architecture
    needs (signed join messages, signed open-group statements, attestation
    quotes) without a bignum signature scheme.
    """

    private: bytes
    public: bytes

    @staticmethod
    def generate() -> "KeyPair":
        private = random_key()
        public = hashlib.sha256(b"pub|" + private).digest()
        return KeyPair(private=private, public=public)

    def sign(self, message: bytes) -> bytes:
        return hmac.new(self.private, message, hashlib.sha256).digest()

    def verify_with_private(self, message: bytes, signature: bytes) -> bool:
        return hmac.compare_digest(self.sign(message), signature)


class SignatureRegistry:
    """Verification oracle standing in for a real PKI.

    The global lookup service holds one of these: identities register their
    key pair, verifiers ask the registry to check signatures against a
    public key. Verification is constant-time HMAC comparison.
    """

    __slots__ = ("_by_public",)

    def __init__(self) -> None:
        self._by_public: dict[bytes, KeyPair] = {}

    def register(self, keypair: KeyPair) -> None:
        self._by_public[keypair.public] = keypair

    def is_registered(self, public: bytes) -> bool:
        return public in self._by_public

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        keypair = self._by_public.get(public)
        if keypair is None:
            return False
        return keypair.verify_with_private(message, signature)
