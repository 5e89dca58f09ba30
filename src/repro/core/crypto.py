"""Cryptographic primitives: PSP's AEAD, key derivation, nonces, toy signatures.

The paper's ILP uses PSP [34], an AEAD designed for NIC offload that
operates on individual packets with no inter-packet state. PSP's cipher is
AES-GCM, and so is ours: :class:`SealingKey` wraps ``cryptography``'s
``AESGCM`` under a 256-bit key derived from the caller's key, and every
packet carries its own 8-byte nonce. GCM needs a 96-bit nonce; the 4 bytes
that extend the wire nonce carry the sender's direction, the way real PSP
puts the per-direction SPI there, so the two ends of one pairwise key never
seal under the same (key, nonce) pair. DESIGN.md §4 records how our wire
differs from real PSP.

Key derivation (HMAC-SHA256) and the toy signature scheme stay on stdlib
``hashlib``/``hmac``; they are off the per-packet path.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import os
import struct
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

KEY_SIZE = 32
TAG_SIZE = 16
NONCE_SIZE = 8

#: Directions, i.e. the 4 implicit GCM nonce bytes. A bound security
#: association seals as the lower or the higher address of its pair;
#: an unbound key (no endpoints known) seals as ``UNBOUND``.
UNBOUND, FROM_LOW, FROM_HIGH = 0, 1, 2
_SALT = {d: d.to_bytes(4, "big") for d in (UNBOUND, FROM_LOW, FROM_HIGH)}


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


class SealingKey:
    """AES-256-GCM under one key, sealing as one direction.

    The GCM nonce is ``direction (4B) || nonce (8B)``. A bound key opens
    only frames sealed as its own direction (a PSP context opens with the
    *peer's* direction, so a frame reflected back to its sender fails). An
    unbound key seals as :data:`UNBOUND` and opens any direction, which is
    what a hand-built context that knows no endpoints needs.

    Construction builds the ``AESGCM`` object (~1-2 µs); callers keep the
    schedule (see :func:`sealing_key`) rather than rebuild it per packet.
    """

    __slots__ = ("key", "direction", "_aead", "_salt", "_open_salts")

    def __init__(self, key: bytes, direction: int = UNBOUND) -> None:
        self.key = key
        self.direction = direction
        self._aead = AESGCM(derive_key(key, "ilp-enc"))
        self._salt = _SALT[direction]
        self._open_salts = (
            tuple(_SALT.values()) if direction == UNBOUND else (self._salt,)
        )

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate. Returns ``ciphertext || tag``."""
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(f"nonce must be {NONCE_SIZE} bytes")
        return self._aead.encrypt(self._salt + nonce, plaintext, aad or None)

    def seal_into(
        self, out: bytearray, nonce: bytes, plaintext: bytes, aad: bytes = b""
    ) -> bytearray:
        """Like :meth:`seal`, but appends to ``out`` in place."""
        out += self.seal(nonce, plaintext, aad)
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
        in item order). Returns one ``prefix || nonce || ciphertext || tag``
        blob per nonce, in nonce order, each byte-identical to framing
        :meth:`seal` output by hand with the same nonce.
        """
        if nonces and len(nonces[0]) != NONCE_SIZE:
            raise CryptoError(f"nonce must be {NONCE_SIZE} bytes")
        encrypt = self._aead.encrypt
        salt = self._salt
        ad = aad or None
        frames: list[bytes] = []
        append = frames.append
        start = 0
        for plaintext, count in items:
            for nonce in nonces[start : start + count]:
                append(prefix + nonce + encrypt(salt + nonce, plaintext, ad))
            start += count
        return frames

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt output of :meth:`seal`.

        Raises:
            CryptoError: if the tag does not verify (tampering, truncation,
                wrong key or wrong direction).
        """
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(f"nonce must be {NONCE_SIZE} bytes")
        ad = aad or None
        for salt in self._open_salts:
            try:
                return self._aead.decrypt(salt + nonce, sealed, ad)
            except InvalidTag:
                continue
        raise CryptoError("authentication tag mismatch")


@functools.lru_cache(maxsize=1024)
def sealing_key(key: bytes, direction: int = UNBOUND) -> SealingKey:
    """The (LRU-bounded, process-wide) schedule cache for ``key``.

    Long-lived holders (PSP contexts keep one per epoch) should retain the
    returned object; transient callers go through :func:`seal`/
    :func:`open_sealed`, which consult this cache.
    """
    return SealingKey(key, direction)


def seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """Encrypt and authenticate under an unbound key. Returns ``ciphertext || tag``.

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

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        keypair = self._by_public.get(public)
        if keypair is None:
            return False
        return keypair.verify_with_private(message, signature)
