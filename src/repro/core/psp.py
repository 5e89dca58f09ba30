"""PSP-style per-packet header encryption between ILP peers.

PSP's properties that ILP relies on (§4):

* a single long-lived pairwise key protects many connections, so no extra
  round trips at connection setup;
* every packet is independently decryptable (the nonce travels with it), so
  out-of-order arrival imposes no state or reordering requirements;
* keys rotate without dropping in-flight packets (epoch byte selects the
  key; the previous epoch stays valid during a grace window);
* one SA per direction: both ends share the pairwise key, but each seals
  as its own direction (fixed at :func:`associate` from the ordered
  address pair), so their nonce spaces never meet and a frame reflected
  back to its sender fails authentication.

Wire format of the sealed ILP header (AES-256-GCM)::

    | epoch (1B) | nonce (8B) | ciphertext (variable) | tag (16B) |

The GCM nonce is ``direction (4B) || nonce (8B)``; the direction never
travels.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Protocol

from .. import sanitize as _san
from . import crypto

_HEADER_FMT = ">B8s"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)


class PSPError(Exception):
    """Raised on malformed PSP blobs or undecryptable packets."""


@dataclass(slots=True)
class PSPStats:
    packets_sealed: int = 0
    packets_opened: int = 0
    auth_failures: int = 0
    rekeys: int = 0
    bytes_sealed: int = 0


def _direction(sender: str, receiver: str) -> int:
    return crypto.FROM_LOW if sender < receiver else crypto.FROM_HIGH


class PSPContext:
    """One end of a security association between two ILP peers.

    Both peers construct a context from the same master secret (established
    at association time — host↔SN registration or SN↔SN pipe setup). Given
    its ``(local, peer)`` endpoint addresses, the context is bound: it seals
    as ``local → peer`` and opens only ``peer → local``. Without them it is
    unbound: it seals as :data:`crypto.UNBOUND` and opens any direction.
    """

    __slots__ = (
        "_master",
        "_send_dir",
        "_recv_dir",
        "_epoch",
        "_keys",
        "_seal_key",
        "_prefix",
        "_nonce",
        "stats",
        "_san_hwm",
    )

    def __init__(
        self,
        master_secret: bytes,
        epoch: int = 0,
        *,
        endpoints: Optional[tuple[str, str]] = None,
    ) -> None:
        if len(master_secret) < 16:
            raise PSPError("master secret too short")
        self._master = master_secret
        if endpoints is None:
            self._send_dir = self._recv_dir = crypto.UNBOUND
        else:
            local, peer = endpoints
            self._send_dir = _direction(local, peer)
            self._recv_dir = _direction(peer, local)
        self._epoch = epoch & 0xFF
        #: epoch -> ready-to-use opening schedule. Rotation builds the new
        #: epoch's schedules exactly once; the per-packet path never derives.
        self._keys: dict[int, crypto.SealingKey] = {
            self._epoch: self._epoch_schedule(self._epoch)
        }
        self._seal_key = self._sealing_schedule(self._epoch)
        self._prefix = bytes([self._epoch])
        self._nonce = crypto.NonceGenerator()
        self.stats = PSPStats()
        #: Sanitizer state: per-epoch high-water mark of sealed nonces.
        self._san_hwm: dict[int, int] = {}

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def seal_schedule(self) -> crypto.SealingKey:
        """The key schedule currently used to seal (the active epoch's)."""
        return self._seal_key

    def known_epochs(self) -> tuple[int, ...]:
        """Epochs this context can currently open, oldest first."""
        return tuple(sorted(self._keys))

    def cached_schedule(self, epoch: int) -> Optional[crypto.SealingKey]:
        """The resident opening schedule for ``epoch``, or None (never derives)."""
        return self._keys.get(epoch)

    def _san_check_nonce(self, nonce: bytes) -> None:
        """Armed check: nonces within one epoch must strictly increase.

        Nonce reuse under one GCM key voids confidentiality and lets an
        attacker forge tags, so any repeat or regression is an immediate
        :class:`~repro.sanitize.SanitizeError`.
        """
        value = int.from_bytes(nonce, "big")
        high = self._san_hwm.get(self._epoch, 0)
        if value <= high:
            _san.fail(
                "nonce-monotonic",
                f"epoch {self._epoch} sealed nonce {value} after {high}",
            )
        self._san_hwm[self._epoch] = value

    def _epoch_key(self, epoch: int) -> bytes:
        return crypto.derive_key(self._master, "psp-epoch", bytes([epoch]))

    def _epoch_schedule(self, epoch: int) -> crypto.SealingKey:
        return crypto.sealing_key(self._epoch_key(epoch), self._recv_dir)

    def _sealing_schedule(self, epoch: int) -> crypto.SealingKey:
        return crypto.sealing_key(self._epoch_key(epoch), self._send_dir)

    def rotate(self) -> int:
        """Advance to the next epoch; the prior epoch stays accepted.

        Returns the new epoch. Both peers rotate on their own schedule —
        receivers accept current and previous epochs, so rotation never
        drops in-flight traffic (a property Appendix C's peering benchmark
        exercises at scale).
        """
        previous = self._epoch
        self._epoch = (self._epoch + 1) & 0xFF
        self._keys = {
            previous: self._keys[previous],
            self._epoch: self._epoch_schedule(self._epoch),
        }
        self._seal_key = self._sealing_schedule(self._epoch)
        self._prefix = bytes([self._epoch])
        self.stats.rekeys += 1
        return self._epoch

    def seal(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt an ILP header for the peer: ``epoch || nonce || ct || tag``."""
        nonce = self._nonce.next()
        if _san.ENABLED:
            self._san_check_nonce(nonce)
        frame = self._prefix + nonce + self._seal_key.seal(nonce, plaintext, aad)
        stats = self.stats
        stats.packets_sealed += 1
        stats.bytes_sealed += len(plaintext)
        return frame

    def seal_batch(self, plaintexts, aad: bytes = b"") -> list[bytes]:
        """Seal many plaintexts back-to-back: a gather of runs of one."""
        return self.seal_gather([(plaintext, 1) for plaintext in plaintexts], aad)

    def seal_run(self, plaintext: bytes, count: int, aad: bytes = b"") -> list[bytes]:
        """Seal the *same* plaintext ``count`` times: a gather of one run."""
        return self.seal_gather([(plaintext, count)], aad)

    def seal_gather(
        self, items: list[tuple[bytes, int]], aad: bytes = b""
    ) -> list[bytes]:
        """Seal several ``(plaintext, count)`` runs back-to-back, flat.

        The terminus egress entry point: one nonce reservation, one
        :meth:`crypto.SealingKey.seal_scatter` pass, and one stats update
        cover every run. Byte-identical to ``count`` consecutive
        :meth:`seal` calls per item in order — nonces advance exactly as
        they would per packet — so regrouping a burst's egress by next hop
        never changes what any single flow puts on the wire.
        """
        total = 0
        total_bytes = 0
        for plaintext, count in items:
            total += count
            total_bytes += count * len(plaintext)
        nonces = self._nonce.take(total)
        if _san.ENABLED:
            for nonce in nonces:
                self._san_check_nonce(nonce)
        frames = self._seal_key.seal_scatter(self._prefix, nonces, items, aad)
        stats = self.stats
        stats.packets_sealed += total
        stats.bytes_sealed += total_bytes
        return frames

    def open_batch(self, blobs, aad: bytes = b"") -> list[Optional[bytes]]:
        """Open many blobs; failures yield ``None`` instead of raising.

        Stats match per-blob :meth:`open` calls exactly (one
        ``packets_opened`` per success, one ``auth_failures`` per failure);
        the epoch-schedule lookup is a single dict probe per blob and the
        rare cases (unknown epoch, next-epoch derivation) fall back to the
        scalar path.
        """
        keys_get = self._keys.get
        min_len = _HEADER_SIZE + crypto.TAG_SIZE
        out: list[Optional[bytes]] = []
        append = out.append
        opened = 0
        failed = 0
        for blob in blobs:
            if len(blob) < min_len:
                failed += 1
                append(None)
                continue
            schedule = keys_get(blob[0])
            if schedule is None:
                try:
                    append(self.open(blob, aad))  # scalar path keeps stats
                except PSPError:
                    append(None)
                continue
            try:
                append(schedule.open(blob[1:_HEADER_SIZE], blob[_HEADER_SIZE:], aad))
                opened += 1
            except crypto.CryptoError:
                failed += 1
                append(None)
        stats = self.stats
        stats.packets_opened += opened
        stats.auth_failures += failed
        return out

    def open(self, blob: bytes, aad: bytes = b"") -> bytes:
        """Decrypt a sealed ILP header from the peer.

        Raises:
            PSPError: if the blob is malformed, the epoch unknown, or the
                authentication tag fails.
        """
        if len(blob) < _HEADER_SIZE + crypto.TAG_SIZE:
            self.stats.auth_failures += 1
            raise PSPError("PSP blob too short")
        epoch = blob[0]
        nonce = blob[1:_HEADER_SIZE]
        schedule = self._keys.get(epoch)
        # A peer may be one epoch ahead of us: derive forward, and keep the
        # schedule only once a frame under it authenticates.
        ahead = schedule is None and epoch == ((self._epoch + 1) & 0xFF)
        if ahead:
            schedule = self._epoch_schedule(epoch)
        elif schedule is None:
            self.stats.auth_failures += 1
            raise PSPError(f"unknown PSP epoch {epoch}")
        try:
            plaintext = schedule.open(nonce, blob[_HEADER_SIZE:], aad)
        except crypto.CryptoError as exc:
            self.stats.auth_failures += 1
            raise PSPError("PSP authentication failed") from exc
        if ahead:
            self._keys[epoch] = schedule
        self.stats.packets_opened += 1
        return plaintext

    @staticmethod
    def overhead() -> int:
        """Wire bytes PSP adds beyond the plaintext header."""
        return _HEADER_SIZE + crypto.TAG_SIZE


@dataclass(slots=True)
class PeerKeyStore:
    """Per-node table of PSP contexts, keyed by peer address.

    The pipe-terminus consults this on every packet: the packet's outer L3
    source selects the context used to open its ILP header, and each
    forwarding destination's context seals the outgoing header (Figure 2).
    """

    contexts: dict[str, PSPContext] = field(default_factory=dict)
    #: peer -> the epoch its last removed context sealed under, so a
    #: re-association can start past it (:func:`associate`).
    retired: dict[str, int] = field(default_factory=dict)

    def establish(
        self, peer: str, master_secret: bytes, local: Optional[str] = None
    ) -> PSPContext:
        """Install the context for ``peer``.

        With ``local`` (this node's address) the context is bound, its
        direction fixed from the ordered ``(local, peer)`` pair. Without,
        it is unbound (a hand-built peer). Every association the
        federation makes goes through :func:`associate` instead.
        """
        ctx = PSPContext(master_secret, endpoints=None if local is None else (local, peer))
        self.contexts[peer] = ctx
        return ctx

    def get(self, peer: str) -> PSPContext:
        try:
            return self.contexts[peer]
        except KeyError:
            raise PSPError(f"no PSP association with peer {peer}") from None

    def has(self, peer: str) -> bool:
        return peer in self.contexts

    def remove(self, peer: str) -> None:
        ctx = self.contexts.pop(peer, None)
        if ctx is not None:
            self.retired[peer] = ctx.epoch

    def last_epoch(self, peer: str) -> Optional[int]:
        """The newest epoch this node has sealed to ``peer`` under, if any."""
        ctx = self.contexts.get(peer)
        return ctx.epoch if ctx is not None else self.retired.get(peer)

    def __len__(self) -> int:
        return len(self.contexts)


def pairwise_secret(addr_a: str, addr_b: str, realm: bytes = b"interedge") -> bytes:
    """Deterministic shared secret for a peer pair.

    Stands in for the out-of-band key exchange (e.g. Noise/IKE) that a real
    deployment would run when an association is created; both sides derive
    the same secret from their addresses, keeping simulations reproducible.
    """
    lo, hi = sorted((addr_a, addr_b))
    return crypto.derive_key(
        crypto.derive_key(realm.ljust(16, b"\x00"), "pair-root"),
        "pair",
        f"{lo}|{hi}".encode(),
    )


class _Endpoint(Protocol):
    __slots__ = ()
    address: str
    keystore: PeerKeyStore


def associate(a: _Endpoint, b: _Endpoint) -> None:
    """Create both ends of the ``a ↔ b`` PSP association, one SA per direction.

    No nonce counter restarts under a key it has sealed with: a live pair
    is kept as it is, and a pair that ever had an end starts both ends
    on the epoch after the newest one either end sealed under.
    """
    if a.keystore.has(b.address) and b.keystore.has(a.address):
        return
    used = [
        epoch
        for epoch in (a.keystore.last_epoch(b.address), b.keystore.last_epoch(a.address))
        if epoch is not None
    ]
    epoch = (max(used) + 1) & 0xFF if used else 0
    secret = pairwise_secret(a.address, b.address)
    a.keystore.contexts[b.address] = PSPContext(
        secret, epoch, endpoints=(a.address, b.address)
    )
    b.keystore.contexts[a.address] = PSPContext(
        secret, epoch, endpoints=(b.address, a.address)
    )
