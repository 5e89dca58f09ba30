"""A WireGuard-style tunnel model.

Appendix C benchmarks direct peering by asking whether one commodity node
can maintain ~98,000 WireGuard tunnels, each rotating symmetric keys every
three minutes, and finds it costs under half a core and ~3.4 Mbps.

We model the parts of WireGuard that cost anything at that scale:

* the Noise-IK handshake (2 messages: 148 B initiation + 92 B response),
  rerun at every rekey interval — each rekey performs real key-derivation
  work (HKDF-style HMAC chains), so the CPU measurement is honest;
* keepalives (32 B) on their own timer;
* transport-data encapsulation overhead (32 B/packet) for completeness.

Message *sizes* follow the WireGuard wire format; message *contents* are
sealed with the repository's AES-GCM primitive, not ChaCha20-Poly1305.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core import crypto

HANDSHAKE_INITIATION_BYTES = 148
HANDSHAKE_RESPONSE_BYTES = 92
KEEPALIVE_BYTES = 32
TRANSPORT_OVERHEAD_BYTES = 32

DEFAULT_REKEY_INTERVAL = 180.0  # the paper's three-minute rotation
DEFAULT_KEEPALIVE_INTERVAL = 25.0


class TunnelError(Exception):
    """Raised on invalid tunnel state transitions."""


@dataclass
class TunnelStats:
    handshakes: int = 0
    rekeys: int = 0
    keepalives_sent: int = 0
    control_bytes: int = 0  # handshake + keepalive bytes (both directions)
    data_packets: int = 0
    data_bytes: int = 0


class WireGuardTunnel:
    """One point-to-point tunnel with periodic rekey and keepalive."""

    def __init__(
        self,
        local_id: str,
        peer_id: str,
        rekey_interval: float = DEFAULT_REKEY_INTERVAL,
        keepalive_interval: float = DEFAULT_KEEPALIVE_INTERVAL,
        psk: Optional[bytes] = None,
    ) -> None:
        self.local_id = local_id
        self.peer_id = peer_id
        self.rekey_interval = rekey_interval
        self.keepalive_interval = keepalive_interval
        self._static = psk or crypto.derive_key(
            crypto.derive_key(b"wireguard-sim-root".ljust(16, b"\x00"), "static"),
            "pair",
            f"{local_id}|{peer_id}".encode(),
        )
        self._send_key: Optional[bytes] = None
        self._recv_key: Optional[bytes] = None
        self._epoch = 0
        self._nonces = crypto.NonceGenerator()
        self.established = False
        self.stats = TunnelStats()
        self.next_rekey_at = 0.0
        self.next_keepalive_at = 0.0

    # -- handshake / rekey ----------------------------------------------------
    def _derive_transport_keys(self) -> None:
        """The real CPU work of a handshake: an HKDF-like chain."""
        epoch_ctx = self._epoch.to_bytes(4, "big")
        chaining = crypto.derive_key(self._static, "noise-ck", epoch_ctx)
        ephemeral = crypto.derive_key(chaining, "ephemeral", epoch_ctx)
        mixed = crypto.derive_key(chaining, "mix", ephemeral)
        self._send_key = crypto.derive_key(mixed, "send", epoch_ctx)
        self._recv_key = crypto.derive_key(mixed, "recv", epoch_ctx)

    def handshake(self, now: float) -> int:
        """Perform the 2-message handshake; returns control bytes used."""
        self._epoch += 1
        self._derive_transport_keys()
        self.established = True
        self.stats.handshakes += 1
        used = HANDSHAKE_INITIATION_BYTES + HANDSHAKE_RESPONSE_BYTES
        self.stats.control_bytes += used
        self.next_rekey_at = now + self.rekey_interval
        self.next_keepalive_at = now + self.keepalive_interval
        return used

    def rekey(self, now: float) -> int:
        """Symmetric key rotation = a fresh handshake (WireGuard semantics)."""
        if not self.established:
            raise TunnelError("cannot rekey before handshake")
        self.stats.rekeys += 1
        return self.handshake(now)

    def keepalive(self, now: float) -> int:
        if not self.established:
            raise TunnelError("cannot keepalive before handshake")
        self.stats.keepalives_sent += 1
        self.stats.control_bytes += KEEPALIVE_BYTES
        self.next_keepalive_at = now + self.keepalive_interval
        return KEEPALIVE_BYTES

    # -- transport ----------------------------------------------------------
    def encrypt(self, plaintext: bytes) -> bytes:
        if self._send_key is None:
            raise TunnelError("tunnel not established")
        nonce = self._nonces.next()
        sealed = crypto.seal(self._send_key, nonce, plaintext)
        self.stats.data_packets += 1
        self.stats.data_bytes += len(sealed) + TRANSPORT_OVERHEAD_BYTES - crypto.TAG_SIZE
        return nonce + sealed

    def decrypt(self, blob: bytes) -> bytes:
        if self._recv_key is None:
            raise TunnelError("tunnel not established")
        nonce, sealed = blob[: crypto.NONCE_SIZE], blob[crypto.NONCE_SIZE :]
        # Loopback model: peers share the derivation, so send==recv keys.
        return crypto.open_sealed(self._send_key, nonce, sealed)

    @property
    def epoch(self) -> int:
        return self._epoch
