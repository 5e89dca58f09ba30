"""Accelerated library variants (§3.1).

"Service modules can also have alternative versions that directly leverage
various accelerators when available, but service modules must have a basic
version that only requires general compute support."

We model the *deployment* half of that story: accelerated variants expose
byte-identical interfaces to the basic libraries in
:mod:`repro.libs.cryptolib` / :mod:`repro.libs.media`, so an operator can
swap them into the execution environment (``env.libs.provide``) without
any service module changing — the WORA contract. Acceleration is modeled
as a virtual-time cost factor (the hardware does the same math faster),
plus operation counters a capacity planner can read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cryptolib import CryptoLibrary
from .media import MediaLibrary


@dataclass(frozen=True)
class AcceleratorProfile:
    """What the operator's hardware buys, as virtual-time cost factors."""

    name: str
    crypto_speedup: float = 8.0  # AES-NI-class
    media_speedup: float = 20.0  # GPU-encoder-class

    def __post_init__(self) -> None:
        if self.crypto_speedup < 1.0 or self.media_speedup < 1.0:
            raise ValueError("an accelerator cannot be slower than software")


#: A typical SN build-out per §3.1's examples [56] (AES-NI) and [46] (GPU).
DEFAULT_PROFILE = AcceleratorProfile(name="aesni+gpu")


class AcceleratedCryptoLibrary(CryptoLibrary):
    """Drop-in crypto library backed by a crypto engine.

    Same API and results as :class:`CryptoLibrary`; accounts accelerated
    virtual cost so cost models and capacity planning see the speedup.
    """

    #: virtual seconds per byte in pure software (a modeled constant, not
    #: measured on real silicon)
    SOFTWARE_COST_PER_BYTE = 12e-9

    def __init__(self, profile: AcceleratorProfile = DEFAULT_PROFILE) -> None:
        super().__init__()
        self.profile = profile
        self.virtual_seconds = 0.0

    def _account(self, n_bytes: int) -> None:
        self.virtual_seconds += (
            n_bytes * self.SOFTWARE_COST_PER_BYTE / self.profile.crypto_speedup
        )

    def encrypt(self, key: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        self._account(len(plaintext))
        return super().encrypt(key, plaintext, aad)

    def decrypt(self, key: bytes, blob: bytes, aad: bytes = b"") -> bytes:
        self._account(len(blob))
        return super().decrypt(key, blob, aad)


class AcceleratedMediaLibrary(MediaLibrary):
    """Drop-in media library backed by a hardware encoder."""

    def __init__(self, profile: AcceleratorProfile = DEFAULT_PROFILE) -> None:
        super().__init__()
        self.profile = profile
        self.virtual_seconds = 0.0

    def transcode(self, chunk: bytes, profile_name: str) -> bytes:
        self.virtual_seconds += (
            self.cpu_cost(len(chunk), profile_name) / self.profile.media_speedup
        )
        return super().transcode(chunk, profile_name)


def install_accelerated_libraries(
    env, profile: AcceleratorProfile = DEFAULT_PROFILE
) -> None:
    """Operator hook: swap accelerated variants into an SN's environment.

    Service modules keep calling ``ctx.libs.get("crypto"/"media")``; only
    the implementation underneath changes (§3.1).
    """
    env.libs.provide("crypto", AcceleratedCryptoLibrary(profile))
    env.libs.provide("media", AcceleratedMediaLibrary(profile))
