"""ToR-like mixnet service (§6.2).

A generalization of private relay to arbitrary depth: the client picks a
circuit of k SNs and onion-wraps the message so each mix peels exactly one
layer, learning only its predecessor and successor. Mixes run in enclaves
and add a small deterministic-random forwarding delay (batching stand-in),
so timing correlation across the circuit is blunted.
"""

from __future__ import annotations

import json
import random
import zlib
from typing import Any, Optional

from ..core.ilp import ILPHeader, TLV
from ..core.packet import make_payload
from ..core.service_module import ServiceModule, Verdict, WellKnownService
from ..libs.cryptolib import CryptoLibrary
from .common import deliver_toward


def mix_key(sn_address: str) -> bytes:
    """A mix's published wrapping key (deterministic for simulation)."""
    from ..core import crypto

    return crypto.derive_key(
        crypto.derive_key(b"mixnet-root-secret".ljust(16, b"\x00"), "mix"),
        "key",
        sn_address.encode(),
    )


def build_circuit(
    crypto_lib: CryptoLibrary, circuit: list[str], dest_host: str, data: bytes
) -> bytes:
    """Onion-wrap ``data`` for a circuit of SN addresses (entry first)."""
    if not circuit:
        raise ValueError("circuit needs at least one mix")
    # Innermost layer: the exit's instruction to deliver to the host.
    blob = crypto_lib.encrypt(
        mix_key(circuit[-1]),
        json.dumps({"deliver": dest_host, "data": data.hex()}).encode(),
    )
    # Wrap outward: each earlier mix learns only the next mix.
    for i in range(len(circuit) - 2, -1, -1):
        blob = crypto_lib.encrypt(
            mix_key(circuit[i]),
            json.dumps({"next": circuit[i + 1], "blob": blob.hex()}).encode(),
        )
    return blob


class MixnetService(ServiceModule):
    """One mix node; every participating SN runs the same module."""

    SERVICE_ID = WellKnownService.MIXNET
    NAME = "mixnet"
    VERSION = "1.0"
    REQUIRES_ENCLAVE = True

    #: max extra per-hop delay in seconds (deterministic rng per node)
    MIX_DELAY = 0.002

    def __init__(self) -> None:
        super().__init__()
        self._crypto = CryptoLibrary()
        self._rng = random.Random(0xA11CE)
        self.peeled = 0
        self.delivered = 0

    def on_attach(self) -> None:
        assert self.ctx is not None
        # Stable per-node seed: builtin hash() is PYTHONHASHSEED-randomized,
        # which would make mix delays differ between otherwise identical runs.
        self._rng = random.Random(zlib.crc32(self.ctx.node_address.encode()))

    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        try:
            peeled = json.loads(
                self._crypto.decrypt(
                    mix_key(self.ctx.node_address), packet.payload.data
                ).decode()
            )
        except Exception:
            # Not a layer for us: relay toward DEST_ADDR/DEST_SN like any
            # other service (covers both border relaying and the final hop
            # to a locally associated host).
            return deliver_toward(self.ctx, header, packet.payload)

        self.peeled += 1
        if "next" in peeled:
            hop = peeled["next"].encode()
            tlvs = {TLV.DEST_SN: hop, TLV.DEST_ADDR: hop}
            payload = make_payload(bytes.fromhex(peeled["blob"]))
        elif "deliver" in peeled:
            tlvs = {TLV.DEST_ADDR: peeled["deliver"].encode()}
            payload = make_payload(bytes.fromhex(peeled["data"]))
            self.delivered += 1
        else:
            return Verdict.drop()

        out = ILPHeader(self.SERVICE_ID, header.connection_id, tlvs=tlvs)
        verdict = deliver_toward(self.ctx, out, payload)
        if verdict.emits and self.MIX_DELAY > 0:
            # Defer the emission by a mixing delay: re-emit via the context
            # scheduler instead of returning it synchronously.
            emits = verdict.emits
            verdict = Verdict()
            delay = self._rng.uniform(0, self.MIX_DELAY)
            ctx = self.ctx

            def _later(emits=emits) -> None:
                for emit in emits:
                    ctx.send_ilp(emit.peer, emit.header, emit.payload)

            ctx.schedule(delay, _later)
        return verdict


def send_via_mixnet(
    host,
    circuit: list[str],
    dest_host: str,
    data: bytes,
    crypto_lib: Optional[CryptoLibrary] = None,
):
    """Client-side helper: send one message through a mix circuit."""
    lib = crypto_lib or CryptoLibrary()
    blob = build_circuit(lib, circuit, dest_host, data)
    conn = host.connect(
        WellKnownService.MIXNET,
        dest_addr=circuit[0],
        dest_sn=circuit[0],
        allow_direct=False,
    )
    host.send(conn, blob)
    return conn
