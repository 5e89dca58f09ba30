"""Transcode bundle (§3.1 library list, §3.2 bundles, §5 payment models).

A second standardized bundle (beside caching): delivery + edge
re-encoding for live media, where caching is useless (every frame is new)
but downscaling at the edge saves the last-mile. The sender pushes
full-rate chunks; the *receiver's* first-hop SN re-encodes each chunk to
the profile the receiver asked for — per-receiver renditions from one
source stream.

Receivers pick their rendition out of band (a control message), which is
the §3.2 second invocation mode applied to a bundle option.
"""

from __future__ import annotations

from typing import Any

from ..core.ilp import ILPHeader, TLV
from ..core.packet import make_payload
from ..core.service_module import ServiceModule, Verdict, WellKnownService
from .common import deliver_toward

OP_SET_PROFILE = b"set-profile"
TLV_PROFILE = TLV.SERVICE_PRIVATE + 7


class TranscodeBundleService(ServiceModule):
    """Delivery + receiver-side edge re-encoding."""

    SERVICE_ID = WellKnownService.TRANSCODE_BUNDLE
    NAME = "transcode-bundle"
    VERSION = "1.0"

    def __init__(self) -> None:
        super().__init__()
        #: receiver host -> requested profile name
        self.profiles: dict[str, str] = {}
        self.chunks_transcoded = 0
        self.chunks_passed = 0

    # -- control: receivers pick their rendition ---------------------------
    def handle_control(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        if header.tlvs.get(TLV.SERVICE_OPTS, b"") != OP_SET_PROFILE:
            return Verdict.drop()
        receiver = header.get_str(TLV.SRC_HOST)
        profile = header.get_str(TLV_PROFILE)
        if receiver is None or profile is None:
            return Verdict.drop()
        media = self.ctx.libs.get("media")
        if profile not in media.profiles():
            return Verdict.drop()
        self.profiles[receiver] = profile
        # Persist the choice as standardized per-customer config (§5
        # portability: it moves with the customer between IESPs).
        self.ctx.config.set(self.SERVICE_ID, receiver, "profile", profile)
        return Verdict(dropped=False)

    # -- data path -----------------------------------------------------------
    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        dest = header.get_str(TLV.DEST_ADDR)
        if dest is None:
            return Verdict.drop()
        local = self.ctx.peer_for_host(dest)
        if local is None:
            # Not the receiver's SN yet: plain delivery (no re-encode
            # upstream — the edge nearest the receiver knows the rendition).
            self.chunks_passed += 1
            return deliver_toward(self.ctx, header, packet.payload)
        profile = self.profiles.get(dest) or self.ctx.config.get(
            self.SERVICE_ID, dest, "profile"
        )
        if profile is None:
            self.chunks_passed += 1
            return Verdict.forward(local, header, packet.payload)
        media = self.ctx.libs.get("media")
        encoded = media.transcode(packet.payload.data, profile)
        self.chunks_transcoded += 1
        return Verdict.forward(local, header, make_payload(encoded))

    def checkpoint(self) -> dict[str, Any]:
        return {"profiles": dict(self.profiles)}

    def restore(self, state: dict[str, Any]) -> None:
        self.profiles = dict(state.get("profiles", {}))


def set_rendition(host, profile: str) -> bool:
    """Receiver-side: ask the first-hop SN for a rendition (OOB, §3.2)."""
    return host.send_control(
        WellKnownService.TRANSCODE_BUNDLE,
        {TLV.SERVICE_OPTS: OP_SET_PROFILE, TLV_PROFILE: profile.encode()},
    )
