"""Shared service-module plumbing.

Most point-to-point services end with the same step: route a packet toward
the host named in DEST_ADDR — locally if associated here, else via the
destination's SN (from the DEST_SN TLV or the lookup service) using the
§3.2 inter-edomain forwarding rules. This helper implements that step once.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.ilp import ILPHeader, TLV
from ..core.packet import Payload
from ..core.service_module import Verdict


def route_toward(ctx: Any, header: ILPHeader) -> tuple[Optional[str], ILPHeader]:
    """The next ILP peer for a DEST_ADDR-addressed packet, and its header.

    The peer is None when the packet is unroutable. The destination SN
    comes from the DEST_SN TLV, else from the lookup service; on a lookup
    hit the returned header pins it as DEST_SN, so downstream SNs need not
    resolve again.
    """
    dest = header.get_str(TLV.DEST_ADDR)
    if dest is None:
        return None, header
    local = ctx.peer_for_host(dest)
    if local is not None:
        return local, header
    dest_sn = header.get_str(TLV.DEST_SN)
    if dest_sn is None:
        control = ctx.control_plane()
        record = None if control is None else control.lookup.address_record(dest)
        if record is None or not record.associated_sns:
            return None, header
        dest_sn = record.associated_sns[0]
        header = header.with_tlvs({TLV.DEST_SN: dest_sn.encode()})
    if dest_sn == ctx.node_address:
        return None, header
    return ctx.next_hop_for_sn(dest_sn), header


def deliver_toward(ctx: Any, header: ILPHeader, payload: Payload) -> Verdict:
    """Forward toward DEST_ADDR, or drop if unroutable."""
    peer, header = route_toward(ctx, header)
    if peer is None:
        return Verdict.drop()
    return Verdict.forward(peer, header, payload)
