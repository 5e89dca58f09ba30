"""Cluster interconnection service (§6.3 — a paper prototype service).

Connects geographically separate compute clusters into one logical fabric:
each cluster registers its internal prefix with its first-hop SN, and the
service routes any packet addressed inside a member prefix to the SN that
registered it — a multi-site overlay built from the same delivery
primitives (the VPN-between-datacenters use case).

Fabrics are named; membership lives in the global lookup service's
service-node directory, keyed ``cluster:<fabric>:<prefix>``.
"""

from __future__ import annotations

import ipaddress
from typing import Any, Optional

from ..core.ilp import ILPHeader, TLV
from ..core.service_module import ServiceModule, Verdict

from ..core.service_module import WellKnownService as _WKS
SERVICE_ID_CLUSTER = _WKS.CLUSTER_INTERCONNECT

OP_REGISTER_PREFIX = b"register-prefix"
TLV_FABRIC = TLV.TOPIC
TLV_PREFIX = TLV.SERVICE_PRIVATE + 6


class ClusterInterconnectService(ServiceModule):
    """Prefix-routed multi-cluster overlay."""

    SERVICE_ID = SERVICE_ID_CLUSTER
    NAME = "cluster-interconnect"
    VERSION = "1.0"

    def __init__(self) -> None:
        super().__init__()
        self.prefixes_registered = 0
        self.cross_cluster_packets = 0

    # -- control: cluster prefix registration -------------------------------
    def handle_control(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        if header.tlvs.get(TLV.SERVICE_OPTS, b"") != OP_REGISTER_PREFIX:
            return Verdict.drop()
        fabric = header.get_str(TLV_FABRIC)
        prefix = header.get_str(TLV_PREFIX)
        gateway = header.get_str(TLV.SRC_HOST)
        if fabric is None or prefix is None or gateway is None:
            return Verdict.drop()
        try:
            ipaddress.IPv4Network(prefix)
        except ValueError:
            return Verdict.drop()
        lookup = self.ctx.control_plane().lookup
        lookup.register_service_node(
            f"cluster:{fabric}:{prefix}", self.ctx.node_address
        )
        lookup.register_service_node(f"cluster:{fabric}:gateways:{prefix}", gateway)
        self.prefixes_registered += 1
        return Verdict(dropped=False)

    # -- data path -----------------------------------------------------------
    def _route_in_fabric(
        self, fabric: str, dest: str
    ) -> Optional[tuple[str, str]]:
        """(home SN, gateway host) for the member prefix containing dest."""
        assert self.ctx is not None
        lookup = self.ctx.control_plane().lookup
        addr = ipaddress.IPv4Address(dest)
        best: Optional[tuple[int, str, str]] = None
        prefix_key = f"cluster:{fabric}:"
        # Scan registered prefixes for this fabric (longest match wins).
        for key in lookup.service_keys(prefix_key):
            if ":gateways:" in key:
                continue
            prefix = key[len(prefix_key):]
            network = ipaddress.IPv4Network(prefix)
            if addr in network:
                sns = lookup.service_nodes(key)
                gateways = lookup.service_nodes(
                    f"cluster:{fabric}:gateways:{prefix}"
                )
                if sns and gateways:
                    candidate = (network.prefixlen, sorted(sns)[0], sorted(gateways)[0])
                    if best is None or candidate[0] > best[0]:
                        best = candidate
        if best is None:
            return None
        return best[1], best[2]

    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        fabric = header.get_str(TLV_FABRIC)
        dest = header.get_str(TLV.DEST_ADDR)
        if fabric is None or dest is None:
            return Verdict.drop()
        # At the destination cluster's SN: hand to the cluster gateway host.
        local = self.ctx.peer_for_host(dest)
        if local is not None:
            return Verdict.forward(local, header, packet.payload)
        route = self._route_in_fabric(fabric, dest)
        if route is None:
            return Verdict.drop()
        home_sn, gateway = route
        if home_sn == self.ctx.node_address:
            # Dest prefix is homed here: deliver to the cluster gateway.
            peer = self.ctx.peer_for_host(gateway)
            if peer is None:
                return Verdict.drop()
            self.cross_cluster_packets += 1
            return Verdict.forward(peer, header, packet.payload)
        out = header.with_tlvs({TLV.DEST_SN: home_sn.encode()})
        next_hop = self.ctx.next_hop_for_sn(home_sn)
        if next_hop is None:
            return Verdict.drop()
        self.cross_cluster_packets += 1
        return Verdict.forward(next_hop, out, packet.payload)


# -- host-side helpers ------------------------------------------------------

def register_cluster_prefix(gateway_host, fabric: str, prefix: str) -> bool:
    """Cluster gateway announces its internal prefix to the fabric."""
    return gateway_host.send_control(
        SERVICE_ID_CLUSTER,
        {
            TLV.SERVICE_OPTS: OP_REGISTER_PREFIX,
            TLV_FABRIC: fabric.encode(),
            TLV_PREFIX: prefix.encode(),
        },
    )


def send_cross_cluster(host, fabric: str, dest_internal_addr: str, data: bytes):
    """Send from one cluster to an address inside another member cluster."""
    conn = host.connect(
        SERVICE_ID_CLUSTER,
        dest_addr=dest_internal_addr,
        tlvs={TLV_FABRIC: fabric.encode()},
        allow_direct=False,
    )
    host.send(conn, data)
    return conn
