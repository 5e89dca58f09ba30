"""Standardized InterEdge service modules (§6).

Each module is written against the common execution environment
(:mod:`repro.core.execution_env`) — the WORA contract — and registered
with a :class:`~repro.core.service_module.ServiceRegistry` under its
well-known service ID. :func:`standard_registry` builds the governance
body's default catalog.
"""

from ..core.service_module import ServiceRegistry, Standardization
from .attest import AttestationClient, AttestationService
from .bulk import BulkDeliveryService, BulkReceiver, offer_object
from .caching import CacheStore, CachingBundleService
from .cluster import (
    ClusterInterconnectService,
    register_cluster_prefix,
    send_cross_cluster,
)
from .common import deliver_toward, route_toward
from .ddos import (
    DDoSProtectionService,
    ProtectionPolicy,
    make_puzzle_challenge,
    solve_puzzle,
    subscribe_protection,
)
from .firewall import FirewallService, ImposedFirewall, Rule, RuleSet
from .ip_delivery import IPDeliveryService
from .mixnet import MixnetService, build_circuit, mix_key, send_via_mixnet
from .mobility import MobilityService, connect_to_mobile, send_binding_update
from .msgqueue import MessageQueueService, QueueState, ack, produce, queue_home, subscribe
from .multipoint import (
    AnycastService,
    MulticastService,
    MultipointService,
    PubSubService,
    join_group,
    leave_group,
    publish,
    register_sender,
    request_replay,
)
from .null_service import NullService
from .odns import ODNSClient, ODNSProxyService, ODNSResolver
from .private_relay import (
    PrivateRelayService,
    relay_key,
    reply_via_relay,
    send_via_relay,
    wrap_for_relay,
)
from .qos import (
    EgressShaper,
    LastHopQoSService,
    QoSSpec,
    StreamClass,
    clear_qos,
    request_qos,
)
from .sdwan import ImposedSDWAN, PathMetric, PathSelector, SDWANService
from .timesync import GPSClock, TimeOrderedService
from .transcode import TranscodeBundleService, set_rendition
from .vpn import VPNAuthenticator, VPNService, register_vpn_endpoint
from .ztna import PosturePolicy, ZTNAPolicy, ZTNAService, make_setup_packets

#: Every standardized module class, in service-id order.
ALL_SERVICES = [
    NullService,
    IPDeliveryService,
    CachingBundleService,
    PubSubService,
    AnycastService,
    MulticastService,
    LastHopQoSService,
    FirewallService,
    ZTNAService,
    SDWANService,
    DDoSProtectionService,
    ODNSProxyService,
    PrivateRelayService,
    MixnetService,
    MessageQueueService,
    BulkDeliveryService,
    TimeOrderedService,
    VPNService,
    AttestationService,
    MobilityService,
    ClusterInterconnectService,
    TranscodeBundleService,
]


def standard_registry() -> ServiceRegistry:
    """The governance body's default catalog: everything REQUIRED."""
    registry = ServiceRegistry()
    for module_cls in ALL_SERVICES:
        registry.register(module_cls, Standardization.REQUIRED)
    return registry


__all__ = [
    "ALL_SERVICES",
    "AnycastService",
    "AttestationClient",
    "AttestationService",
    "BulkDeliveryService",
    "BulkReceiver",
    "CacheStore",
    "CachingBundleService",
    "ClusterInterconnectService",
    "DDoSProtectionService",
    "EgressShaper",
    "FirewallService",
    "GPSClock",
    "IPDeliveryService",
    "ImposedFirewall",
    "ImposedSDWAN",
    "LastHopQoSService",
    "MessageQueueService",
    "MixnetService",
    "MobilityService",
    "MulticastService",
    "MultipointService",
    "NullService",
    "ODNSClient",
    "ODNSProxyService",
    "ODNSResolver",
    "PathMetric",
    "PathSelector",
    "PosturePolicy",
    "PrivateRelayService",
    "ProtectionPolicy",
    "PubSubService",
    "QoSSpec",
    "QueueState",
    "Rule",
    "RuleSet",
    "SDWANService",
    "StreamClass",
    "TimeOrderedService",
    "TranscodeBundleService",
    "VPNAuthenticator",
    "VPNService",
    "ZTNAPolicy",
    "ZTNAService",
    "ack",
    "build_circuit",
    "clear_qos",
    "connect_to_mobile",
    "deliver_toward",
    "join_group",
    "leave_group",
    "make_puzzle_challenge",
    "make_setup_packets",
    "mix_key",
    "offer_object",
    "produce",
    "publish",
    "queue_home",
    "register_cluster_prefix",
    "register_sender",
    "register_vpn_endpoint",
    "relay_key",
    "reply_via_relay",
    "request_qos",
    "request_replay",
    "route_toward",
    "send_binding_update",
    "send_cross_cluster",
    "send_via_mixnet",
    "set_rendition",
    "send_via_relay",
    "solve_puzzle",
    "standard_registry",
    "subscribe",
    "subscribe_protection",
    "wrap_for_relay",
]
