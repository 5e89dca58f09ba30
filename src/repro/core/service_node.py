"""Service nodes (SNs): the InterEdge's edge compute elements.

An SN (§3.1) is a commodity cluster at a network edge, operated by an IESP,
that terminates ILP pipes from hosts and other SNs, runs the common
execution environment with the standardized service modules, and forwards
via its pipe-terminus.

This class composes the pieces built elsewhere (keystore, decision cache,
execution environment, pipe-terminus) onto a :class:`~repro.netsim.node.NetNode`
so SNs participate in simulated topologies. It also implements:

* host association (the host↔SN PSP handshake + routing state);
* SN↔SN pipes, including on-demand direct pipes across edomains (§3.2);
* the border-SN mapping used for inter-edomain forwarding (§3.2);
* pass-through operation (§3.2) through an :class:`ImposedChain` module;
* simulated-time processing delays from the :class:`CostModel`, so netsim
  experiments observe Table 1-shaped latencies.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol

from ..netsim.engine import Simulator
from ..netsim.link import Link
from ..netsim.node import NetNode
from ..obs import FlightRecorder, MetricsRegistry, NodeObs
from ..obs import enabled_from_env as _obs_enabled_from_env
from .attestation import SoftwareTPM
from .decision_cache import Action, CacheKey, Decision, DecisionCache, ForwardTarget
from .execution_env import ExecutionEnvironment
from .ilp import Flags, ILPHeader, TLV
from .ipc import CostModel, InvocationMode
from .overload import AdmissionConfig, ServicePolicy
from .packet import ILPPacket, Payload, RawIPPacket
from .pipe_terminus import PipeTerminus
from .psp import PeerKeyStore, associate
from .resilience import KeepaliveFrame, PipeHealthMonitor
from .service_module import ServiceModule, Verdict


class ImposedModule(Protocol):
    """Operator-imposed service applied by a pass-through SN (§3.2)."""

    NAME: str

    def impose(
        self, header: ILPHeader, payload: Payload, inbound: bool
    ) -> Optional[ILPHeader]:
        """Return the (possibly rewritten) header to forward, or None to drop."""


class ImposedChain(ServiceModule):
    """A pass-through SN's imposed modules, run as one service module (§3.2).

    A packet from ``next_hop`` is inbound and may only reach a host
    associated here; any other goes out to ``next_hop``. A refusal installs
    a drop; a pass installs a forward carrying the chain's TLV rewrites.
    """

    NAME = "imposed-chain"

    def __init__(self, next_hop: str, chain: list[ImposedModule]) -> None:
        super().__init__()
        self.next_hop = next_hop
        self.chain = chain

    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        src = packet.l3.src
        inbound = src == self.next_hop
        barrier = bool(header.flags & Flags.SLOW_PATH)
        if header.flags & Flags.LAST:
            # Teardown: forget the connection here, then send LAST on where
            # its data goes so the hops behind this one tear down too.
            self.ctx.node.cache.invalidate_connection(header.service_id, header.connection_id)
        key = CacheKey(src, header.service_id, header.connection_id)
        current: Optional[ILPHeader] = header
        for module in self.chain:
            current = module.impose(current, packet.payload, inbound)
            if current is None:
                verdict = Verdict.drop()
                if not barrier:
                    verdict.installs.append((key, Decision.drop()))
                return verdict
        if inbound:
            # An empty route has no PSP association: the egress drops it.
            target = self.ctx.peer_for_host(current.get_str(TLV.DEST_ADDR) or "") or ""
        else:
            target = self.next_hop
        verdict = Verdict.forward(target, current, packet.payload)
        if target and not barrier:
            updates = tuple((t, v) for t, v in current.tlvs.items() if header.tlvs.get(t) != v)
            forward = Decision(Action.FORWARD, (ForwardTarget(target, updates),))
            verdict.installs.append((key, forward))
        return verdict

    # Imposed on all traffic: control packets run the chain like data.
    handle_control = handle_packet


class ServiceNode(NetNode):
    """One InterEdge service node."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        address: str,
        edomain_name: str = "default",
        cache_capacity: int = 65536,
        invocation_mode: InvocationMode = InvocationMode.IPC,
        cost_model: Optional[CostModel] = None,
        tpm: Optional[SoftwareTPM] = None,
    ) -> None:
        super().__init__(sim, name)
        self.address = address
        self.edomain_name = edomain_name
        self.cost_model = cost_model or CostModel()
        self.keystore = PeerKeyStore()
        self.cache = DecisionCache(capacity=cache_capacity)
        self.env = ExecutionEnvironment(self, tpm=tpm)
        self.terminus = PipeTerminus(
            node_address=address,
            keystore=self.keystore,
            cache=self.cache,
            env=self.env,
            transmit=self._transmit,
            invocation_mode=invocation_mode,
            clock=lambda: self.sim.now,
            cost_model=self.cost_model,
        )
        self._addr_to_node: dict[str, NetNode] = {}
        self._associated_hosts: set[str] = set()
        self._border_peers: dict[str, str] = {}  # edomain name -> peer SN addr
        self.core_client: Any = None  # set by Edomain wiring
        self.directory: Any = None  # SN address -> edomain directory (federation)
        #: optional PeeringLedger; cross-edomain transmissions are recorded
        #: so the settlement-free accounting (§5) has ground-truth volumes.
        self.ledger: Any = None
        #: pipe health monitor (keepalives + failure detection); created by
        #: :meth:`enable_health_monitor`, None when resilience is off.
        self.health: Optional[PipeHealthMonitor] = None
        #: core-store watcher that remaps border peers on failover events;
        #: set by :meth:`InterEdge.enable_resilience`.
        self.resilience_agent: Any = None
        self.crashes = 0
        self.raw_packets_forwarded = 0
        #: host address -> egress shaper; installed by the last-hop QoS
        #: service, consulted for every packet leaving toward that host.
        self._egress_shapers: dict[str, Any] = {}
        #: observability bundle (flight recorder + metrics registry);
        #: created by :meth:`enable_observability`, None when obs is off.
        self.obs: Optional[NodeObs] = None
        if _obs_enabled_from_env():
            self.enable_observability()

    # -- wiring -----------------------------------------------------------
    def register_peer_node(self, address: str, node: NetNode) -> None:
        self._addr_to_node[address] = node

    def associate_host(self, host: "Any") -> None:
        """Create the host↔SN PSP association and routing state.

        ``host`` is a :class:`repro.core.host.Host`; typed as Any to avoid a
        circular import.
        """
        associate(self, host)
        self._addr_to_node[host.address] = host
        host.register_first_hop(self)
        self._associated_hosts.add(host.address)

    def establish_pipe(self, other: "ServiceNode", latency: float = 0.005) -> None:
        """Create (or reuse) an SN↔SN pipe with a fresh PSP association."""
        if not self.has_link_to(other):
            Link(self.sim, self, other, latency=latency)
        associate(self, other)
        self._addr_to_node[other.address] = other
        other._addr_to_node[self.address] = self
        # Pipes created after monitoring started are watched immediately
        # (e.g. the failover coordinator pre-establishing border pipes).
        if self.health is not None:
            self.health.watch_peer(other.address)
        if other.health is not None:
            other.health.watch_peer(self.address)

    def has_pipe_to(self, address: str) -> bool:
        return self.keystore.has(address) and address in self._addr_to_node

    def peer_node(self, address: str) -> Optional[NetNode]:
        """The node object registered for a peer address, if any."""
        return self._addr_to_node.get(address)

    def teardown_pipe(self, address: str) -> None:
        """Drop the PSP association and routing entry for a peer.

        Cache entries forwarding via the peer are the caller's concern
        (:meth:`~repro.core.decision_cache.DecisionCache.invalidate_by_target`);
        this only removes the association-level state.
        """
        self.keystore.remove(address)
        self._addr_to_node.pop(address, None)

    def set_border_peer(self, edomain: str, via_address: str) -> None:
        """Record which local peer reaches ``edomain`` (§3.2 mapping)."""
        self._border_peers[edomain] = via_address

    def border_peer_for(self, edomain: str) -> Optional[str]:
        if edomain == self.edomain_name:
            return None
        return self._border_peers.get(edomain)

    def next_hop_for_sn(self, dest_sn: str) -> Optional[str]:
        """Next ILP peer toward a destination SN (§3.2 forwarding mechanics).

        Direct pipes (same edomain mesh, long-lived border pipes, or
        on-demand inter-edomain pipes) win; otherwise traffic relays through
        this edomain's border SN for the destination's edomain.
        """
        if dest_sn == self.address:
            return None
        if self.has_pipe_to(dest_sn):
            return dest_sn
        if self.directory is None:
            return None
        edomain = self.directory.edomain_of(dest_sn)
        if edomain is None:
            return None
        if edomain == self.edomain_name:
            # No direct pipe (checked above), so the destination is not in
            # the mesh (e.g. a customer-premise gateway): route toward its
            # registered uplink SN instead.
            via = self.directory.via_of(dest_sn)
            if via is not None and via != self.address:
                return self.next_hop_for_sn(via)
            return None
        return self.border_peer_for(edomain)

    def route_to_host(self, host_address: str) -> Optional[str]:
        """Return the host address itself if it is associated locally."""
        if host_address in self._associated_hosts:
            return host_address
        return None

    @property
    def associated_hosts(self) -> set[str]:
        return set(self._associated_hosts)

    def configure_pass_through(self, next_hop: str, chain: list[Any]) -> None:
        """Impose ``chain`` on all traffic this SN passes to or from ``next_hop``."""
        self.env.load_imposed(ImposedChain(next_hop, chain))

    # -- observability -----------------------------------------------------
    def enable_observability(
        self, sample_every: int = 1, capacity: int = 4096
    ) -> NodeObs:
        """Arm the flight recorder and metrics registry on this SN.

        Threads one sim-clocked :class:`~repro.obs.FlightRecorder` through
        the terminus, the invocation channel, the execution environment,
        and every loaded enclave (modules loaded later inherit it), and
        attaches the latency histograms the terminus egress records into.
        Idempotent; also armed at construction when ``REPRO_OBS`` is set
        in the environment. ``sample_every=N`` records every Nth ingress
        trace (0 keeps the recorder attached but samples nothing); the
        histograms always see every packet.
        """
        if self.obs is None:
            recorder = FlightRecorder(
                clock=lambda: self.sim.now,
                capacity=capacity,
                sample_every=sample_every,
            )
            self.obs = NodeObs(recorder, MetricsRegistry())
            self.obs.collect = self._collect_obs
            self.terminus.obs = self.obs
            self.terminus.recorder = recorder
            self.terminus.channel.recorder = recorder
            self.env.set_recorder(recorder)
        return self.obs

    def _collect_obs(self) -> None:
        """Copy the stats ledgers into the obs registry (export time only).

        ``overload.sheds`` / ``breaker_trips`` / ``breakers_open`` are the
        names dashboards already read, derived here from the ledgers that
        own them; ``breaker_trips`` therefore restarts with the breakers on
        a crash.
        """
        assert self.obs is not None
        registry = self.obs.registry
        terminus = self.terminus
        guard = terminus.overload
        registry.publish("terminus", terminus.stats)
        registry.publish("cache", self.cache.stats)
        registry.publish("miss_queue", terminus.miss_queue.stats)
        registry.publish("overload", guard.stats)
        registry.counter("overload.sheds").value = guard.stats.shed_packets
        registry.counter("overload.breaker_trips").value = sum(
            breaker.stats.trips for breaker in guard.breakers.values()
        )
        registry.gauge("overload.breakers_open").set(guard.open_count())

    # -- resilience ---------------------------------------------------------
    def enable_health_monitor(
        self,
        interval: float = 0.25,
        suspect_multiple: float = 3.0,
        dead_multiple: float = 6.0,
        initial_delay: Optional[float] = None,
    ) -> PipeHealthMonitor:
        """Start keepalive-based pipe health monitoring on this SN.

        Every current SN↔SN pipe (keystore peer that is not an associated
        host) is watched; pipes established later are watched as they are
        created. Data traffic counts as liveness via the terminus
        ``peer_activity`` hook, so keepalives only flow over idle pipes.
        A call replaces (and stops) any earlier monitor, so its arguments
        always apply and every pipe starts a fresh grace period.
        """
        if self.health is not None:
            self.health.stop()
        self.health = PipeHealthMonitor(
            self,
            interval=interval,
            suspect_multiple=suspect_multiple,
            dead_multiple=dead_multiple,
        )
        self.terminus.peer_activity = self.health.heard
        for peer in self.keystore.contexts:
            node = self._addr_to_node.get(peer)
            if peer not in self._associated_hosts and isinstance(node, ServiceNode):
                self.health.watch_peer(peer)
        self.health.start(initial_delay=initial_delay)
        return self.health

    def set_service_policy(self, service_id: int, policy: ServicePolicy) -> None:
        """Declare a slow-path overload policy for one deployed service.

        Arms the deadline, degradation mode, and circuit breaker for
        ``service_id`` on this SN's terminus. Services without a policy
        keep the pre-overload behavior exactly (failures drop, no breaker).
        """
        self.terminus.overload.set_policy(service_id, policy)

    def enable_admission_control(self, config: AdmissionConfig) -> None:
        """Arm the terminus overload detector (miss-queue depth + punt rate).

        Under pressure it sheds *true-cold* leads only — CONTROL/LAST
        barriers and established (cached) flows are never shed.
        """
        self.terminus.overload.enable_admission(config)

    def crash(self) -> None:
        """Fail this SN: links down, frames dropped, volatile state lost.

        The decision cache is wiped (it is table state in the terminus
        ASIC/soft-switch — gone on power loss); service-module state
        survives only through explicit checkpoints (§3.3), exercised by
        :meth:`failover_to`.
        """
        if self.failed:
            return
        self.crashes += 1
        self.fail()
        self.cache.evict_random_fraction(1.0)
        # The stale shelf and the breakers' EWMA state are volatile too:
        # a rebooted terminus must not serve pre-crash decisions via
        # fail_static or start life with a tripped circuit.
        self.cache.clear_stale()
        self.terminus.overload.reset()
        # Packets parked in the miss queue are in-flight datapath state —
        # lost with the rest of the terminus, accounted as dropped.
        self.terminus.miss_queue.discard_all()

    def restart(self) -> None:
        """Recover from :meth:`crash`: links up, health and routing resynced.

        The health monitor grants every peer a fresh grace period (the
        restarted SN has heard nobody *since boot*, which is not evidence
        of their death), and the resilience agent re-reads the core store
        to pick up any border failover it slept through.
        """
        if not self.failed:
            return
        self.recover()
        if self.health is not None:
            self.health.reset()
        if self.resilience_agent is not None:
            self.resilience_agent.resync()

    # -- datapath -----------------------------------------------------------
    def handle_frame(self, frame: Any, link: Link) -> None:
        if isinstance(frame, KeepaliveFrame):
            if self.health is not None:
                self.health.handle_keepalive(frame)
            return
        if isinstance(frame, RawIPPacket):
            # Backwards compatibility (§3.3): legacy IP traffic is forwarded
            # untouched — the InterEdge changes nothing for unaware hosts.
            self._forward_raw(frame)
            return
        if isinstance(frame, ILPPacket):
            self.terminus.receive(frame)

    def receive_burst(self, frames: Any, link: Link) -> None:
        """Feed a coalesced link burst through the terminus batch ingress.

        Consecutive ILP packets in the burst become one
        :meth:`PipeTerminus.receive_batch` call, which amortizes clock,
        stats, and flow-run work across the burst; other frame kinds (raw
        IP, control objects) dispatch individually in arrival order. A
        tap sees every frame of the burst before the burst is processed.
        """
        if self.failed:
            self.frames_dropped_failed += len(frames)
            return
        if self.rx_tap is not None:
            for frame in frames:
                self.rx_tap(frame, link)
        self.frames_received += len(frames)
        batch: list[ILPPacket] = []
        for frame in frames:
            if isinstance(frame, ILPPacket):
                batch.append(frame)
                continue
            if batch:
                self.terminus.receive_batch(batch)
                batch = []
            self.handle_frame(frame, link)
        if batch:
            self.terminus.receive_batch(batch)

    def _forward_raw(self, packet: RawIPPacket) -> None:
        node = self._addr_to_node.get(packet.l3.dst)
        if node is not None and self.has_link_to(node):
            self.send_frame(packet, node)
            self.raw_packets_forwarded += 1

    def emit(self, peer: str, header: ILPHeader, payload: Payload) -> bool:
        """Originate a packet from this SN (used by service modules)."""
        self.terminus.pending_delay = 0.0
        return self.terminus.send(peer, header, payload)

    def set_egress_shaper(self, host_address: str, shaper: Any) -> None:
        """Install a QoS shaper on the pipe toward an associated host (§6.2)."""
        self._egress_shapers[host_address] = shaper

    def clear_egress_shaper(self, host_address: str) -> None:
        self._egress_shapers.pop(host_address, None)

    def _transmit(self, peer: str, packets: list[ILPPacket]) -> int:
        """The terminus transmit hook: one next hop's burst, kept a burst."""
        node = self._addr_to_node.get(peer)
        if node is None or not self.has_link_to(node):
            return 0
        if self.ledger is not None and self.directory is not None:
            peer_edomain = self.directory.edomain_of(peer)
            if peer_edomain is not None and peer_edomain != self.edomain_name:
                self.ledger.record_traffic(
                    self.edomain_name,
                    peer_edomain,
                    sum(packet.wire_size for packet in packets),
                    len(packets),
                )
        shaper = self._egress_shapers.get(peer)
        if shaper is not None:
            for packet in packets:
                shaper.submit(packet, lambda pkt: self.send_frame(pkt, node))
            return len(packets)
        delay = self.terminus.pending_delay
        if delay > 0:
            # Handle-free scheduling: the burst's one delivery event is never
            # cancelled, so the datapath skips the EventHandle allocation.
            self.sim.post(delay, self.send_burst, packets, node)
            return len(packets)
        return self.send_burst(packets, node)

    # -- operations -------------------------------------------------------
    def load_service(self, module: Any, use_enclave: Optional[bool] = None) -> Any:
        return self.env.load(module, use_enclave=use_enclave)

    def failover_to(self, standby: "ServiceNode") -> int:
        """Checkpoint all module state and ship it to a standby SN (§3.3)."""
        self.env.checkpoint_all()
        count = self.env.checkpoints.transfer_to(standby.env.checkpoints)
        standby.env.restore_all()
        return count

    def __repr__(self) -> str:  # pragma: no cover
        return f"ServiceNode({self.name}@{self.address}, edomain={self.edomain_name})"
