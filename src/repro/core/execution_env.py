"""The common execution environment (WORA runtime) of a service node.

§3.1: all SNs run a common execution environment exposing a few basic
primitives — sending/receiving packets over ILP, reading and updating
configuration, checkpointing state for fault tolerance — plus an extensible
library registry (cryptography, regex matching, media re-encoding). Every
service module is written against exactly this surface, which is what makes
the ecosystem write-once-run-anywhere.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..obs.recorder import NULL_RECORDER
from .attestation import PCR_SERVICES, SoftwareTPM
from .decision_cache import CacheKey, Decision
from .enclave import Enclave, module_image
from .ilp import ILPHeader
from .packet import Payload
from .service_module import ServiceError, ServiceModule, Verdict

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.recorder import FlightRecorder, NullRecorder
    from .service_node import ServiceNode


class ConfigStore:
    """Per-service configuration, standardized alongside semantics (§5).

    Keys are (service_id, customer_scope, name). Standardizing the schema is
    what gives customers portability between IESPs — tests assert that a
    config written for one SN applies unchanged on another IESP's SN.
    """

    def __init__(self) -> None:
        self._data: dict[tuple[int, str, str], Any] = {}
        self._watchers: list[Callable[[int, str, str, Any], None]] = []

    def set(self, service_id: int, scope: str, name: str, value: Any) -> None:
        self._data[(service_id, scope, name)] = value
        for watcher in self._watchers:
            watcher(service_id, scope, name, value)

    def get(self, service_id: int, scope: str, name: str, default: Any = None) -> Any:
        return self._data.get((service_id, scope, name), default)

    def scope_items(self, service_id: int, scope: str) -> dict[str, Any]:
        return {
            name: value
            for (sid, sc, name), value in self._data.items()
            if sid == service_id and sc == scope
        }

    def scopes(self, service_id: int) -> set[str]:
        return {sc for (sid, sc, _name) in self._data if sid == service_id}

    def watch(self, callback: Callable[[int, str, str, Any], None]) -> None:
        self._watchers.append(callback)

    def unwatch(self, callback: Callable[[int, str, str, Any], None]) -> bool:
        """Remove one registration of ``callback``; True if removed."""
        try:
            self._watchers.remove(callback)
        except ValueError:
            return False
        return True

    def export(self) -> dict[tuple[int, str, str], Any]:
        """Snapshot used to port a customer's config to another IESP."""
        return dict(self._data)

    def import_config(self, snapshot: dict[tuple[int, str, str], Any]) -> None:
        for (service_id, scope, name), value in snapshot.items():
            self.set(service_id, scope, name, value)


class OffPathStorage:
    """Off-path persistent KV storage (§3.1 datapath: the slow, durable tier).

    Reads/writes are synchronous here; the simulated-time cost model charges
    them separately from fast-path work.
    """

    def __init__(self) -> None:
        self._data: dict[str, bytes] = {}
        self.reads = 0
        self.writes = 0

    def put(self, key: str, value: bytes) -> None:
        self.writes += 1
        self._data[key] = value

    def get(self, key: str) -> Optional[bytes]:
        self.reads += 1
        return self._data.get(key)

    def delete(self, key: str) -> bool:
        return self._data.pop(key, None) is not None

    def keys(self, prefix: str = "") -> list[str]:
        return [k for k in self._data if k.startswith(prefix)]

    def __len__(self) -> int:
        return len(self._data)


class CheckpointManager:
    """Checkpoint/restore of module state for standby replication (§3.3)."""

    def __init__(self) -> None:
        self._checkpoints: dict[int, dict[str, Any]] = {}

    def save(self, service_id: int, state: dict[str, Any]) -> None:
        self._checkpoints[service_id] = state

    def load(self, service_id: int) -> Optional[dict[str, Any]]:
        return self._checkpoints.get(service_id)

    def transfer_to(self, other: "CheckpointManager") -> int:
        """Ship all checkpoints to a standby node's manager."""
        other._checkpoints.update(self._checkpoints)
        return len(self._checkpoints)


class LibraryRegistry:
    """The extensible library set of the execution environment (§3.1)."""

    def __init__(self) -> None:
        self._libs: dict[str, Any] = {}

    def provide(self, name: str, library: Any) -> None:
        self._libs[name] = library

    def get(self, name: str) -> Any:
        try:
            return self._libs[name]
        except KeyError:
            raise ServiceError(f"execution environment lacks library {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._libs

    def names(self) -> list[str]:
        return sorted(self._libs)


@dataclass
class ServiceContext:
    """The capability handle a module receives at attach time.

    Everything a module may do flows through here; modules never touch the
    node, links, or keystore directly (that is the WORA contract).
    """

    node: "ServiceNode"
    service_id: int
    config: ConfigStore
    storage: OffPathStorage
    libs: LibraryRegistry
    checkpoints: CheckpointManager

    @property
    def node_address(self) -> str:
        return self.node.address

    @property
    def edomain_name(self) -> str:
        return self.node.edomain_name

    def now(self) -> float:
        return self.node.sim.now

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any):
        return self.node.sim.schedule(delay, callback, *args)

    def send_ilp(self, peer: str, header: ILPHeader, payload: Payload) -> bool:
        """Originate an ILP packet from this SN (control or data)."""
        return self.node.emit(peer, header, payload)

    def install_decision(self, key: CacheKey, decision: Decision) -> None:
        self.node.terminus.cache.install(key, decision, now=self.now())

    def invalidate_connection(self, connection_id: int) -> int:
        return self.node.terminus.cache.invalidate_connection(
            self.service_id, connection_id
        )

    def decision_recently_used(self, key: CacheKey, window: float) -> bool:
        return self.node.terminus.cache.recently_used(key, self.now(), window)

    def peer_for_edomain(self, edomain: str) -> Optional[str]:
        """Border SN (in this edomain) that reaches the given edomain."""
        return self.node.border_peer_for(edomain)

    def peer_for_host(self, host_address: str) -> Optional[str]:
        """Next-hop peer toward a host, if this node knows one."""
        return self.node.route_to_host(host_address)

    def next_hop_for_sn(self, dest_sn: str) -> Optional[str]:
        """Next ILP peer toward a destination SN (§3.2 forwarding)."""
        return self.node.next_hop_for_sn(dest_sn)

    def control_plane(self) -> Any:
        """This edomain's core store client (§6 membership protocols)."""
        return self.node.core_client

    def offload_engine(self) -> Any:
        """The terminus offload programs (Appendix B.1) — services install
        match+action rules and meters here, within their quota."""
        return self.node.terminus.offload


@dataclass
class _LoadedService:
    module: ServiceModule
    enclave: Optional[Enclave]


class ExecutionEnvironment:
    """Hosts the service modules of one SN."""

    def __init__(self, node: "ServiceNode", tpm: Optional[SoftwareTPM] = None) -> None:
        self.node = node
        self.config = ConfigStore()
        self.storage = OffPathStorage()
        self.libs = LibraryRegistry()
        self.checkpoints = CheckpointManager()
        self.tpm = tpm or SoftwareTPM()
        #: Flight recorder for dispatch spans; the shared no-op until
        #: :meth:`set_recorder` installs a real one.
        self.recorder: "FlightRecorder | NullRecorder" = NULL_RECORDER
        self._services: dict[int, _LoadedService] = {}
        #: A pass-through SN's imposed chain (see :meth:`load_imposed`).
        self._imposed: Optional[_LoadedService] = None
        #: Injected per-service answer delay in virtual seconds (netsim
        #: fault plans); ``inf`` is a hung service. Empty when healthy. The
        #: terminus compares it with each punt's deadline.
        self.service_delay: dict[int, float] = {}
        # Every SN ships the standard library set (§3.1); operators may
        # later swap in accelerated variants via libs.provide().
        from ..libs import install_standard_libraries

        install_standard_libraries(self)

    def load(
        self,
        module: ServiceModule,
        use_enclave: Optional[bool] = None,
    ) -> ServiceModule:
        """Deploy a module, measure it into the TPM, attach its context."""
        service_id = module.SERVICE_ID
        if service_id in self._services:
            raise ServiceError(f"service {service_id} already loaded")
        in_enclave = (
            module.REQUIRES_ENCLAVE if use_enclave is None else use_enclave
        )
        image = module_image(type(module))
        self.tpm.extend(PCR_SERVICES, hashlib.sha256(image).digest())
        enclave = (
            Enclave(module.NAME, image, tpm=self.tpm) if in_enclave else None
        )
        if enclave is not None:
            enclave.recorder = self.recorder
        ctx = ServiceContext(
            node=self.node,
            service_id=service_id,
            config=self.config,
            storage=self.storage,
            libs=self.libs,
            checkpoints=self.checkpoints,
        )
        module.attach(ctx)
        self._services[service_id] = _LoadedService(module=module, enclave=enclave)
        return module

    def load_imposed(self, module: ServiceModule) -> None:
        """Deploy a pass-through SN's imposed chain (§3.2) as the module of
        every service ID no loaded module claims."""
        self.load(module, use_enclave=False)
        self._imposed = self._services.pop(module.SERVICE_ID)

    def unload(self, service_id: int) -> None:
        self._services.pop(service_id, None)

    def _loaded(self, service_id: int) -> Optional[_LoadedService]:
        """The module loaded for this ID, else the node's imposed chain."""
        return self._services.get(service_id, self._imposed)

    def has_service(self, service_id: int) -> bool:
        return self._loaded(service_id) is not None

    def service(self, service_id: int) -> ServiceModule:
        try:
            return self._services[service_id].module
        except KeyError:
            raise ServiceError(f"service {service_id} not deployed") from None

    def enclave_for(self, service_id: int) -> Optional[Enclave]:
        loaded = self._loaded(service_id)
        return loaded.enclave if loaded else None

    def set_recorder(self, recorder: "FlightRecorder | NullRecorder") -> None:
        """Thread a flight recorder through dispatch and loaded enclaves.

        Modules loaded later inherit it at :meth:`load` time.
        """
        self.recorder = recorder
        for loaded in self._services.values():
            if loaded.enclave is not None:
                loaded.enclave.recorder = recorder

    def service_ids(self) -> list[int]:
        return sorted(self._services)

    # -- fault injection ---------------------------------------------------
    def inject_slowdown(self, service_id: int, extra: float) -> None:
        """Every invocation of ``service_id`` now takes ``extra`` more
        virtual seconds (timing out when a deadline is tighter)."""
        self.service_delay[service_id] = float(extra)

    def inject_hang(self, service_id: int) -> None:
        """``service_id`` stops answering punts until cleared."""
        self.service_delay[service_id] = math.inf

    def clear_service_fault(self, service_id: int) -> bool:
        """Heal a service; True when a fault was actually present."""
        return self.service_delay.pop(service_id, None) is not None

    def dispatch(self, header: ILPHeader, packet: Any) -> Verdict:
        """Run the slow path for a punted packet (enclave-aware)."""
        loaded = self._loaded(header.service_id)
        if loaded is None:
            raise ServiceError(f"service {header.service_id} not deployed")
        if header.is_control:
            handler = loaded.module.handle_control
        else:
            handler = loaded.module.handle_packet
        recorder = self.recorder
        span = recorder.begin_span(
            "env.dispatch", service=header.service_id, n=1
        )
        try:
            if loaded.enclave is not None:
                return loaded.enclave.call(handler, header, packet)
            return handler(header, packet)
        finally:
            recorder.end_span(span)

    def dispatch_batch(self, punts: list[tuple[ILPHeader, Any]]) -> list[Any]:
        """Run the slow path for a whole batch of punts, grouped by service.

        Each service module sees one vectorized
        :meth:`~repro.core.service_module.ServiceModule.handle_batch` call
        covering all of its punts (in punt order); an enclave-hosted module
        pays **one** boundary crossing pair for its whole group instead of
        one per punt. The result has one entry per punt, in order; ``None``
        marks a punt whose handling raised :class:`ServiceError` (the
        terminus accounts those as service drops). A missing service raises
        — callers filter with :meth:`has_service` per punt, exactly as the
        scalar :meth:`dispatch` path expects.
        """
        results: list[Any] = [None] * len(punts)
        groups: dict[int, list[int]] = {}
        for i, (header, _packet) in enumerate(punts):
            groups.setdefault(header.service_id, []).append(i)
        recorder = self.recorder
        span = recorder.begin_span(
            "env.dispatch", n=len(punts), services=len(groups)
        )
        for service_id, indices in groups.items():
            loaded = self._loaded(service_id)
            if loaded is None:
                raise ServiceError(f"service {service_id} not deployed")
            items = [punts[i] for i in indices]
            try:
                if loaded.enclave is not None:
                    verdicts = loaded.enclave.call(
                        loaded.module.handle_batch, items
                    )
                else:
                    verdicts = loaded.module.handle_batch(items)
                if len(verdicts) != len(items):
                    raise ServiceError(
                        f"service {service_id} handle_batch returned "
                        f"{len(verdicts)} verdicts for {len(items)} punts"
                    )
            except ServiceError:
                continue  # whole group errored; its entries stay None
            for i, verdict in zip(indices, verdicts):
                results[i] = verdict
        recorder.end_span(span)
        return results

    def checkpoint_all(self) -> None:
        for service_id, loaded in self._services.items():
            self.checkpoints.save(service_id, loaded.module.checkpoint())

    def restore_all(self) -> None:
        for service_id, loaded in self._services.items():
            state = self.checkpoints.load(service_id)
            if state is not None:
                loaded.module.restore(state)
