"""Service invocation channels: IPC vs shared memory.

The paper's prototype invokes service modules from the pipe-terminus over
IPC, which "obviously adds overhead" (§6.3); the no-service row of Table 1
shows what the datapath costs when that hop is absent ("as if we implemented
service communication through shared memory rings").

We model both:

* ``IPC`` performs a real marshal/unmarshal round trip in wall-clock
  benchmarks, so Table 1's ~3× gap between null-service and no-service
  emerges from actual work, not a constant. The boundary speaks the wire
  formats a slow-path daemon would be handed — the decrypted ILP header
  bytes and the packet — not a serialized Python object graph.
* ``SHARED_MEMORY`` passes references directly (one bounded copy to model
  the ring write).

Batched invocation (:meth:`InvocationChannel.invoke_batch`) carries a whole
cold span's punts in **one** frame per direction — the miss-path analogue
of OVS upcall batching: a cold-flow storm pays one boundary crossing per
burst span instead of one per punted packet.

IPC frames
----------
All integers big-endian; strings are UTF-8 with a one-byte length. Every
length is checked against the frame before it is used, a frame must be
consumed exactly, and the far side rebuilds its copies through the normal
constructors (``ILPHeader.decode``, ``L3Header``, ``L4Header``,
``ILPPacket``, ``CacheKey``, ``Decision``), so every validation those
perform still runs. A malformed frame raises :class:`IPCError`,
:class:`~repro.core.ilp.ILPError` or
:class:`~repro.core.packet.PacketError`, nothing else.

Request (terminus → service)::

    | kind (1B: 1 = punts) | count (2B) | punt* |
    punt: | flags (1B: 0x01 L4 present, 0x02 qos_src present)
          | l3.proto (1B) | l3.ttl (1B) | l4.proto (1B) | sport (2B)
          | dport (2B) | header len (2B) | src len (1B) | dst len (1B)
          | qos_src len (1B) | ilp_wire len (2B) | data len (4B)
          | packet_id (8B) | created_at (f64) |
          | header.encode() | l3.src | l3.dst | qos_src | ilp_wire | data |

Response (service → terminus), one result per punt, in punt order::

    | kind (1B: 3) | count (2B) | result* |
    result:  | tag (1B: 0 = None, 2 = Verdict) | verdict? |
    verdict: | dropped (1B) | emits (2B) | installs (2B) | emit* | install* |
    emit:    | refs (1B: 0x01 header, 0x02 payload) | peer len (1B) | peer |
             | header len (2B) | header.encode() |      (absent with ref 0x01)
             | L4 present (1B) | l4.proto (1B) | sport (2B) | dport (2B)
             | data len (4B) | data |                    (absent with ref 0x02)
    install: | src len (1B) | service_id (2B) | connection_id (8B)
             | action (1B: 0 = FORWARD, 1 = DROP) | targets (2B) | src |
             | target* |
    target:  | peer len (1B) | tlv_updates (2B) | peer |
             | ( type (1B) | len (2B) | value )* |

**Descriptor return.** A verdict usually hands back the packet it was
given. An emit whose header encodes to the very bytes the request carried
for its punt sets ref ``0x01``; an emit whose payload is the object the far
side decoded for its punt, with the ``data`` and ``l4`` it was decoded
with, sets ref ``0x02``. The terminus resolves a reference to the header /
payload object it already holds (encode memo intact, payload bytes never
echoed). Whatever a service changed — a rewritten TLV or flag, a swapped
``payload.data``, a fresh ``Payload`` — fails the test and crosses in full.
The choice is made per emit from what the code observes; there is no
option to set.

The boundary knows nothing of deadlines: the terminus owns each punt's
deadline and resolves a punt that would miss it without sending it across
(see ``PipeTerminus._punt_batch``). Request kind 2, punt flag ``0x04`` and
result tag 1 are not part of the format and raise :class:`IPCError`.

In simulated time, a :class:`CostModel` supplies per-invocation virtual
latencies so netsim experiments see the same relative costs.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..obs.recorder import NULL_RECORDER
from .decision_cache import Action, CacheError, CacheKey, Decision, ForwardTarget
from .ilp import ILPHeader
from .packet import ILPPacket, L3Header, L4Header, Payload
from .service_module import Emit, Verdict

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.recorder import FlightRecorder, NullRecorder


class IPCError(Exception):
    """Raised for a malformed IPC frame or a value the frame cannot carry."""


_KIND_PUNTS = 1
_KIND_RESULTS = 3

_F_L4 = 0x01
_F_QOS = 0x02

_TAG_NONE = 0
_TAG_VERDICT = 2

_REF_HEADER = 0x01
_REF_PAYLOAD = 0x02

_HEAD = struct.Struct(">BH")  # kind, count
#: flags, l3.proto, l3.ttl, l4.proto, sport, dport, then the lengths of
#: header / src / dst / qos_src / ilp_wire / data, packet_id, created_at.
_PUNT = struct.Struct(">BBBBHHHBBBHIQd")
_VERDICT = struct.Struct(">BHH")  # dropped, emits, installs
_EMIT = struct.Struct(">BB")  # refs, peer len
_U16 = struct.Struct(">H")
_PAYLOAD = struct.Struct(">BBHHI")  # L4 present, l4.proto, sport, dport, data len
#: src len, service_id, connection_id, action, targets.
_INSTALL = struct.Struct(">BHQBH")
_TARGET = struct.Struct(">BH")  # peer len, tlv_updates
_TLV = _TARGET  # type, value len

_ACTIONS = (Action.FORWARD, Action.DROP)
_NONE = bytes((_TAG_NONE,))
_VERDICT_TAG = bytes((_TAG_VERDICT,))
_TRUNCATED = "frame truncated"

Punt = tuple[ILPHeader, ILPPacket]
#: What the far side holds of one punt while its handler runs: the header
#: bytes the request carried, the payload decoded for it, and the ``data``
#: and ``l4`` objects that payload was decoded with.
PuntRef = tuple[bytes, Payload, bytes, Optional[L4Header]]


def encode_request(punts: Sequence[Punt]) -> bytes:
    """Marshal ``(ILPHeader, ILPPacket)`` punts into one request frame."""
    try:
        parts = [_HEAD.pack(_KIND_PUNTS, len(punts))]
        for header, packet in punts:
            if not (
                isinstance(header, ILPHeader) and isinstance(packet, ILPPacket)
            ):
                raise IPCError(
                    "the IPC boundary carries (ILPHeader, ILPPacket) punts, "
                    f"not ({type(header).__name__}, {type(packet).__name__})"
                )
            wire = header.encode()
            l3 = packet.l3
            payload = packet.payload
            l4 = payload.l4
            data = payload.data
            src = l3.src.encode()
            dst = l3.dst.encode()
            flags = 0
            l4_proto = sport = dport = 0
            if l4 is not None:
                flags = _F_L4
                l4_proto, sport, dport = l4.proto, l4.sport, l4.dport
            qos = b""
            if packet.qos_src is not None:
                flags |= _F_QOS
                qos = packet.qos_src.encode()
            parts += (
                _PUNT.pack(
                    flags,
                    l3.proto,
                    l3.ttl,
                    l4_proto,
                    sport,
                    dport,
                    len(wire),
                    len(src),
                    len(dst),
                    len(qos),
                    len(packet.ilp_wire),
                    len(data),
                    packet.packet_id,
                    packet.created_at,
                ),
                wire,
                src,
                dst,
                qos,
                packet.ilp_wire,
                data,
            )
    except struct.error as exc:
        raise IPCError(f"punt does not fit the request frame: {exc}") from exc
    return b"".join(parts)


def decode_request(frame: bytes) -> tuple[list[Punt], list[PuntRef]]:
    """Rebuild the punts of a request frame.

    Also returns one :data:`PuntRef` per punt — what
    :func:`encode_response` compares a verdict's emits against.
    """
    size = len(frame)
    punts: list[Punt] = []
    refs: list[PuntRef] = []
    try:
        kind, count = _HEAD.unpack_from(frame)
        if kind != _KIND_PUNTS:
            raise IPCError(f"not a request frame (kind {kind})")
        off = _HEAD.size
        for _ in range(count):
            (
                flags,
                l3_proto,
                ttl,
                l4_proto,
                sport,
                dport,
                n_wire,
                n_src,
                n_dst,
                n_qos,
                n_ilp,
                n_data,
                packet_id,
                created_at,
            ) = _PUNT.unpack_from(frame, off)
            if flags & ~(_F_L4 | _F_QOS):
                raise IPCError(f"unknown punt flags {flags:#04x}")
            off += _PUNT.size
            src_at = off + n_wire
            dst_at = src_at + n_src
            qos_at = dst_at + n_dst
            ilp_at = qos_at + n_qos
            data_at = ilp_at + n_ilp
            end = data_at + n_data
            if end > size:
                raise IPCError(_TRUNCATED)
            wire = frame[off:src_at]
            data = frame[data_at:end]
            l4 = L4Header(sport, dport, l4_proto) if flags & _F_L4 else None
            payload = Payload(l4, data)
            packet = ILPPacket(
                L3Header(
                    str(frame[src_at:dst_at], "utf-8"),
                    str(frame[dst_at:qos_at], "utf-8"),
                    l3_proto,
                    ttl,
                ),
                frame[ilp_at:data_at],
                payload,
                packet_id,
                created_at,
                str(frame[qos_at:ilp_at], "utf-8") if flags & _F_QOS else None,
            )
            off = end
            punts.append((ILPHeader.decode(wire), packet))
            refs.append((wire, payload, data, l4))
    except (struct.error, UnicodeDecodeError) as exc:
        raise IPCError(f"malformed request frame: {exc}") from exc
    if off != size:
        raise IPCError(f"{size - off} trailing bytes after the request frame")
    return punts, refs


def encode_response(results: Sequence[Any], refs: Sequence[PuntRef]) -> bytes:
    """Marshal one ``None | Verdict`` per punt, in punt order.

    ``refs`` is what :func:`decode_request` returned for the same punts;
    an emit's header and payload are each replaced by a back-reference when
    they are, observably, what the request carried (see the module
    docstring).
    """
    if len(results) != len(refs):
        raise IPCError(f"{len(results)} results for {len(refs)} punts")
    try:
        parts = [_HEAD.pack(_KIND_RESULTS, len(results))]
        for result, (wire, payload, data, l4) in zip(results, refs):
            if result is None:
                parts.append(_NONE)
                continue
            if not isinstance(result, Verdict):
                raise IPCError(
                    "the IPC boundary returns None or Verdict, "
                    f"not {type(result).__name__}"
                )
            emits = result.emits
            installs = result.installs
            parts += (
                _VERDICT_TAG,
                _VERDICT.pack(result.dropped, len(emits), len(installs)),
            )
            for emit in emits:
                peer = emit.peer.encode()
                emit_wire = emit.header.encode()
                emit_payload = emit.payload
                emit_refs = 0
                if emit_wire == wire:
                    emit_refs = _REF_HEADER
                if (
                    emit_payload is payload
                    and payload.data is data
                    and payload.l4 is l4
                ):
                    emit_refs |= _REF_PAYLOAD
                parts += (_EMIT.pack(emit_refs, len(peer)), peer)
                if not emit_refs & _REF_HEADER:
                    parts += (_U16.pack(len(emit_wire)), emit_wire)
                if not emit_refs & _REF_PAYLOAD:
                    emit_l4 = emit_payload.l4
                    emit_data = emit_payload.data
                    if emit_l4 is None:
                        head = _PAYLOAD.pack(0, 0, 0, 0, len(emit_data))
                    else:
                        head = _PAYLOAD.pack(
                            1,
                            emit_l4.proto,
                            emit_l4.sport,
                            emit_l4.dport,
                            len(emit_data),
                        )
                    parts += (head, emit_data)
            for key, decision in installs:
                src = key.src.encode()
                targets = decision.targets
                parts += (
                    _INSTALL.pack(
                        len(src),
                        key.service_id,
                        key.connection_id,
                        _ACTIONS.index(decision.action),
                        len(targets),
                    ),
                    src,
                )
                for target in targets:
                    peer = target.peer.encode()
                    updates = target.tlv_updates
                    parts += (_TARGET.pack(len(peer), len(updates)), peer)
                    for tlv_type, value in updates:
                        parts += (_TLV.pack(tlv_type, len(value)), value)
    except struct.error as exc:
        raise IPCError(f"verdict does not fit the response frame: {exc}") from exc
    return b"".join(parts)


def decode_response(frame: bytes, punts: Sequence[Punt]) -> list[Any]:
    """Rebuild the results of a response frame on the terminus side.

    ``punts`` are the caller's own punts, in request order: a
    back-referenced header or payload resolves to the object the caller
    already holds for that punt.
    """
    size = len(frame)
    results: list[Any] = []
    try:
        kind, count = _HEAD.unpack_from(frame)
        if kind != _KIND_RESULTS:
            raise IPCError(f"not a response frame (kind {kind})")
        if count != len(punts):
            raise IPCError(f"{count} results for {len(punts)} punts")
        off = _HEAD.size
        for own_header, own_packet in punts:
            if off >= size:
                raise IPCError(_TRUNCATED)
            tag = frame[off]
            off += 1
            if tag == _TAG_NONE:
                results.append(None)
                continue
            if tag != _TAG_VERDICT:
                raise IPCError(f"unknown result tag {tag}")
            dropped, n_emits, n_installs = _VERDICT.unpack_from(frame, off)
            if dropped > 1:
                raise IPCError(f"invalid dropped flag {dropped}")
            off += _VERDICT.size
            emits: list[Emit] = []
            for _ in range(n_emits):
                emit_refs, n_peer = _EMIT.unpack_from(frame, off)
                if emit_refs & ~(_REF_HEADER | _REF_PAYLOAD):
                    raise IPCError(f"unknown emit refs {emit_refs:#04x}")
                off += _EMIT.size
                end = off + n_peer
                if end > size:
                    raise IPCError(_TRUNCATED)
                peer = str(frame[off:end], "utf-8")
                off = end
                if emit_refs & _REF_HEADER:
                    header = own_header
                else:
                    (n_wire,) = _U16.unpack_from(frame, off)
                    off += _U16.size
                    end = off + n_wire
                    if end > size:
                        raise IPCError(_TRUNCATED)
                    header = ILPHeader.decode(frame[off:end])
                    off = end
                if emit_refs & _REF_PAYLOAD:
                    payload = own_packet.payload
                else:
                    has_l4, l4_proto, sport, dport, n_data = _PAYLOAD.unpack_from(
                        frame, off
                    )
                    if has_l4 > 1:
                        raise IPCError(f"invalid L4 flag {has_l4}")
                    off += _PAYLOAD.size
                    end = off + n_data
                    if end > size:
                        raise IPCError(_TRUNCATED)
                    payload = Payload(
                        L4Header(sport, dport, l4_proto) if has_l4 else None,
                        frame[off:end],
                    )
                    off = end
                emits.append(Emit(peer, header, payload))
            installs: list[tuple[CacheKey, Decision]] = []
            for _ in range(n_installs):
                n_src, service_id, connection_id, action, n_targets = (
                    _INSTALL.unpack_from(frame, off)
                )
                if action >= len(_ACTIONS):
                    raise IPCError(f"unknown decision action {action}")
                off += _INSTALL.size
                end = off + n_src
                if end > size:
                    raise IPCError(_TRUNCATED)
                key = CacheKey(str(frame[off:end], "utf-8"), service_id, connection_id)
                off = end
                targets: list[ForwardTarget] = []
                for _ in range(n_targets):
                    n_peer, n_updates = _TARGET.unpack_from(frame, off)
                    off += _TARGET.size
                    end = off + n_peer
                    if end > size:
                        raise IPCError(_TRUNCATED)
                    peer = str(frame[off:end], "utf-8")
                    off = end
                    updates: list[tuple[int, bytes]] = []
                    for _ in range(n_updates):
                        tlv_type, n_value = _TLV.unpack_from(frame, off)
                        off += _TLV.size
                        end = off + n_value
                        if end > size:
                            raise IPCError(_TRUNCATED)
                        updates.append((tlv_type, frame[off:end]))
                        off = end
                    targets.append(ForwardTarget(peer, tuple(updates)))
                installs.append((key, Decision(_ACTIONS[action], tuple(targets))))
            results.append(Verdict(emits, installs, bool(dropped)))
    except (struct.error, UnicodeDecodeError, CacheError) as exc:
        raise IPCError(f"malformed response frame: {exc}") from exc
    if off != size:
        raise IPCError(f"{size - off} trailing bytes after the response frame")
    return results


class InvocationMode(enum.Enum):
    IPC = "ipc"
    SHARED_MEMORY = "shm"


@dataclass(frozen=True)
class CostModel:
    """Virtual-time costs (seconds) used when running under netsim.

    Defaults are calibrated to Table 1: the no-service path costs
    1/377,420 s ≈ 2.65 µs of terminus CPU per packet and 12.4 µs latency;
    the null-service path lands at 1/120,018 s ≈ 8.3 µs per packet and
    33 µs latency; enclaves add ~8-9%.

    A punt whose handler raises ``ServiceError`` still crossed the process
    boundary and burned service CPU, so it bills the same latency as a
    successful one.
    """

    terminus_packet: float = 2.65e-6  # fast-path CPU per packet
    terminus_latency: float = 12.4e-6  # unloaded one-packet latency
    ipc_round_trip: float = 15.0e-6  # extra latency for the IPC hop
    shm_round_trip: float = 1.0e-6  # shared-memory ring round trip
    enclave_io: float = 1.0e-6  # enclave world-switch per crossing
    service_packet: float = 5.6e-6  # service CPU per punted packet
    #: Default slow-path deadline per punt (seconds); a per-service
    #: :class:`~repro.core.overload.ServicePolicy` may override it. A punt
    #: that times out bills the full deadline as latency — the wait is the
    #: backpressure a circuit breaker then removes.
    punt_deadline: float = 2.5e-3

    def invocation_latency(self, mode: InvocationMode, enclave: bool) -> float:
        """Latency of invoking one punt: a batch of one."""
        return self.batch_invocation_latency(mode, int(enclave))

    def batch_invocation_latency(
        self, mode: InvocationMode, enclave_services: int
    ) -> float:
        """Latency of one *batched* invocation carrying many punts.

        The whole batch makes a single boundary round trip; each
        enclave-hosted service in the batch adds one enter + exit crossing
        pair (the execution environment dispatches per-service groups, so
        an enclave is entered once per group, not once per punt). Per-punt
        service CPU (``service_packet``) is charged by the caller on top.
        """
        base = (
            self.ipc_round_trip
            if mode is InvocationMode.IPC
            else self.shm_round_trip
        )
        return base + enclave_services * 2 * self.enclave_io


@dataclass(slots=True)
class IPCStats:
    """Invocation-channel counters.

    ``invocations`` counts punted packets (a batch of *k* counts *k*);
    ``batches``/``max_batch`` count :meth:`InvocationChannel.invoke_batch`
    calls and the largest batch seen. Byte accounting is per mode:
    ``ipc_bytes`` is the marshalled request+response framing, ``shm_bytes``
    the header copies the shared-memory ring write makes;
    ``bytes_marshalled`` is their sum (the total boundary-copy volume).
    """

    invocations: int = 0
    batches: int = 0
    max_batch: int = 0
    bytes_marshalled: int = 0
    ipc_bytes: int = 0
    shm_bytes: int = 0

    def _account(self, mode: InvocationMode, nbytes: int) -> None:
        self.bytes_marshalled += nbytes
        if mode is InvocationMode.IPC:
            self.ipc_bytes += nbytes
        else:
            self.shm_bytes += nbytes


class InvocationChannel:
    """Carries punted packets from the pipe-terminus to a service module.

    A punt is an :class:`ILPHeader` and the :class:`ILPPacket` it arrived
    in. ``invoke_batch`` carries many punts across the boundary at once:
    in IPC mode they cross in one request frame, the handler runs on the
    copies decoded from it, and its ``None | Verdict``
    results cross back in one response frame (layouts in the module
    docstring), mirroring the prototype's process boundary — anything else
    is rejected with :class:`IPCError`; shared-memory mode makes one ring
    write per punt header. The per-frame overhead that dominates a
    cold-flow storm is paid once per batch.
    """

    def __init__(self, mode: InvocationMode = InvocationMode.IPC) -> None:
        self.mode = mode
        self.stats = IPCStats()
        #: Flight recorder for boundary spans; the shared no-op by default
        #: (installed by ``ServiceNode.enable_observability``).
        self.recorder: "FlightRecorder | NullRecorder" = NULL_RECORDER

    def invoke(
        self,
        handler: Callable[[ILPHeader, ILPPacket], Any],
        header: ILPHeader,
        packet: ILPPacket,
    ) -> Any:
        """Invoke ``handler`` on one punt: an :meth:`invoke_batch` of one."""
        return self.invoke_batch(
            lambda punts: [handler(*punts[0])], [(header, packet)]
        )[0]

    def invoke_batch(
        self,
        handler: Callable[[list[Punt]], list[Any]],
        punts: list[Punt],
    ) -> list[Any]:
        """Invoke ``handler`` on a whole batch of punts in one round trip.

        Returns the handler's result list (one entry per punt, in order).
        In IPC mode the batch makes exactly one frame per direction — the
        request carries every punt, the response every result — so the
        boundary cost is amortized across the batch. Shared-memory mode
        passes references and models one ring write per punt header.
        """
        stats = self.stats
        stats.invocations += len(punts)
        stats.batches += 1
        if len(punts) > stats.max_batch:
            stats.max_batch = len(punts)
        recorder = self.recorder
        span = recorder.begin_span(
            "ipc.invoke", mode=self.mode.value, n=len(punts)
        )
        try:
            if self.mode is InvocationMode.IPC:
                request = encode_request(punts)
                stats._account(self.mode, len(request))
                rx_punts, refs = decode_request(request)
                results = handler(rx_punts)
                response = encode_response(results, refs)
                stats._account(self.mode, len(response))
                return decode_response(response, punts)
            for punt_header, _packet in punts:
                stats._account(self.mode, len(bytes(punt_header.encode())))
            return handler(punts)
        finally:
            recorder.end_span(span)
