"""Bulk data delivery service (§6.2).

"Bulk data delivery is a form of multipoint delivery but focuses on large
data transfers rather than single packets or messages" — the paper is
building one for large scientific datasets (the ESnet use case).

Model: a publisher offers a named object; the service chunks it, stores
the chunks at the publisher's first-hop SN (off-path storage), and serves
receiver-driven fetches: receivers request the manifest, then pull chunks
(possibly out of order, with re-requests for losses). Chunk pulls from a
second receiver in the same edomain hit the SN's chunk store instead of
the origin — the multipoint aspect.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.ilp import ILPHeader, TLV
from ..core.packet import make_payload
from ..core.service_module import ServiceModule, Verdict, WellKnownService
from .common import deliver_toward

OP_OFFER = b"offer"  # publisher -> SN: one fragment of an offered object
OP_MANIFEST_REQ = b"manifest?"
OP_MANIFEST = b"manifest"
OP_CHUNK_REQ = b"chunk?"
OP_CHUNK = b"chunk"

TLV_OBJECT = TLV.TOPIC
TLV_CHUNK_INDEX = TLV.SEQUENCE
TLV_TOTAL_FRAGS = TLV.SERVICE_PRIVATE + 5

DEFAULT_CHUNK_SIZE = 1024
OFFER_FRAGMENT_SIZE = 1024  # keeps offer packets under the link MTU


@dataclass
class ObjectManifest:
    name: str
    size: int
    chunk_size: int
    n_chunks: int
    digest: str  # sha256 of the whole object

    def to_json(self) -> bytes:
        return json.dumps(self.__dict__).encode()

    @staticmethod
    def from_json(raw: bytes) -> "ObjectManifest":
        return ObjectManifest(**json.loads(raw.decode()))


class BulkDeliveryService(ServiceModule):
    """Chunked large-object distribution with edge chunk stores."""

    SERVICE_ID = WellKnownService.BULK_DELIVERY
    NAME = "bulk-delivery"
    VERSION = "1.0"

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        super().__init__()
        self.chunk_size = chunk_size
        self.manifests: dict[str, ObjectManifest] = {}
        #: (object, publisher) -> in-flight offer fragments
        self._pending_offers: dict[tuple[str, str], dict[int, bytes]] = {}
        self.chunk_hits = 0
        self.chunk_misses = 0

    # -- storage helpers (off-path tier, §3.1 datapath) ----------------------
    def _chunk_key(self, obj: str, index: int) -> str:
        return f"bulk/{obj}/chunk/{index}"

    def _store_object(self, name: str, data: bytes) -> ObjectManifest:
        assert self.ctx is not None
        n_chunks = max(1, math.ceil(len(data) / self.chunk_size))
        for i in range(n_chunks):
            chunk = data[i * self.chunk_size : (i + 1) * self.chunk_size]
            self.ctx.storage.put(self._chunk_key(name, i), chunk)
        manifest = ObjectManifest(
            name=name,
            size=len(data),
            chunk_size=self.chunk_size,
            n_chunks=n_chunks,
            digest=hashlib.sha256(data).hexdigest(),
        )
        self.manifests[name] = manifest
        self.ctx.storage.put(f"bulk/{name}/manifest", manifest.to_json())
        return manifest

    def _load_chunk(self, obj: str, index: int) -> Optional[bytes]:
        assert self.ctx is not None
        return self.ctx.storage.get(self._chunk_key(obj, index))

    # -- datapath ------------------------------------------------------------
    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        op = header.tlvs.get(TLV.SERVICE_OPTS, b"")
        obj = header.get_str(TLV_OBJECT)
        requester = header.get_str(TLV.SRC_HOST)
        if obj is None:
            return Verdict.drop()

        if op == OP_OFFER:
            if requester is None or self.ctx.peer_for_host(requester) is None:
                return Verdict.drop()  # offers only from local publishers
            index = header.get_u64(TLV_CHUNK_INDEX) or 0
            total = header.get_u64(TLV_TOTAL_FRAGS) or 1
            pending = self._pending_offers.setdefault((obj, requester), {})
            pending[index] = packet.payload.data
            if len(pending) == total:
                data = b"".join(pending[i] for i in range(total))
                self._store_object(obj, data)
                del self._pending_offers[(obj, requester)]
            return Verdict(dropped=False)

        if op == OP_MANIFEST_REQ:
            return self._serve_manifest(header, obj, requester, packet)

        if op == OP_CHUNK_REQ:
            return self._serve_chunk(header, obj, requester, packet)

        if op in (OP_MANIFEST, OP_CHUNK):
            # A response in flight: cache chunks as they pass (multipoint
            # reuse), then keep delivering toward the requester.
            if op == OP_CHUNK:
                index = header.get_u64(TLV_CHUNK_INDEX)
                if index is not None:
                    key = self._chunk_key(obj, index)
                    if self.ctx.storage.get(key) is None:
                        self.ctx.storage.put(key, packet.payload.data)
            elif op == OP_MANIFEST and obj not in self.manifests:
                try:
                    self.manifests[obj] = ObjectManifest.from_json(
                        packet.payload.data
                    )
                except (ValueError, TypeError, KeyError):
                    pass
            return deliver_toward(self.ctx, header, packet.payload)

        return Verdict.drop()

    def _reply(self, obj: str, requester: str, op: bytes, data: bytes, index: Optional[int] = None) -> Verdict:
        assert self.ctx is not None
        tlvs = {
            TLV_OBJECT: obj.encode(),
            TLV.SERVICE_OPTS: op,
            TLV.DEST_ADDR: requester.encode(),
        }
        if index is not None:
            tlvs[TLV_CHUNK_INDEX] = struct.pack(">Q", index)
        out = ILPHeader(service_id=self.SERVICE_ID, connection_id=0, tlvs=tlvs)
        return deliver_toward(self.ctx, out, make_payload(data))

    def _serve_manifest(
        self, header: ILPHeader, obj: str, requester: Optional[str], packet: Any
    ) -> Verdict:
        assert self.ctx is not None
        if requester is None:
            return Verdict.drop()
        manifest = self.manifests.get(obj)
        if manifest is None:
            raw = self.ctx.storage.get(f"bulk/{obj}/manifest")
            if raw is not None:
                manifest = ObjectManifest.from_json(raw)
                self.manifests[obj] = manifest
        if manifest is not None:
            return self._reply(obj, requester, OP_MANIFEST, manifest.to_json())
        # Not held here: forward the request toward the publisher's SN.
        return deliver_toward(self.ctx, header, packet.payload)

    def _serve_chunk(
        self, header: ILPHeader, obj: str, requester: Optional[str], packet: Any
    ) -> Verdict:
        assert self.ctx is not None
        index = header.get_u64(TLV_CHUNK_INDEX)
        if requester is None or index is None:
            return Verdict.drop()
        chunk = self._load_chunk(obj, index)
        if chunk is not None:
            self.chunk_hits += 1
            return self._reply(obj, requester, OP_CHUNK, chunk, index=index)
        self.chunk_misses += 1
        return deliver_toward(self.ctx, header, packet.payload)


# -- host-side agent ----------------------------------------------------------

@dataclass
class BulkReceiver:
    """Receiver-driven fetch state machine for one object."""

    host: Any
    object_name: str
    origin_sn: str  # the publisher's first-hop SN address
    manifest: Optional[ObjectManifest] = None
    chunks: dict[int, bytes] = field(default_factory=dict)
    complete: bool = False
    data: Optional[bytes] = None

    def install(self) -> None:
        self.host.on_service_data(WellKnownService.BULK_DELIVERY, self._on_packet)

    def start(self) -> None:
        self._request(OP_MANIFEST_REQ)

    def _request(self, op: bytes, index: Optional[int] = None) -> None:
        tlvs = {
            TLV_OBJECT: self.object_name.encode(),
            TLV.SERVICE_OPTS: op,
            TLV.DEST_SN: self.origin_sn.encode(),
            TLV.DEST_ADDR: self.origin_sn.encode(),
        }
        if index is not None:
            tlvs[TLV_CHUNK_INDEX] = index.to_bytes(8, "big")
        conn = self.host.connect(
            WellKnownService.BULK_DELIVERY, allow_direct=False
        )
        self.host.send(conn, b"", extra_tlvs=tlvs)

    def _on_packet(self, conn_id: int, header: ILPHeader, payload: Any) -> None:
        op = header.tlvs.get(TLV.SERVICE_OPTS, b"")
        if header.get_str(TLV_OBJECT) != self.object_name:
            return
        if op == OP_MANIFEST and self.manifest is None:
            self.manifest = ObjectManifest.from_json(payload.data)
            for i in range(self.manifest.n_chunks):
                self._request(OP_CHUNK_REQ, index=i)
        elif op == OP_CHUNK:
            index = header.get_u64(TLV_CHUNK_INDEX)
            if index is not None:
                self.chunks[index] = payload.data
                self._check_complete()

    def missing_chunks(self) -> list[int]:
        if self.manifest is None:
            return []
        return [i for i in range(self.manifest.n_chunks) if i not in self.chunks]

    def rerequest_missing(self) -> int:
        """Loss recovery: re-pull any chunks that never arrived."""
        missing = self.missing_chunks()
        for i in missing:
            self._request(OP_CHUNK_REQ, index=i)
        return len(missing)

    def _check_complete(self) -> None:
        if self.manifest is None or self.complete:
            return
        if len(self.chunks) == self.manifest.n_chunks:
            data = b"".join(self.chunks[i] for i in range(self.manifest.n_chunks))
            if hashlib.sha256(data).hexdigest() == self.manifest.digest:
                self.data = data
                self.complete = True


def offer_object(host, name: str, data: bytes) -> None:
    """Publisher-side: hand an object to the first-hop SN for distribution.

    The object is shipped in MTU-sized offer fragments; the SN reassembles
    before chunking it into its store.
    """
    conn = host.connect(WellKnownService.BULK_DELIVERY, allow_direct=False)
    fragments = [
        data[i : i + OFFER_FRAGMENT_SIZE]
        for i in range(0, len(data), OFFER_FRAGMENT_SIZE)
    ] or [b""]
    for index, fragment in enumerate(fragments):
        host.send(
            conn,
            fragment,
            extra_tlvs={
                TLV_OBJECT: name.encode(),
                TLV.SERVICE_OPTS: OP_OFFER,
                TLV_CHUNK_INDEX: index.to_bytes(8, "big"),
                TLV_TOTAL_FRAGS: len(fragments).to_bytes(8, "big"),
            },
        )
