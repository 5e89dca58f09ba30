"""Caching/CDN bundle (§3.2's canonical bundle example).

The bundle composes IP-like delivery with an edge cache — hosts invoke the
single ``CACHING_BUNDLE`` service, with optional settings (cache on/off,
transcode profile) signalled in the BUNDLE TLV. Integration of the two is
the bundle developer's job, not the customer's (§3.2).

Wire protocol inside the payload (a deliberately tiny HTTP stand-in):

* request:  ``GET <url>``
* response: ``DATA <url>\\n<body bytes>``

Behaviour at the client's first-hop SN (where the application provider's
IESP caches, per §5's coordination discussion):

* request + cache hit → respond directly to the client;
* request + miss → forward toward the origin's SN (plain delivery);
* response passing back → store in the cache (respecting TTL), deliver.

This service is content-aware, so it never installs decision-cache entries
for request traffic; responses ride the fast path only when cache storage
is disabled for the connection.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from ..core.ilp import ILPHeader, TLV
from ..core.packet import Payload, make_payload
from ..core.service_module import ServiceModule, Verdict, WellKnownService
from .common import deliver_toward

OPT_NO_CACHE = b"no-cache"
OPT_TRANSCODE_PREFIX = b"transcode="


class CacheStore:
    """A TTL + LRU object cache, the in-module data plane of the bundle."""

    def __init__(self, capacity: int = 1024, default_ttl: float = 300.0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.default_ttl = default_ttl
        self._entries: "OrderedDict[str, tuple[bytes, float]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, url: str, now: float) -> Optional[bytes]:
        entry = self._entries.get(url)
        if entry is None:
            self.misses += 1
            return None
        body, expires = entry
        if now >= expires:
            del self._entries[url]
            self.misses += 1
            return None
        self._entries.move_to_end(url)
        self.hits += 1
        return body

    def put(self, url: str, body: bytes, now: float, ttl: Optional[float] = None) -> None:
        while len(self._entries) >= self.capacity and url not in self._entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[url] = (body, now + (ttl or self.default_ttl))
        self._entries.move_to_end(url)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def parse_request(data: bytes) -> Optional[str]:
    if data.startswith(b"GET "):
        return data[4:].decode(errors="replace").strip()
    return None


def parse_response(data: bytes) -> Optional[tuple[str, bytes]]:
    if not data.startswith(b"DATA "):
        return None
    head, _, body = data[5:].partition(b"\n")
    return head.decode(errors="replace").strip(), body


def make_response(url: str, body: bytes) -> bytes:
    return b"DATA " + url.encode() + b"\n" + body


class CachingBundleService(ServiceModule):
    """The standardized caching bundle."""

    SERVICE_ID = WellKnownService.CACHING_BUNDLE
    NAME = "caching-bundle"
    VERSION = "1.0"

    def __init__(self, capacity: int = 1024, default_ttl: float = 300.0) -> None:
        super().__init__()
        self.cache = CacheStore(capacity=capacity, default_ttl=default_ttl)
        self.requests = 0
        self.origin_fetches = 0
        #: connection id -> BUNDLE options recorded at request time, so the
        #: response leg (a header built by the origin host) honors them.
        self._conn_opts: dict[int, bytes] = {}

    # -- option handling ----------------------------------------------------
    def _options(self, header: ILPHeader) -> list[bytes]:
        raw = header.tlvs.get(TLV.BUNDLE)
        if raw is None:
            raw = self._conn_opts.get(header.connection_id, b"")
        return [opt for opt in raw.split(b";") if opt]

    def _cache_enabled(self, header: ILPHeader) -> bool:
        return OPT_NO_CACHE not in self._options(header)

    def _transcode_profile(self, header: ILPHeader) -> Optional[str]:
        for opt in self._options(header):
            if opt.startswith(OPT_TRANSCODE_PREFIX):
                return opt[len(OPT_TRANSCODE_PREFIX):].decode()
        return None

    # -- delivery plumbing (the bundled IP-like half) -----------------------
    def _deliver_toward(self, header: ILPHeader, payload: Payload) -> Verdict:
        assert self.ctx is not None
        return deliver_toward(self.ctx, header, payload)

    def _respond(self, header: ILPHeader, url: str, body: bytes) -> Verdict:
        """Send a cached response back toward the requesting host."""
        assert self.ctx is not None
        requester = header.get_str(TLV.SRC_HOST)
        if requester is None:
            return Verdict.drop()
        data = body
        profile = self._transcode_profile(header)
        if profile is not None and self.ctx.libs.has("media"):
            data = self.ctx.libs.get("media").transcode(body, profile)
        response = ILPHeader(
            service_id=self.SERVICE_ID,
            connection_id=header.connection_id,
            tlvs={TLV.DEST_ADDR: requester.encode()},
        )
        payload = make_payload(make_response(url, data))
        local = self.ctx.peer_for_host(requester)
        if local is not None:
            return Verdict.forward(local, response, payload)
        # Requester is remote: route the response like any delivery.
        return self._deliver_toward(response, payload)

    # -- datapath ----------------------------------------------------------
    def handle_packet(self, header: ILPHeader, packet: Any) -> Verdict:
        assert self.ctx is not None
        data = packet.payload.data
        url = parse_request(data)
        if url is not None:
            self.requests += 1
            if TLV.BUNDLE in header.tlvs:
                self._conn_opts[header.connection_id] = header.tlvs[TLV.BUNDLE]
            if self._cache_enabled(header):
                body = self.cache.get(url, self.ctx.now())
                if body is not None:
                    return self._respond(header, url, body)
            self.origin_fetches += 1
            return self._deliver_toward(header, packet.payload)
        parsed = parse_response(data)
        if parsed is not None:
            url, body = parsed
            # Transparent path caching: every caching SN the response
            # traverses stores it, so future requests hit at whichever
            # caching SN they reach first — the client-nearest one, which
            # may be the app provider's SN when the client sits behind an
            # enterprise pass-through gateway (§5 coordination).
            dest = header.get_str(TLV.DEST_ADDR)
            if self._cache_enabled(header):
                self.cache.put(url, body, self.ctx.now())
            profile = self._transcode_profile(header)
            if (
                profile is not None
                and dest is not None
                and self.ctx.peer_for_host(dest) is not None
                and self.ctx.libs.has("media")
            ):
                media = self.ctx.libs.get("media")
                payload = make_payload(
                    make_response(url, media.transcode(body, profile))
                )
                return self._deliver_toward(header, payload)
            return self._deliver_toward(header, packet.payload)
        # Unknown app bytes: plain delivery (the bundle degrades gracefully).
        return self._deliver_toward(header, packet.payload)

    def checkpoint(self) -> dict[str, Any]:
        return {
            "entries": list(self.cache._entries.items()),
            "requests": self.requests,
        }

    def restore(self, state: dict[str, Any]) -> None:
        self.cache._entries = OrderedDict(state.get("entries", []))
        self.requests = state.get("requests", 0)
