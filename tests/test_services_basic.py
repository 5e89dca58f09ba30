"""Tests for null, IP-delivery, and the caching bundle."""

from repro import WellKnownService
from repro.core.ilp import TLV
from repro.services.caching import (
    CacheStore,
    make_response,
    parse_request,
    parse_response,
)


def hosts_on(net, *sns):
    return [net.add_host(sn, name=f"h{i}") for i, sn in enumerate(sns)]


def w_sns(net):
    dom = net.edomains["west"]
    return [dom.sns[a] for a in dom.sn_addresses()]


def e_sns(net):
    dom = net.edomains["east"]
    return [dom.sns[a] for a in dom.sn_addresses()]


class TestIPDelivery:
    def test_same_sn_delivery(self, two_edomain_net):
        net = two_edomain_net
        sn = w_sns(net)[0]
        a, b = hosts_on(net, sn, sn)
        conn = a.connect(WellKnownService.IP_DELIVERY, dest_addr=b.address, allow_direct=False)
        a.send(conn, b"hi")
        net.run(1.0)
        assert [p.data for _, p in b.delivered] == [b"hi"]

    def test_cross_edomain_delivery(self, two_edomain_net):
        net = two_edomain_net
        a, b = hosts_on(net, w_sns(net)[1], e_sns(net)[1])
        conn = a.connect(WellKnownService.IP_DELIVERY, dest_addr=b.address)
        for i in range(3):
            a.send(conn, f"m{i}".encode())
        net.run(1.0)
        assert sorted(p.data for _, p in b.delivered) == [b"m0", b"m1", b"m2"]

    def test_dest_sn_resolved_from_lookup(self, two_edomain_net):
        """The sender names only the destination host; DEST_SN comes from
        the lookup service (§3.2 name services)."""
        net = two_edomain_net
        a, b = hosts_on(net, w_sns(net)[0], e_sns(net)[0])
        conn = a.connect(WellKnownService.IP_DELIVERY, dest_addr=b.address)
        assert conn.dest_sn is None
        a.send(conn, b"x")
        net.run(1.0)
        assert len(b.delivered) == 1

    def test_steady_state_rides_fast_path(self, two_edomain_net):
        net = two_edomain_net
        sn = w_sns(net)[0]
        a, b = hosts_on(net, sn, sn)
        conn = a.connect(WellKnownService.IP_DELIVERY, dest_addr=b.address, allow_direct=False)
        for i in range(10):
            a.send(conn, b"x")
        net.run(1.0)
        assert sn.terminus.stats.punts == 1
        assert sn.terminus.stats.fast_path == 9

    def test_close_invalidates_cache(self, two_edomain_net):
        net = two_edomain_net
        sn = w_sns(net)[0]
        a, b = hosts_on(net, sn, sn)
        conn = a.connect(WellKnownService.IP_DELIVERY, dest_addr=b.address, allow_direct=False)
        a.send(conn, b"x")
        net.run(1.0)
        assert len(sn.cache) == 1
        a.close(conn)
        net.run(1.0)
        assert len(sn.cache) == 0

    def test_unroutable_dest_dropped(self, two_edomain_net):
        net = two_edomain_net
        sn = w_sns(net)[0]
        (a,) = hosts_on(net, sn)
        conn = a.connect(WellKnownService.IP_DELIVERY, dest_addr="9.9.9.9")
        a.send(conn, b"x")
        net.run(1.0)
        assert sn.terminus.stats.drops_by_service == 1


class TestCacheStore:
    def test_ttl_expiry(self):
        store = CacheStore(default_ttl=10.0)
        store.put("u", b"body", now=0.0)
        assert store.get("u", now=5.0) == b"body"
        assert store.get("u", now=11.0) is None

    def test_lru_eviction(self):
        store = CacheStore(capacity=2)
        store.put("a", b"1", now=0.0)
        store.put("b", b"2", now=0.0)
        store.get("a", now=0.1)
        store.put("c", b"3", now=0.2)
        assert store.get("b", now=0.3) is None
        assert store.get("a", now=0.3) == b"1"

    def test_hit_rate(self):
        store = CacheStore()
        store.put("u", b"x", now=0.0)
        store.get("u", now=0.0)
        store.get("v", now=0.0)
        assert store.hit_rate == 0.5

    def test_protocol_parsers(self):
        assert parse_request(b"GET /a/b") == "/a/b"
        assert parse_request(b"PUT /a") is None
        url, body = parse_response(make_response("/a", b"payload"))
        assert (url, body) == ("/a", b"payload")
        assert parse_response(b"junk") is None


class TestCachingBundle:
    def _world(self, net):
        client_sn = w_sns(net)[1]
        origin_sn = e_sns(net)[1]
        client = net.add_host(client_sn, name="client")
        origin = net.add_host(origin_sn, name="origin")

        # The origin host answers GETs.
        def serve(conn_id, header, payload):
            url = parse_request(payload.data)
            if url is None:
                return
            requester = header.get_str(TLV.SRC_HOST)
            conn = origin.connect(
                WellKnownService.CACHING_BUNDLE,
                dest_addr=requester,
                allow_direct=False,
            )
            origin.adopt_connection(conn, conn_id)
            origin.send(conn, make_response(url, b"ORIGIN-BODY"), first=False)

        origin.on_service_data(WellKnownService.CACHING_BUNDLE, serve)
        return client, origin, client_sn, origin_sn

    def _get(self, net, client, origin, url=b"GET /video/1"):
        conn = client.connect(
            WellKnownService.CACHING_BUNDLE,
            dest_addr=origin.address,
            allow_direct=False,
        )
        client.send(conn, url)
        net.run(1.0)

    def test_miss_fetches_origin_then_hit_serves_edge(self, two_edomain_net):
        net = two_edomain_net
        client, origin, client_sn, _ = self._world(net)
        module = client_sn.env.service(WellKnownService.CACHING_BUNDLE)

        self._get(net, client, origin)
        assert module.origin_fetches == 1
        first = [p.data for _, p in client.delivered if p.data.startswith(b"DATA")]
        assert first and b"ORIGIN-BODY" in first[0]

        # Second client on the same SN: served from the edge cache.
        client2 = net.add_host(client_sn, name="client2")
        self._get(net, client2, origin)
        assert module.origin_fetches == 1  # unchanged: cache hit
        assert module.cache.hits == 1
        got = [p.data for _, p in client2.delivered if p.data.startswith(b"DATA")]
        assert got and b"ORIGIN-BODY" in got[0]

    def test_no_cache_option_bypasses(self, two_edomain_net):
        net = two_edomain_net
        client, origin, client_sn, _ = self._world(net)
        module = client_sn.env.service(WellKnownService.CACHING_BUNDLE)
        for _ in range(2):
            conn = client.connect(
                WellKnownService.CACHING_BUNDLE,
                dest_addr=origin.address,
                tlvs={TLV.BUNDLE: b"no-cache"},
                allow_direct=False,
            )
            client.send(conn, b"GET /private")
            net.run(1.0)
        assert module.origin_fetches == 2
        assert len(module.cache) == 0

    def test_transcode_option_applies(self, two_edomain_net):
        net = two_edomain_net
        client, origin, client_sn, _ = self._world(net)
        conn = client.connect(
            WellKnownService.CACHING_BUNDLE,
            dest_addr=origin.address,
            tlvs={TLV.BUNDLE: b"transcode=480p"},
            allow_direct=False,
        )
        client.send(conn, b"GET /video/hd")
        net.run(1.0)
        responses = [p.data for _, p in client.delivered if p.data.startswith(b"DATA")]
        assert responses
        _, body = parse_response(responses[0])
        from repro.libs.media import MediaLibrary

        profile, original, encoded = MediaLibrary.describe(body)
        assert profile == "480p"
        assert encoded < original

    def test_cached_body_expires(self, two_edomain_net):
        net = two_edomain_net
        client, origin, client_sn, _ = self._world(net)
        module = client_sn.env.service(WellKnownService.CACHING_BUNDLE)
        module.cache.default_ttl = 0.5
        self._get(net, client, origin)
        net.run(2.0)  # let the entry age out
        client2 = net.add_host(client_sn, name="client2")
        self._get(net, client2, origin)
        assert module.origin_fetches == 2
