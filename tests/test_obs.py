"""Unit tests for the observability subsystem (repro.obs).

Covers the metrics registry (counters, gauges, log-bucketed histograms),
the flight recorder ring (sampling, capacity, trace context), the
exporters, the per-node wiring through ServiceNode.enable_observability /
REPRO_OBS, the engine's compaction counter, and the snapshot_sn drop
accounting regression (miss-queue drops must appear in SNSnapshot.drops).
"""

from __future__ import annotations

import json

import pytest

from repro.core.monitoring import snapshot_sn
from repro.core.service_node import ServiceNode
from repro.obs import (
    NULL_RECORDER,
    NULL_SPAN,
    Counter,
    FlightRecorder,
    Gauge,
    Histogram,
    MetricsRegistry,
    NodeObs,
    NullRecorder,
    ObsError,
    enabled_from_env,
    merged_registry,
    snapshot_dict,
    to_json,
    to_table,
)
from repro.netsim import Simulator


class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ObsError):
            Counter().inc(-1)

    def test_gauge_set_and_add(self):
        g = Gauge()
        g.set(3.5)
        g.add(-1.0)
        assert g.value == 2.5


class TestHistogram:
    def test_rejects_bad_relative_error(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ObsError):
                Histogram(relative_error=bad)

    def test_empty_reads(self):
        h = Histogram()
        assert h.count == 0
        assert h.quantile(0.5) == 0.0
        assert h.mean == 0.0
        assert h.summary() == {"count": 0}

    def test_nonpositive_values_are_exact_zeros(self):
        h = Histogram()
        h.record(0.0)
        h.record(-1.0)
        h.record(5.0)
        assert h.zeros == 2
        assert h.count == 3
        assert h.quantile(0.0) == 0.0
        # Rank 2 of 3 still falls in the zero bucket.
        assert h.quantile(0.5) == 0.0

    def test_quantile_within_relative_error(self):
        h = Histogram(relative_error=0.01)
        values = [1e-6, 5e-6, 2e-5, 1e-4, 3e-3, 0.5, 7.0]
        for v in values:
            h.record(v)
        for q, expect in ((0.0, values[0]), (1.0, values[-1])):
            got = h.quantile(q)
            assert abs(got - expect) <= 0.01 * expect

    def test_record_many_matches_repeated_record(self):
        a, b = Histogram(), Histogram()
        a.record_many(3.3e-5, 7)
        for _ in range(7):
            b.record(3.3e-5)
        assert a.bucket_counts() == b.bucket_counts()
        assert a.count == b.count == 7
        assert a.quantile(0.5) == b.quantile(0.5)

    def test_record_many_nonpositive_n_is_noop(self):
        h = Histogram()
        h.record_many(1.0, 0)
        h.record_many(1.0, -3)
        assert h.count == 0

    def test_merge_requires_same_relative_error(self):
        with pytest.raises(ObsError):
            Histogram(0.01).merge(Histogram(0.02))

    def test_merge_and_copy(self):
        a, b = Histogram(), Histogram()
        a.record(1e-5)
        b.record(2e-3)
        b.record(0.0)
        snap = a.copy()
        merged = Histogram.merged([a, b])
        assert merged.count == 3
        assert merged.zeros == 1
        assert merged.min == 0.0
        assert merged.max == 2e-3
        # merged() must not mutate its parts.
        assert a.bucket_counts() == snap.bucket_counts()
        assert a.count == snap.count

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ObsError):
            Histogram().quantile(1.5)

    def test_summary_and_percentile(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0):
            h.record(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["min"] == 1.0
        assert s["max"] == 3.0
        assert abs(s["mean"] - 2.0) < 1e-9
        assert h.percentile(50) == h.quantile(0.5)


class TestMetricsRegistry:
    def test_get_or_create_and_kind_conflicts(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b")
        assert reg.counter("a.b") is c
        with pytest.raises(ObsError):
            reg.gauge("a.b")
        with pytest.raises(ObsError):
            reg.histogram("a.b")
        reg.histogram("h")
        with pytest.raises(ObsError):
            reg.counter("h")

    def test_names_and_get(self):
        reg = MetricsRegistry()
        reg.gauge("z")
        reg.counter("a")
        assert reg.names() == ["a", "z"]
        assert reg.get("a") is reg.counter("a")
        assert reg.get("missing") is None

    def test_merge_adds_and_merges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        b.gauge("g").set(1.5)
        a.histogram("h").record(1.0)
        b.histogram("h").record(2.0)
        a.merge(b)
        assert a.counter("c").value == 5
        assert a.gauge("g").value == 1.5
        assert a.histogram("h").count == 2

    def test_merged_registry_mutates_nothing(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        out = merged_registry([a, b])
        assert out.counter("c").value == 3
        assert a.counter("c").value == 1

    def test_snapshot_nests_dotted_names(self):
        reg = MetricsRegistry()
        reg.counter("terminus.fast_path").inc(9)
        reg.gauge("queue.depth").set(2)
        snap = reg.snapshot()
        assert snap["terminus"]["fast_path"] == 9
        assert snap["queue"]["depth"] == 2.0

    def test_snapshot_prefix_collision_keeps_both(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(1)
        reg.counter("a.b").inc(2)
        snap = reg.snapshot()
        assert snap["a"][""] == 1
        assert snap["a"]["b"] == 2


class TestFlightRecorder:
    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(sample_every=-1)

    def test_records_spans_in_begin_order(self):
        clock = [0.0]
        rec = FlightRecorder(clock=lambda: clock[0])
        trace = rec.new_trace()
        span = rec.begin_span("receive", n=3)
        clock[0] = 1.5
        rec.event("decrypt", peer="p")
        rec.end_span(span)
        assert rec.sequence() == ["receive", "decrypt"]
        assert span.trace == trace
        assert span.start == 0.0
        assert span.end == 1.5
        assert span.duration == 1.5
        assert span.done

    def test_span_context_manager(self):
        rec = FlightRecorder()
        rec.new_trace()
        with rec.span("stage") as span:
            pass
        assert span.done
        # Closing again is a no-op (end stamp is sticky).
        end = span.end
        span.close()
        assert span.end == end

    def test_sampling_every_other_trace(self):
        rec = FlightRecorder(sample_every=2)
        kept = []
        for i in range(4):
            rec.new_trace()
            if rec.recording:
                kept.append(i)
            span = rec.begin_span("s", i=i)
            rec.end_span(span)
        assert kept == [0, 2]
        assert rec.traces_started == 4
        assert rec.traces_sampled == 2
        # Unsampled begins hand out the shared null span.
        assert len(rec) == 2
        assert rec.spans(name="s", i=1) == []

    def test_sample_every_zero_records_nothing(self):
        rec = FlightRecorder(sample_every=0)
        rec.new_trace()
        assert not rec.recording
        span = rec.begin_span("s")
        rec.end_span(span)
        assert span is NULL_SPAN
        rec.event("e")
        assert len(rec) == 0
        assert rec.traces_sampled == 0

    def test_capacity_bounds_ring_and_counts_drops(self):
        rec = FlightRecorder(capacity=3)
        rec.new_trace()
        for i in range(5):
            span = rec.begin_span("s", i=i)
            rec.end_span(span)
        assert len(rec) == 3
        assert rec.spans_dropped == 2
        assert [s.attrs["i"] for s in rec.iter_spans()] == [2, 3, 4]

    def test_queries_filter_by_name_trace_and_attrs(self):
        rec = FlightRecorder()
        t1 = rec.new_trace()
        rec.event("a", peer="x")
        t2 = rec.new_trace()
        rec.event("a", peer="y")
        rec.event("b", peer="y")
        assert rec.traces() == [t1, t2]
        assert [s.trace for s in rec.spans(name="a")] == [t1, t2]
        assert rec.sequence(trace=t2) == ["a", "b"]
        assert [s.name for s in rec.spans(peer="y")] == ["a", "b"]
        rec.clear()
        assert rec.sequence() == []

    def test_null_recorder_surface_is_inert(self):
        rec = NULL_RECORDER
        assert isinstance(rec, NullRecorder)
        assert not rec.enabled
        assert not rec.recording
        assert rec.new_trace() == -1
        span = rec.begin_span("s")
        assert span is NULL_SPAN
        rec.end_span(span)
        rec.event("e")
        with rec.span("cm") as cm_span:
            assert cm_span is NULL_SPAN
        assert rec.spans() == []
        assert rec.sequence() == []
        assert rec.traces() == []
        assert list(rec.iter_spans()) == []
        assert len(rec) == 0
        rec.clear()

    def test_end_span_is_null_safe(self):
        FlightRecorder().end_span(NULL_SPAN)


class TestExport:
    def _armed(self) -> tuple[MetricsRegistry, FlightRecorder]:
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.histogram("lat").record(1e-5)
        reg.histogram("empty")
        reg.gauge("g").set(4)
        rec = FlightRecorder(capacity=8)
        rec.new_trace()
        rec.event("receive", n=1)
        return reg, rec

    def test_snapshot_dict_shape(self):
        reg, rec = self._armed()
        out = snapshot_dict(reg, rec, include_spans=True)
        assert out["metrics"]["c"] == 2
        assert out["recorder"]["traces_started"] == 1
        assert out["recorder"]["spans_recorded"] == 1
        assert out["spans"][0]["name"] == "receive"
        assert out["spans"][0]["attrs"] == {"n": 1}

    def test_to_json_is_deterministic_and_parseable(self):
        reg, rec = self._armed()
        text = to_json(reg, rec, include_spans=True)
        assert text == to_json(reg, rec, include_spans=True)
        parsed = json.loads(text)
        assert parsed["metrics"]["g"] == 4.0

    def test_to_table_lists_metrics_and_recorder(self):
        reg, rec = self._armed()
        table = to_table(reg, rec, title="t")
        assert "t" in table.splitlines()[0]
        assert any("counter" in line for line in table.splitlines())
        assert any("count=0" in line for line in table.splitlines())
        assert any("p999=" in line for line in table.splitlines())
        assert any("traces=1" in line for line in table.splitlines())


class TestEnvAndNodeWiring:
    def test_enabled_from_env_truthiness(self):
        for value in ("1", "true", "YES", " on "):
            assert enabled_from_env({"REPRO_OBS": value})
        for value in ("", "0", "off", "no"):
            assert not enabled_from_env({"REPRO_OBS": value})
        assert not enabled_from_env({})

    def test_repro_obs_env_arms_new_nodes(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        node = ServiceNode(Simulator(), "sn", "10.0.0.1")
        assert node.obs is not None
        monkeypatch.setenv("REPRO_OBS", "0")
        assert ServiceNode(Simulator(), "sn2", "10.0.0.2").obs is None

    def test_enable_observability_wires_components(self):
        sim = Simulator()
        node = ServiceNode(sim, "sn", "10.0.0.1")
        assert node.terminus.recorder is NULL_RECORDER
        obs = node.enable_observability(sample_every=3, capacity=128)
        assert isinstance(obs, NodeObs)
        rec = obs.recorder
        assert node.terminus.recorder is rec
        assert node.terminus.obs is obs
        assert node.terminus.channel.recorder is rec
        assert node.env.recorder is rec
        assert rec.capacity == 128
        assert rec.sample_every == 3
        # The recorder stamps with sim time.
        sim.run(until=2.0)
        rec.new_trace()
        span = rec.begin_span("s")
        rec.end_span(span)
        assert span.start == 2.0
        # Idempotent: re-arming returns the same bundle.
        assert node.enable_observability() is obs

    def test_enable_observability_covers_loaded_enclaves(self):
        from repro.core.service_module import ServiceModule, Verdict

        class _Enclaved(ServiceModule):
            SERVICE_ID = 900
            NAME = "enclaved"
            REQUIRES_ENCLAVE = True

            def handle_packet(self, header, packet):
                return Verdict.drop()

            def handle_control(self, header, packet):
                return Verdict.drop()

        class _Later(_Enclaved):
            SERVICE_ID = 901
            NAME = "later"

        node = ServiceNode(Simulator(), "sn", "10.0.0.1")
        node.env.load(_Enclaved())
        obs = node.enable_observability()
        enclave = node.env.enclave_for(900)
        assert enclave is not None and enclave.recorder is obs.recorder
        # Modules loaded after arming inherit the recorder too.
        node.env.load(_Later())
        later = node.env.enclave_for(901)
        assert later is not None and later.recorder is obs.recorder

    def test_node_obs_exports(self):
        node = ServiceNode(Simulator(), "sn", "10.0.0.1")
        obs = node.enable_observability()
        obs.terminus_latency.record(1e-5)
        parsed = json.loads(obs.export_json())
        assert parsed["metrics"]["terminus"]["latency"]["count"] == 1
        assert "terminus.latency" in obs.export_table()


class TestEngineCompactionCounter:
    def test_compactions_counts_heap_rebuilds(self):
        sim = Simulator()
        assert sim.compactions == 0
        handles = [sim.schedule(1.0, lambda: None) for _ in range(200)]
        for handle in handles[:150]:
            handle.cancel()
        assert sim.compactions >= 1
        assert sim.pending == 50


class TestSnapshotDropAccounting:
    def test_miss_queue_drops_count_in_snapshot(self):
        """Regression: MissQueueStats.dropped was invisible in drops."""
        from repro.core.ilp import ILPHeader
        from repro.core.packet import ILPPacket, L3Header, make_payload

        node = ServiceNode(Simulator(), "sn", "10.0.0.1")
        queue = node.terminus.miss_queue
        pkt = ILPPacket(
            l3=L3Header(src="10.0.0.2", dst="10.0.0.1"),
            ilp_wire=b"",
            payload=make_payload(b"x"),
        )
        flow = ("10.0.0.2", ILPHeader(service_id=1, connection_id=1).encode())
        queue.park(flow, [pkt, pkt, pkt])
        assert queue.discard_all() == 3
        snap = snapshot_sn(node)
        assert snap.miss_parked == 3
        assert snap.miss_dropped == 3
        assert snap.drops == 3

    def test_offload_drops_count_in_snapshot(self):
        node = ServiceNode(Simulator(), "sn", "10.0.0.1")
        node.terminus.stats.drops_by_offload += 2
        assert snapshot_sn(node).drops == 2

    def test_every_drop_counter_counts_in_snapshot(self):
        """The sum is derived from the ledger's field names, so the next
        ``drops_*`` counter cannot be forgotten (three already were)."""
        from dataclasses import fields

        node = ServiceNode(Simulator(), "sn", "10.0.0.1")
        stats = node.terminus.stats
        primes = iter((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53))
        by_name = {spec.name: next(primes) for spec in fields(stats)}
        for name, value in by_name.items():
            setattr(stats, name, value)
        node.terminus.miss_queue.stats.dropped = 59
        drop_names = [name for name in by_name if name.startswith("drops_")]
        assert "drops_no_route" in drop_names and len(drop_names) == 10
        assert snapshot_sn(node).drops == 59 + sum(by_name[n] for n in drop_names)

    def test_snapshot_without_obs_reports_zero_percentiles(self):
        snap = snapshot_sn(ServiceNode(Simulator(), "sn", "10.0.0.1"))
        assert snap.lat_p50 == snap.lat_p99 == snap.lat_p999 == 0.0
        assert snap.punt_p50 == snap.punt_p99 == snap.punt_p999 == 0.0

    def test_snapshot_with_obs_reports_percentiles(self):
        node = ServiceNode(Simulator(), "sn", "10.0.0.1")
        obs = node.enable_observability()
        obs.terminus_latency.record_many(1e-4, 10)
        obs.punt_latency.record(2e-5)
        snap = snapshot_sn(node)
        assert abs(snap.lat_p50 - 1e-4) <= 0.01 * 1e-4
        assert abs(snap.punt_p99 - 2e-5) <= 0.01 * 2e-5
