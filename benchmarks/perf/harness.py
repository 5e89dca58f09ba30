"""One workload run: build the federation, drive rounds, check, measure.

Single process, single thread, closed loop: a round sends its packets
back-to-back, drains the simulator, and only then is the next round
generated. Only send + drain is timed; generating payloads and checking
deliveries happen between rounds, off the clock.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import random
import resource
import statistics
from collections import deque
from dataclasses import dataclass, fields, replace
from time import perf_counter, perf_counter_ns
from typing import Any, Optional

from repro import InterEdge, WellKnownService
from repro.core.host import Host, HostConnection
from repro.core.ilp import Flags, ILPHeader
from repro.core.packet import Payload
from repro.core.service_node import ServiceNode
from repro.services import standard_registry

from .trace import BUCKETS, Budget, Tracer
from .workloads import (
    CHURN_CONNS_PER_ROUND,
    CHURN_PACKETS_PER_CONN,
    HOSTS_PER_SIDE,
    PACKETS_PER_ROUND,
    Workload,
)

#: Simulated seconds per drain; the path is 16 ms of links plus processing.
DRAIN_SECONDS = 1.0
#: Ops of one calibration sample; one sample is taken before every round, so
#: the reference work sees the same phases of machine noise as the rounds do.
CALIBRATION_OPS = 1024
#: ``setup_s`` is the median of at least SETUPS_MIN set-ups; cheap set-ups
#: are repeated (up to SETUPS_MAX) until they have taken SETUPS_SECONDS, so a
#: sub-second set-up is not judged on three samples. The last one is measured.
SETUPS_MIN = 3
SETUPS_MAX = 7
SETUPS_SECONDS = 2.5
#: Connections opened per drain while establishing a workload's flows.
OPEN_BATCH = 256

_OPEN, _DATA, _CLOSE = range(3)

#: Budget row -> the per-layer metric that reports its self time (slow-path
#: rows per punt, the rest per delivered packet; ``federation`` is a share).
SELF_TIME_METRIC = {
    "host.send": "host.send_self_us_per_pkt",
    "host.recv": "host.recv_self_us_per_pkt",
    "netsim.engine": "netsim.engine_self_us_per_pkt",
    "netsim.link": "netsim.link_self_us_per_pkt",
    "service_node.burst": "service_node.burst_self_us_per_pkt",
    "service_node.transmit": "service_node.transmit_self_us_per_pkt",
    "pipe_terminus": "pipe_terminus.self_us_per_pkt",
    "psp.open": "psp.open_self_us_per_pkt",
    "psp.seal": "psp.seal_self_us_per_pkt",
    "ilp.decode": "ilp.decode_self_us_per_pkt",
    "ilp.encode": "ilp.encode_self_us_per_pkt",
    "decision_cache.probe": "decision_cache.probe_self_us_per_pkt",
    "decision_cache.write": "decision_cache.write_self_us_per_pkt",
    "ipc": "ipc.self_us_per_punt",
    "execution_env": "execution_env.dispatch_self_us_per_punt",
    "services": "services.handler_self_us_per_punt",
}


@dataclass(eq=False)
class Flow:
    """One connection of the workload, as the driver sees it."""

    src: Host
    dst: Host
    filler: bytes
    conn: Optional[HostConnection] = None
    next_seq: int = 0

    def next_payload(self) -> bytes:
        """Sequence number (8 bytes, big-endian) followed by the flow's filler."""
        data = self.next_seq.to_bytes(8, "big") + self.filler
        self.next_seq += 1
        return data


class Topology:
    """2 edomains x 2 SNs; hosts hang off the two non-border SNs."""

    def __init__(self, cache_capacity: int) -> None:
        net = InterEdge(registry=standard_registry())
        edges: list[ServiceNode] = []
        for name in ("e0", "e1"):
            net.create_edomain(name)
            sns = [net.add_sn(name, cache_capacity=cache_capacity) for _ in range(2)]
            border = net.edomains[name].border_sn
            edges.extend(sn for sn in sns if sn is not border)
        net.peer_all()
        net.deploy_required_services()
        self.net = net
        self.src_sn, self.dst_sn = edges
        self.sources = [net.add_host(self.src_sn) for _ in range(HOSTS_PER_SIDE)]
        self.sinks = [net.add_host(self.dst_sn) for _ in range(HOSTS_PER_SIDE)]
        self.sns = net.all_sns()

    def counters(self) -> dict[str, int]:
        """Every counter the metrics need, summed over the federation."""
        out = {
            "events": self.net.sim.events_processed,
            "frames_dropped": 0,
            "auth_failures": 0,
        }
        links = {id(link): link for node in self.net_nodes() for link in node.links}
        for link in links.values():
            for stats in link.stats.values():
                out["frames_dropped"] += (
                    stats.frames_dropped_loss + stats.frames_dropped_down
                )
        for node in self.net_nodes():
            for ctx in node.keystore.contexts.values():
                out["auth_failures"] += ctx.stats.auth_failures
        for sn in self.sns:
            terminus = sn.terminus
            for group, stats in (
                ("terminus", terminus.stats),
                ("shard", terminus.shard_stats),
                ("missq", terminus.miss_queue.stats),
                ("cache", sn.cache.stats),
                ("ipc", terminus.channel.stats),
            ):
                for field in fields(stats):
                    key = f"{group}.{field.name}"
                    out[key] = out.get(key, 0) + getattr(stats, field.name)
        return out

    def net_nodes(self) -> list[Any]:
        return [*self.sources, *self.sinks, *self.sns]

    def fate(self) -> list[int]:
        """Counters that must repeat exactly for one seed and round count."""
        out = [self.net.sim.events_processed]
        for sn in self.sns:
            stats = sn.terminus.stats
            cache = sn.cache.stats
            ipc = sn.terminus.channel.stats
            out += [
                stats.punts, stats.fast_path, stats.packets_out,
                cache.hits, cache.installs, cache.evictions,
                ipc.invocations, ipc.batches,
            ]  # fmt: skip
        return out

    def end_of_run_violations(self) -> list[str]:
        out = []
        for sn in self.sns:
            stats = sn.terminus.stats
            for name in ("drops_auth", "drops_malformed", "drops_no_peer", "drops_shed"):
                if getattr(stats, name):
                    out.append(f"{sn.name}: {name}={getattr(stats, name)}")
            if sn.terminus.miss_queue.live:
                out.append(f"{sn.name}: miss queue live={sn.terminus.miss_queue.live}")
        if self.net.sim.pending:
            out.append(f"simulator not drained: {self.net.sim.pending} events pending")
        return out


class Checker:
    """Each data packet exactly once, to the right host, intact, in order."""

    def __init__(self) -> None:
        self.sent = 0
        self.delivered_ok = 0
        self.violations: list[str] = []

    def check_round(self, sent: list[tuple[Flow, bytes]], sinks: list[Host]) -> None:
        """Compare what the sinks received with what the round sent.

        ``sent`` is in send order, so each connection's expected payloads
        form a queue whose head the next delivery on that connection must
        equal (the first 8 bytes are the sequence number). Clears
        ``Host.delivered``.
        """
        expected: dict[int, tuple[Flow, deque[bytes]]] = {}
        for flow, data in sent:
            assert flow.conn is not None
            entry = expected.get(flow.conn.connection_id)
            if entry is None:
                expected[flow.conn.connection_id] = (flow, deque((data,)))
            else:
                entry[1].append(data)
        self.sent += len(sent)
        for host in sinks:
            for header, payload in host.delivered:
                if header.flags & Flags.LAST:
                    continue  # teardown frames carry no data
                entry = expected.get(header.connection_id)
                if entry is None:
                    self._violation(f"{host.name}: packet of unknown connection")
                elif entry[0].dst is not host:
                    self._violation(f"{host.name}: packet meant for {entry[0].dst.name}")
                elif not entry[1]:
                    self._violation(f"{host.name}: duplicate or extra packet")
                elif payload.data != entry[1][0]:
                    self._violation(f"{host.name}: payload corrupt or out of order")
                else:
                    entry[1].popleft()
                    self.delivered_ok += 1
            host.delivered.clear()
        missing = sum(len(queue) for _, queue in expected.values())
        if missing:
            self._violation(f"{missing} packet(s) not delivered intact")

    def _violation(self, what: str) -> None:
        if len(self.violations) < 20:
            self.violations.append(what)
        elif len(self.violations) == 20:
            self.violations.append("...")

    @property
    def failed(self) -> int:
        return self.sent - self.delivered_ok


class Bench:
    """A built topology plus the workload's flows and round generator."""

    def __init__(self, spec: Workload, seed: int) -> None:
        self.spec = spec
        self.rng = random.Random(f"{spec.name}:{seed}")
        #: When set, rounds are recorded as root spans (and timed by them).
        self.tracer: Optional[Tracer] = None
        self.topo = Topology(spec.cache_capacity)
        self.net = self.topo.net
        self.checker = Checker()
        self.sends_failed = 0
        self.conns_opened = 0
        self.next_round = 0
        self.flows: list[Flow] = []
        #: Simulated send time of the current phase, and the latencies
        #: (simulated seconds) collected while the sink callback is armed.
        self._phase_sent_at = 0.0
        self.sim_latencies: list[float] = []
        # Flows take the 16 host pairs in turn, in an order the seed fixes, so
        # every seed loads the hosts equally and only the order differs.
        pairs = [(src, dst) for src in self.topo.sources for dst in self.topo.sinks]
        self.rng.shuffle(pairs)
        self._pairs = itertools.cycle(pairs)
        flows = [self._new_flow() for _ in range(spec.connections)]
        for i in range(0, len(flows), OPEN_BATCH):
            batch = [(flow, flow.next_payload()) for flow in flows[i : i + OPEN_BATCH]]
            self.drive([(_OPEN, batch)])
            self.checker.check_round(batch, self.topo.sinks)
        self.flows = flows
        for _ in range(spec.warmup_rounds):
            self.run_round()

    def _new_flow(self) -> Flow:
        src, dst = next(self._pairs)
        return Flow(src, dst, filler=self.rng.randbytes(self.spec.payload_bytes - 8))

    # -- rounds -----------------------------------------------------------
    def generate_round(self, rnd: int) -> list[tuple[int, list[tuple[Flow, bytes]]]]:
        """The packets of one round, generated off the clock."""
        draw = self.spec.draw
        if draw is not None:
            picks = draw(self.rng, rnd, len(self.flows))
            flows = self.flows
            return [(_DATA, [(flows[i], flows[i].next_payload()) for i in picks])]
        fresh = [self._new_flow() for _ in range(CHURN_CONNS_PER_ROUND)]
        first = [(flow, flow.next_payload()) for flow in fresh]
        more = [
            (flow, flow.next_payload())
            for _ in range(CHURN_PACKETS_PER_CONN - 1)
            for flow in fresh
        ]
        return [(_OPEN, first), (_DATA, more), (_CLOSE, [(flow, b"") for flow in fresh])]

    def drive(self, phases: list[tuple[int, list[tuple[Flow, bytes]]]]) -> None:
        """Send every phase back-to-back and drain after each. The timed part."""
        run = self.net.run
        sim = self.net.sim
        dst_sn = self.topo.dst_sn.address
        failed = 0
        for op, items in phases:
            self._phase_sent_at = sim.now
            if op == _DATA:
                for flow, data in items:
                    if not flow.src.send(flow.conn, data):
                        failed += 1
            elif op == _OPEN:
                for flow, data in items:
                    flow.conn = flow.src.connect(
                        WellKnownService.IP_DELIVERY,
                        dest_addr=flow.dst.address,
                        dest_sn=dst_sn,
                    )
                    if not flow.src.send(flow.conn, data):
                        failed += 1
                self.conns_opened += len(items)
            else:
                for flow, _ in items:
                    flow.src.close(flow.conn)
            run(DRAIN_SECONDS)
        self.sends_failed += failed

    def run_round(self) -> int:
        """One round: generate, drive (timed), check. Returns the cost in ns."""
        rnd = self.next_round
        self.next_round += 1
        phases = self.generate_round(rnd)
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_round(rnd)
            self.drive(phases)
            cost = tracer.end_round()
        else:
            start = perf_counter_ns()
            self.drive(phases)
            cost = perf_counter_ns() - start
        sent = [item for op, items in phases if op != _CLOSE for item in items]
        self.checker.check_round(sent, self.topo.sinks)
        return cost

    # -- simulated latency ------------------------------------------------
    def sample_sim_latency(self, rounds: int) -> None:
        """Run ``rounds`` untimed rounds with a delivery callback armed."""
        sim = self.net.sim
        latencies = self.sim_latencies

        def on_delivery(_conn_id: int, header: ILPHeader, _payload: Payload) -> None:
            if not header.flags & Flags.LAST:
                latencies.append(sim.now - self._phase_sent_at)

        for host in self.topo.sinks:
            host.default_handler = on_delivery
        try:
            for _ in range(rounds):
                self.run_round()
        finally:
            for host in self.topo.sinks:
                host.default_handler = None


def calibrate() -> int:
    """Fixed pure-Python reference work; returns its cost in ns."""
    table: dict[bytes, bytes] = {}
    sha256 = hashlib.sha256
    start = perf_counter_ns()
    for i in range(CALIBRATION_OPS):
        key = i.to_bytes(8, "big")
        table[key] = sha256(key).digest()
    return perf_counter_ns() - start


def percentile(values: "list[float] | list[int]", pct: int) -> float:
    """Nearest-rank percentile (no interpolation: sim latencies are discrete)."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * pct // 100)) - 1]


def tail_percentile(n: int) -> int:
    """Highest of p99/98/95/90/75 with at least ten samples beyond it, else p50."""
    for pct in (99, 98, 95, 90, 75):
        if n - -(-n * pct // 100) >= 10:
            return pct
    return 50


def timed_rounds(
    bench: Bench, rounds: Optional[int], seconds: Optional[float]
) -> tuple[list[int], list[int]]:
    """Run rounds for a fixed count or until ``seconds`` have passed.

    Returns (round costs, calibration costs), both in ns.
    """
    costs: list[int] = []
    calib: list[int] = []
    deadline = perf_counter() + seconds if seconds is not None else None
    while True:
        calib.append(calibrate())
        costs.append(bench.run_round())
        if rounds is not None and len(costs) >= rounds:
            break
        if deadline is not None and perf_counter() >= deadline:
            break
    return costs, calib


def _another_setup(setups: list[float], once: bool) -> bool:
    if once:
        return not setups
    if len(setups) < SETUPS_MIN:
        return True
    return len(setups) < SETUPS_MAX and sum(setups) < SETUPS_SECONDS


def run_workload(
    spec: Workload,
    seed: int,
    *,
    trace: bool,
    rounds: Optional[int] = None,
    seconds: Optional[float] = None,
    trace_path: Optional[str] = None,
) -> dict[str, Any]:
    """Run one workload in this process and return the full result.

    ``rounds`` is the smoke size (that many timed rounds, warm-up capped at
    it, one set-up); ``seconds`` time-boxes the timed rounds; with neither,
    the workload's fixed round count is used, so that counters repeat
    exactly. A traced run traces one eighth of the rounds first, then
    removes the wrappers and times untraced rounds in the same process.
    """
    if rounds is not None:
        spec = replace(
            spec,
            rounds=rounds,
            warmup_rounds=min(spec.warmup_rounds, rounds),
            latency_rounds=min(spec.latency_rounds, rounds),
        )
    tracer: Optional[Tracer] = None
    if trace:
        tracer = Tracer()
        tracer.install()
    try:
        setups: list[float] = []
        while _another_setup(setups, once=trace or rounds is not None):
            bench = None  # free the previous topology before building the next
            gc.collect()
            start = perf_counter()
            bench = Bench(spec, seed)
            setups.append(perf_counter() - start)
        gc.collect()
        gc.freeze()

        traced: Optional[dict[str, Any]] = None
        timed_n = spec.rounds
        if tracer is not None:
            timed_n = max(2, spec.rounds // 8)
            traced = traced_pass(bench, tracer, timed_n)
            tracer.uninstall()
            if trace_path is not None:
                tracer.write_jsonl(trace_path)

        topo = bench.topo
        fate_before = topo.fate()
        costs, calib = timed_rounds(bench, None if seconds is not None else timed_n, seconds)
        fate = [after - before for before, after in zip(fate_before, topo.fate())]
        bench.sample_sim_latency(spec.latency_rounds)
    finally:
        if tracer is not None:
            tracer.uninstall()
        gc.unfreeze()

    checker = bench.checker
    violations = checker.violations + topo.end_of_run_violations()
    if bench.sends_failed:
        violations.append(f"{bench.sends_failed} Host.send call(s) returned False")

    # Interference only ever adds time, so rates use the lower quartile.
    pkt_ns = percentile(costs, 25) / PACKETS_PER_ROUND
    calib_op_ns = percentile(calib, 25) / CALIBRATION_OPS
    tail_pct = tail_percentile(len(costs))
    e2e = {
        "setup_s": statistics.median(setups),
        "delivered_pps": 1e9 / pkt_ns,
        "norm_pkt_cost": pkt_ns / calib_op_ns,
        "delivery_ratio": checker.delivered_ok / checker.sent,
        "sim_latency_us_p50": percentile(bench.sim_latencies, 50) * 1e6,
        "sim_latency_us_p99": percentile(bench.sim_latencies, 99) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    layers = {
        "federation.round_cost_us_p50": percentile(costs, 50) / 1e3,
        "federation.round_cost_us_tail": percentile(costs, tail_pct) / 1e3,
        "federation.calib_us_per_op": calib_op_ns / 1e3,
    }
    budget_us: dict[str, float] = {}
    if traced is not None:
        layers.update(traced["layers"])
        layers["federation.trace_overhead_ratio"] = traced["pkt_ns"] / pkt_ns
        budget_us = traced["budget_us_per_pkt"]
        if traced["residual_ns"]:
            violations.append(f"span budget is off by {traced['residual_ns']} ns")
    return {
        "workload": spec.name,
        "seed": seed,
        "correct": not violations,
        "violations": violations,
        "attempted": checker.sent,
        "failed": checker.failed,
        "rounds": len(costs),
        "tail_pct": tail_pct,
        "e2e": e2e,
        "layers": layers,
        "budget_us_per_pkt": budget_us,
        "fate": fate,
    }


def traced_pass(bench: Bench, tracer: Tracer, rounds: int) -> dict[str, Any]:
    """Run ``rounds`` traced rounds; per-layer metrics from spans and counters."""
    topo = bench.topo
    before = topo.counters()
    opened = bench.conns_opened
    bench.tracer = tracer
    try:
        costs = [bench.run_round() for _ in range(rounds)]
    finally:
        bench.tracer = None
    after = topo.counters()
    budget = tracer.budget()
    packets = rounds * PACKETS_PER_ROUND
    return {
        "layers": layer_metrics(
            budget,
            {key: after[key] - before[key] for key in after},
            packets=packets,
            conns=bench.conns_opened - opened,
            entries_end=sum(len(sn.cache) for sn in topo.sns),
            sends_failed=bench.sends_failed,
        ),
        "budget_us_per_pkt": {b: budget.self_ns[b] / 1e3 / packets for b in BUCKETS},
        "pkt_ns": percentile(costs, 25) / PACKETS_PER_ROUND,
        "residual_ns": budget.residual_ns,
    }


def layer_metrics(
    budget: Budget,
    delta: dict[str, int],
    *,
    packets: int,
    conns: int,
    entries_end: int,
    sends_failed: int,
) -> dict[str, float]:
    """Per-layer metrics of the traced rounds: self times, counts, ratios."""

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    punts = delta["terminus.punts"]
    wall_s = budget.wall_ns / 1e9
    out = {
        name: per(budget.self_ns[bucket] / 1e3, punts if name.endswith("_per_punt") else packets)
        for bucket, name in SELF_TIME_METRIC.items()
    }
    out["federation.driver_self_share"] = per(budget.self_ns["federation"], budget.wall_ns)
    calls = budget.calls
    drops = sum(value for key, value in delta.items() if key.startswith("terminus.drops_"))
    out.update(
        {
            "federation.traced_us_per_pkt": budget.wall_ns / 1e3 / packets,
            "host.sends_failed": float(sends_failed),
            "netsim.events_per_pkt": delta["events"] / packets,
            "netsim.events_per_s": per(delta["events"], wall_s),
            "netsim.frames_dropped": float(delta["frames_dropped"]),
            "psp.open_calls_per_pkt": calls["psp.open"] / packets,
            "psp.seal_calls_per_pkt": calls["psp.seal"] / packets,
            "psp.auth_failures": float(delta["auth_failures"]),
            "ilp.decodes_per_pkt": calls["ilp.decode"] / packets,
            "ilp.encodes_per_pkt": calls["ilp.encode"] / packets,
            "decision_cache.hit_ratio": per(delta["cache.hits"], delta["cache.lookups"]),
            "decision_cache.installs_per_pkt": delta["cache.installs"] / packets,
            "decision_cache.evictions_per_pkt": delta["cache.evictions"] / packets,
            "decision_cache.entries_end": float(entries_end),
            "pipe_terminus.slow_path_share": per(punts, delta["terminus.packets_in"]),
            "pipe_terminus.pkts_per_batch_call": per(
                delta["terminus.packets_in"], delta["shard.bursts"]
            ),
            "pipe_terminus.groups_per_burst": per(delta["shard.groups"], delta["shard.bursts"]),
            "pipe_terminus.parked_per_pkt": delta["missq.parked"] / packets,
            "pipe_terminus.drops": float(drops),
            "pipe_terminus.punts_per_conn": per(punts, conns),
            "ipc.bytes_per_punt": per(delta["ipc.bytes_marshalled"], delta["ipc.invocations"]),
            "ipc.punts_per_batch": per(delta["ipc.invocations"], calls["ipc"]),
        }
    )
    return out
