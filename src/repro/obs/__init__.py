"""repro.obs — the datapath observability subsystem.

Three pieces, one contract:

* :class:`MetricsRegistry` / :class:`Histogram` (``repro.obs.metrics``) —
  hierarchical counters/gauges plus DDSketch-style log-bucketed latency
  sketches with mergeable buckets and bounded-error quantiles.
* :class:`FlightRecorder` (``repro.obs.recorder``) — a bounded ring of
  per-packet lifecycle spans with a trace context that follows packets
  through the terminus fast path, the miss queue, the IPC boundary,
  enclave crossings, and failover.
* Exporters (``repro.obs.export``) — JSON snapshot + fixed-width table,
  wired into ``repro.core.monitoring`` for percentile columns.

The contract: observability is **purely observational**. With the shared
:data:`NULL_RECORDER` installed (the default), instrumented components
run the PR 6 code paths with at most one no-op call per stage; with a
real recorder installed, wire output and every stats ledger stay
byte-identical. Arm it per node with
:meth:`repro.core.service_node.ServiceNode.enable_observability` or
globally with ``REPRO_OBS=1`` in the environment.
"""

from __future__ import annotations

import os
from typing import Callable

from .export import merged_registry, snapshot_dict, to_json, to_table
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, ObsError
from .recorder import NULL_RECORDER, NULL_SPAN, FlightRecorder, NullRecorder, Span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsError",
    "FlightRecorder",
    "NullRecorder",
    "Span",
    "NULL_RECORDER",
    "NULL_SPAN",
    "NodeObs",
    "enabled_from_env",
    "merged_registry",
    "snapshot_dict",
    "to_json",
    "to_table",
]

_TRUTHY = {"1", "true", "yes", "on"}


def enabled_from_env(environ: "os._Environ[str] | dict[str, str] | None" = None) -> bool:
    """True when ``REPRO_OBS`` asks for observability (1/true/yes/on)."""
    env = environ if environ is not None else os.environ
    return env.get("REPRO_OBS", "").strip().lower() in _TRUTHY


class NodeObs:
    """One service node's observability bundle: recorder + registry.

    Built by :meth:`ServiceNode.enable_observability`, which threads the
    recorder through the terminus, invocation channel, execution
    environment, and enclaves. Only the two hot histograms are recorded
    on the datapath (cached as attributes, so no registry lookup); every
    counter keeps its one home on a ``*Stats`` ledger and reaches the
    registry when an export calls :attr:`collect`.
    """

    __slots__ = ("recorder", "registry", "terminus_latency", "punt_latency", "collect")

    def __init__(self, recorder: FlightRecorder, registry: MetricsRegistry) -> None:
        self.recorder = recorder
        self.registry = registry
        self.terminus_latency = registry.histogram("terminus.latency")
        self.punt_latency = registry.histogram("punt.latency")
        #: Copies the owning node's stats ledgers into ``registry``; the
        #: node installs it, every export calls it first.
        self.collect: Callable[[], None] = lambda: None

    def export_json(self, include_spans: bool = False) -> str:
        self.collect()
        return to_json(self.registry, self.recorder, include_spans=include_spans)

    def export_table(self, title: str = "node observability") -> str:
        self.collect()
        return to_table(self.registry, self.recorder, title=title)
