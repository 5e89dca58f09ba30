"""Metrics: hierarchical counters/gauges and log-bucketed histograms.

The registry is the numeric half of the observability subsystem (the
:mod:`repro.obs.recorder` flight recorder is the structural half). Its
design constraints come from the datapath:

* **O(buckets) aggregation.** Sim-time latencies arrive from millions of
  packets; storing samples is out. :class:`Histogram` is a DDSketch-style
  log-bucketed sketch: a value lands in bucket ``ceil(log_gamma(v))``
  where ``gamma = (1 + a) / (1 - a)`` for a configured relative error
  ``a``, so any quantile read back is within ``a`` (relative) of the true
  recorded value, and the whole distribution is a small int-count map.
* **Mergeable.** Two histograms with the same ``relative_error`` merge by
  adding bucket counts — exactly (counts are ints), associatively and
  commutatively — so per-SN sketches roll up into edomain- and
  federation-level distributions without touching samples.
* **Cheap on the hot path.** :meth:`Histogram.record_many` records a
  whole flow run's worth of identical sim-time latencies with one bucket
  update, matching the terminus's per-group amortization.

Counters and gauges are deliberately plain; hierarchy comes from dotted
names (``terminus.fast_path``), which :meth:`MetricsRegistry.snapshot`
re-nests for export.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Iterable, Optional, Union


class ObsError(Exception):
    """Raised for invalid uses of the observability subsystem."""


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ObsError("counters only increase; use a Gauge")
        self.value += n


class Gauge:
    """A point-in-time level (queue depth, live entries, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """A mergeable log-bucketed latency sketch with bounded-error quantiles.

    Nonpositive values land in a dedicated zero bucket (they are exact:
    a zero latency reads back as zero). Positive values map to bucket
    ``i = ceil(log(v) / log(gamma))``; the bucket's representative value
    ``2 * gamma**i / (gamma + 1)`` is within ``relative_error`` of every
    value the bucket can hold, which is what bounds quantile error.
    """

    __slots__ = (
        "relative_error",
        "_gamma",
        "_log_gamma",
        "_buckets",
        "zeros",
        "count",
        "total",
        "min",
        "max",
    )

    def __init__(self, relative_error: float = 0.01) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ObsError("relative_error must be in (0, 1)")
        self.relative_error = relative_error
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        self._buckets: dict[int, int] = {}
        self.zeros = 0
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        self.record_many(value, 1)

    def record_many(self, value: float, n: int) -> None:
        """Record ``n`` observations of ``value`` in O(1)."""
        if n <= 0:
            return
        self.count += n
        self.total += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0.0:
            self.zeros += n
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + n

    # -- merging ----------------------------------------------------------
    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this sketch (bucket-exact); returns self."""
        if other.relative_error != self.relative_error:
            raise ObsError(
                "cannot merge histograms with different relative errors "
                f"({self.relative_error} vs {other.relative_error})"
            )
        buckets = self._buckets
        for index, n in other._buckets.items():
            buckets[index] = buckets.get(index, 0) + n
        self.zeros += other.zeros
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    def copy(self) -> "Histogram":
        out = Histogram(self.relative_error)
        out._buckets = dict(self._buckets)
        out.zeros = self.zeros
        out.count = self.count
        out.total = self.total
        out.min = self.min
        out.max = self.max
        return out

    @classmethod
    def merged(
        cls, parts: Iterable["Histogram"], relative_error: float = 0.01
    ) -> "Histogram":
        """A fresh sketch holding the union of ``parts`` (none mutated)."""
        out = cls(relative_error)
        for part in parts:
            out.merge(part)
        return out

    # -- reads ------------------------------------------------------------
    def bucket_counts(self) -> dict[int, int]:
        """The raw bucket map (index -> count); zeros are separate."""
        return dict(self._buckets)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``0 <= q <= 1``) within bounded relative error."""
        if not 0.0 <= q <= 1.0:
            raise ObsError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zeros:
            return 0.0
        seen = self.zeros
        gamma = self._gamma
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                return 2.0 * gamma**index / (gamma + 1.0)
        # Unreachable when the ledger balances; return the max as a floor.
        return self.max if self.max is not None else 0.0

    def percentile(self, pct: float) -> float:
        return self.quantile(pct / 100.0)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        """The standard export shape (counts plus key percentiles)."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named metrics with dotted-path hierarchy.

    ``counter``/``gauge``/``histogram`` get-or-create; asking for an
    existing name as a different kind raises :class:`ObsError` (a name
    means one thing forever — dashboards depend on it).
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get(self, name: str, kind: type) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind()
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise ObsError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        metric = self._get(name, Counter)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._get(name, Gauge)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, relative_error: float = 0.01) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(relative_error)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise ObsError(
                f"metric {name!r} is a {type(metric).__name__}, not a Histogram"
            )
        return metric

    def publish(self, prefix: str, stats: Any) -> None:
        """Mirror every field of a ``*Stats`` dataclass as ``prefix.<field>``.

        The ledger stays the counter's one home; the registry holds the
        value it had at the last publish.
        """
        for spec in dataclasses.fields(stats):
            self.counter(f"{prefix}.{spec.name}").value = getattr(stats, spec.name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry in: counters/gauges add, sketches merge."""
        for name, metric in other._metrics.items():
            if isinstance(metric, Counter):
                self.counter(name).inc(metric.value)
            elif isinstance(metric, Gauge):
                self.gauge(name).add(metric.value)
            else:
                mine = self.histogram(name, metric.relative_error)
                mine.merge(metric)
        return self

    def snapshot(self) -> dict[str, object]:
        """Nested dict keyed by dotted-name segments (JSON-ready)."""
        root: dict[str, object] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            parts = name.split(".")
            node = root
            for part in parts[:-1]:
                child = node.setdefault(part, {})
                if not isinstance(child, dict):
                    # A leaf and a subtree share a prefix; nest the leaf
                    # under its own key so neither is silently dropped.
                    child = node[part] = {"": child}
                node = child
            leaf: object
            if isinstance(metric, Counter):
                leaf = metric.value
            elif isinstance(metric, Gauge):
                leaf = metric.value
            else:
                leaf = metric.summary()
            node[parts[-1]] = leaf
        return root
