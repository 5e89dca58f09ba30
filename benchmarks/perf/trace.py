"""Wall-clock spans around each layer's public functions, from outside ``src/``.

:meth:`Tracer.install` replaces the functions listed in :data:`TARGETS` at
class level, before any node exists. Each wrapper appends one span -- five
integers ``name id, start_ns, end_ns, parent, round`` -- to one flat in-memory
list (plain integers, so recording gives the garbage collector nothing to
do); a span is identified by its offset in that list, and the round number
is the identifier the spans of one round share. A span's
*self time* is its duration minus the time its child spans cover, so the
self times of all spans add up to the duration of the root spans exactly --
that sum is the traced wall clock, and the per-layer budget is a partition
of it.

Cost reached through a private helper or a pre-bound alias has no span of
its own and lands in the caller's self time (README.md lists the gaps).
"""

from __future__ import annotations

import functools
from time import perf_counter_ns
from typing import Any, Callable

from repro.core.decision_cache import DecisionCache
from repro.core.execution_env import ExecutionEnvironment
from repro.core.federation import InterEdge
from repro.core.host import Host
from repro.core.ilp import ILPHeader
from repro.core.ipc import InvocationChannel
from repro.core.pipe_terminus import PipeTerminus
from repro.core.psp import PSPContext
from repro.core.service_node import ServiceNode
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.node import NetNode
from repro.services import IPDeliveryService

#: Budget rows, in report order. ``federation`` is the root: the driver's
#: own loop plus ``InterEdge.run``.
BUCKETS = (
    "host.send",
    "host.recv",
    "netsim.engine",
    "netsim.link",
    "service_node.burst",
    "service_node.transmit",
    "pipe_terminus",
    "psp.open",
    "psp.seal",
    "ilp.decode",
    "ilp.encode",
    "decision_cache.probe",
    "decision_cache.write",
    "ipc",
    "execution_env",
    "services",
    "federation",
)

#: (class, public attributes, budget row).
TARGETS: tuple[tuple[type, tuple[str, ...], str], ...] = (
    (Host, ("connect", "send", "close"), "host.send"),
    (Host, ("handle_frame",), "host.recv"),
    (Simulator, ("run", "post", "post_at", "schedule"), "netsim.engine"),
    (Link, ("transmit",), "netsim.link"),
    (NetNode, ("send_frame", "receive_frame", "receive_burst"), "netsim.link"),
    (ServiceNode, ("receive_burst", "handle_frame"), "service_node.burst"),
    (
        PipeTerminus,
        (
            "receive",
            "receive_batch",
            "send",
            "send_run",
            "send_gather",
            "apply_decision",
            "apply_verdict",
        ),
        "pipe_terminus",
    ),
    (PSPContext, ("open", "open_batch"), "psp.open"),
    (PSPContext, ("seal", "seal_batch", "seal_run", "seal_gather"), "psp.seal"),
    (ILPHeader, ("decode",), "ilp.decode"),
    (ILPHeader, ("encode",), "ilp.encode"),
    (
        DecisionCache,
        ("lookup", "lookup_run", "lookup_many", "stale_lookup"),
        "decision_cache.probe",
    ),
    (
        DecisionCache,
        (
            "install",
            "install_many",
            "invalidate",
            "invalidate_connection",
            "invalidate_by_target",
        ),
        "decision_cache.write",
    ),
    (InvocationChannel, ("invoke", "invoke_batch"), "ipc"),
    (ExecutionEnvironment, ("dispatch", "dispatch_batch"), "execution_env"),
    (IPDeliveryService, ("handle_packet", "handle_batch"), "services"),
    (InterEdge, ("run",), "federation"),
)

ROOT_NAME = "driver.round"
#: Integers per span record: name id, start_ns, end_ns, parent offset, round.
SPAN_WIDTH = 5

_MISSING = object()


class Tracer:
    """Span recorder; spans are only taken between begin/end_round."""

    def __init__(self) -> None:
        #: Flat span records, SPAN_WIDTH integers each.
        self.spans: list[int] = []
        self.names: list[str] = []
        self.bucket_of_name: list[str] = []
        self._stack: list[int] = []
        self._round = -1
        self._on = False
        self._saved: list[tuple[type, str, Any]] = []
        self._termini: list[tuple[PipeTerminus, Callable[..., bool]]] = []
        self._root_id = self._name_id(ROOT_NAME, "federation")

    def _name_id(self, name: str, bucket: str) -> int:
        self.names.append(name)
        self.bucket_of_name.append(bucket)
        return len(self.names) - 1

    # -- wrapping ---------------------------------------------------------
    def wrap(self, name: str, bucket: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        nid = self._name_id(name, bucket)
        spans = self.spans
        stack = self._stack
        clock = perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self._on:
                return fn(*args, **kwargs)
            at = len(spans)
            spans.extend((nid, 0, 0, stack[-1], self._round))
            stack.append(at)
            spans[at + 1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[at + 2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Patch every target at class level. Call before building nodes."""
        for cls, attrs, bucket in TARGETS:
            for attr in attrs:
                raw = cls.__dict__.get(attr, _MISSING)
                name = f"{cls.__name__}.{attr}"
                if isinstance(raw, staticmethod):
                    patched: Any = staticmethod(self.wrap(name, bucket, raw.__func__))
                else:
                    # An inherited method gets an override on the subclass.
                    patched = self.wrap(name, bucket, getattr(cls, attr))
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, patched)

        # The SN's transmit hook is a bound private method handed to the
        # terminus constructor; wrap it through the public set_transmit.
        init = PipeTerminus.__init__
        tracer = self

        @functools.wraps(init)
        def traced_init(terminus: PipeTerminus, *args: Any, **kwargs: Any) -> None:
            init(terminus, *args, **kwargs)
            transmit = kwargs["transmit"] if "transmit" in kwargs else args[4]
            terminus.set_transmit(
                tracer.wrap("ServiceNode.transmit", "service_node.transmit", transmit)
            )
            tracer._termini.append((terminus, transmit))

        self._saved.append((PipeTerminus, "__init__", init))
        PipeTerminus.__init__ = traced_init  # type: ignore[method-assign]

    def uninstall(self) -> None:
        """Restore every patched attribute and every wrapped transmit hook."""
        for cls, attr, raw in reversed(self._saved):
            if raw is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, raw)
        self._saved.clear()
        for terminus, transmit in self._termini:
            terminus.set_transmit(transmit)
        self._termini.clear()

    # -- rounds -----------------------------------------------------------
    def begin_round(self, rnd: int) -> None:
        self._round = rnd
        self._stack.append(len(self.spans))
        self.spans += (self._root_id, perf_counter_ns(), 0, -1, rnd)
        self._on = True

    def end_round(self) -> int:
        """Close the round's root span; returns its duration in ns."""
        self._on = False
        end = perf_counter_ns()
        at = self._stack.pop()
        self.spans[at + 2] = end
        return end - self.spans[at + 1]

    # -- output -----------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        names = self.names
        spans = self.spans
        with open(path, "w", encoding="utf-8") as out:
            for at in range(0, len(spans), SPAN_WIDTH):
                nid, start, end, parent, rnd = spans[at : at + SPAN_WIDTH]
                # Names are identifiers and dots, so no JSON escaping is needed.
                out.write(
                    f'{{"id": {at // SPAN_WIDTH}, "name": "{names[nid]}", '
                    f'"start_ns": {start}, "end_ns": {end}, '
                    f'"parent": {parent // SPAN_WIDTH if parent >= 0 else -1}, "round": {rnd}}}\n'
                )

    def budget(self) -> "Budget":
        return Budget(self.spans, self.bucket_of_name)


def self_times(spans: list[int]) -> list[int]:
    """Self time of each span: duration minus what its children cover.

    ``spans`` is the flat record list (``name id, start, end, parent offset,
    round`` per span). Children of one span never overlap each other
    (single thread, strict nesting), so the covered time is the sum of the
    children's durations.
    """
    out = [spans[at + 2] - spans[at + 1] for at in range(0, len(spans), SPAN_WIDTH)]
    for at in range(0, len(spans), SPAN_WIDTH):
        parent = spans[at + 3]
        if parent >= 0:
            out[parent // SPAN_WIDTH] -= spans[at + 2] - spans[at + 1]
    return out


class Budget:
    """Per-bucket self time and call counts of one traced pass."""

    def __init__(self, spans: list[int], bucket_of_name: list[str]) -> None:
        self.self_ns = dict.fromkeys(BUCKETS, 0)
        self.calls = dict.fromkeys(BUCKETS, 0)
        self.wall_ns = 0
        for i, own in enumerate(self_times(spans)):
            at = i * SPAN_WIDTH
            bucket = bucket_of_name[spans[at]]
            self.self_ns[bucket] += own
            self.calls[bucket] += 1
            if spans[at + 3] < 0:
                self.wall_ns += spans[at + 2] - spans[at + 1]

    @property
    def residual_ns(self) -> int:
        """Traced wall minus the sum of all rows; 0 by construction."""
        return self.wall_ns - sum(self.self_ns.values())
