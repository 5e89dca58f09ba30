"""Weighted fair queueing via virtual finish times.

Implements the standard WFQ approximation of generalized processor sharing
(Parekh & Gallager): each flow has a weight; each enqueued packet gets a
virtual finish time ``max(V, F_prev) + size / weight``; dequeue picks the
smallest finish time. Over a backlogged interval, flow service converges to
the weight proportions — the property the A-QOS benchmark asserts.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Optional


class SchedulerError(Exception):
    """Raised for invalid scheduler usage."""


@dataclass
class _FlowState:
    weight: float
    last_finish: float = 0.0
    backlog: int = 0
    bytes_enqueued: int = 0
    bytes_dequeued: int = 0


class WeightedFairQueue:
    """A WFQ scheduler over named flows."""

    def __init__(self) -> None:
        self._flows: dict[str, _FlowState] = {}
        self._heap: list[tuple[float, int, str, int, Any]] = []
        self._seq = itertools.count()
        self._virtual_time = 0.0
        self._backlog_total = 0

    def add_flow(self, name: str, weight: float) -> None:
        if weight <= 0:
            raise SchedulerError("weight must be positive")
        if name in self._flows:
            raise SchedulerError(f"flow {name!r} already exists")
        self._flows[name] = _FlowState(weight=weight)

    def _flow(self, name: str) -> _FlowState:
        try:
            return self._flows[name]
        except KeyError:
            raise SchedulerError(f"unknown flow {name!r}") from None

    def enqueue(self, flow: str, size_bytes: int, item: Any) -> None:
        state = self._flow(flow)
        start = max(self._virtual_time, state.last_finish)
        finish = start + size_bytes / state.weight
        state.last_finish = finish
        state.backlog += 1
        state.bytes_enqueued += size_bytes
        self._backlog_total += 1
        heapq.heappush(self._heap, (finish, next(self._seq), flow, size_bytes, item))

    def dequeue(self) -> Optional[tuple[str, int, Any]]:
        """Pop the next (flow, size, item), or None if empty."""
        if not self._heap:
            return None
        finish, _seq, flow, size, item = heapq.heappop(self._heap)
        self._virtual_time = finish
        state = self._flows[flow]
        state.backlog -= 1
        state.bytes_dequeued += size
        self._backlog_total -= 1
        if self._backlog_total == 0:
            # Idle system: reset virtual time to avoid unbounded growth.
            self._virtual_time = 0.0
            for st in self._flows.values():
                st.last_finish = 0.0
        return flow, size, item

    def __len__(self) -> int:
        return self._backlog_total

    @property
    def empty(self) -> bool:
        return self._backlog_total == 0

    def backlog(self, flow: str) -> int:
        return self._flow(flow).backlog

    def bytes_dequeued(self, flow: str) -> int:
        return self._flow(flow).bytes_dequeued

    def flows(self) -> list[str]:
        return sorted(self._flows)
