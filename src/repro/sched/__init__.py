"""Packet schedulers used by the last-hop QoS service (§6.2).

The paper's last-hop QoS lets a receiver give its first-hop SN a total
access-link bandwidth plus weights/priorities per traffic stream, scheduled
with weighted-fair queueing and/or priority scheduling. This package
provides those schedulers as standalone, well-tested primitives:

* :class:`TokenBucket` — rate limiting / shaping;
* :class:`WeightedFairQueue` — virtual-time WFQ (Parekh's GPS emulation);
* :class:`PriorityScheduler` — strict priorities with WFQ within a level.
"""

from .priority import PriorityScheduler
from .token_bucket import TokenBucket
from .wfq import WeightedFairQueue

__all__ = [
    "PriorityScheduler",
    "TokenBucket",
    "WeightedFairQueue",
]
