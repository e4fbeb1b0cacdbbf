"""The discrete-event queue behind the cluster engine.

:class:`repro.core.cluster.gateway.ClusterGateway` interleaves every
request's arrival, service and health events on one virtual timeline
through a :class:`LeanEventQueue`.  Nothing else in the simulator is
event-driven: per-trial runs advance their clock directly.
"""

from __future__ import annotations

import heapq


class LeanEventQueue:
    """A bare-tuple event heap for million-event simulations.

    The cluster engine pushes several events per request across sweeps
    of 10^6 requests, so the queue stores plain ``(time_ns, seq, kind,
    payload)`` tuples: ordering is (time, insertion sequence), and
    ``seq`` is unique, so ``kind``/``payload`` are never compared.
    There is no cancellation; consumers mark state on the payload and
    skip stale entries on pop, which costs nothing on the heap.  The
    queue keeps no clock: each popped ``time_ns`` is the consumer's now.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = 0

    def push(self, time_ns: float, kind: int, payload) -> None:
        """Schedule ``(kind, payload)`` at absolute virtual ``time_ns``."""
        self._seq += 1
        heapq.heappush(self._heap, (time_ns, self._seq, kind, payload))

    def pop(self) -> tuple:
        """The earliest ``(time_ns, seq, kind, payload)`` tuple."""
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
