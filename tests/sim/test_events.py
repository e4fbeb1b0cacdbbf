"""Tests for the cluster engine's event queue."""

from repro.sim.events import LeanEventQueue


class TestLeanEventQueue:
    def test_pops_in_time_then_insertion_order(self):
        queue = LeanEventQueue()
        queue.push(100.0, 1, "late")
        queue.push(50.0, 2, "early")
        queue.push(100.0, 3, "late-second")
        popped = [queue.pop() for _ in range(3)]
        assert [(t, k, p) for t, _, k, p in popped] == [
            (50.0, 2, "early"),
            (100.0, 1, "late"),
            (100.0, 3, "late-second"),
        ]

    def test_payloads_never_compared(self):
        # ties break on the unique sequence number, so unorderable
        # payloads (plain objects) are safe at identical timestamps
        queue = LeanEventQueue()
        queue.push(1.0, 0, object())
        queue.push(1.0, 0, object())
        queue.pop()
        queue.pop()

    def test_len_and_truthiness(self):
        queue = LeanEventQueue()
        assert not queue and len(queue) == 0
        queue.push(7.0, 0, None)
        assert queue and len(queue) == 1
