"""Tests for the virtual clock."""

import pytest

from repro.errors import ClockError
from repro.sim.clock import VirtualClock, ns_to_ms


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_starts_at_custom_time(self):
        assert VirtualClock(500.0).now() == 500.0

    def test_rejects_negative_start(self):
        with pytest.raises(ClockError):
            VirtualClock(-1.0)

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(100)
        clock.advance(250)
        assert clock.now() == 350.0

    def test_advance_returns_new_time(self):
        clock = VirtualClock(10)
        assert clock.advance(5) == 15.0

    def test_advance_zero_is_allowed(self):
        clock = VirtualClock(7)
        clock.advance(0)
        assert clock.now() == 7.0

    def test_advance_rejects_negative(self):
        clock = VirtualClock()
        with pytest.raises(ClockError):
            clock.advance(-1)

    def test_advance_rejects_nan(self):
        clock = VirtualClock()
        with pytest.raises(ClockError):
            clock.advance(float("nan"))

    def test_advance_rejects_infinity(self):
        clock = VirtualClock()
        with pytest.raises(ClockError):
            clock.advance(float("inf"))
        assert clock.now() == 0.0

    def test_advance_to_future(self):
        clock = VirtualClock()
        clock.advance_to(1000)
        assert clock.now() == 1000.0

    def test_advance_to_past_is_noop(self):
        clock = VirtualClock(1000)
        clock.advance_to(500)
        assert clock.now() == 1000.0

    def test_repr_mentions_time(self):
        assert "123" in repr(VirtualClock(123))


class TestConversions:
    def test_ns_to_ms(self):
        assert ns_to_ms(2_000_000) == 2.0
