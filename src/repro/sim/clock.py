"""Virtual monotonic clock.

All timings in the reproduction are simulated.  A :class:`VirtualClock`
holds the current virtual time in nanoseconds and only moves forward.
Components that model costs call :meth:`VirtualClock.advance` with the
nanoseconds their operation takes; measurement code brackets a region
with :meth:`VirtualClock.now` calls, exactly as wall-clock measurement
code would with ``time.monotonic_ns``.
"""

from __future__ import annotations

from repro.errors import ClockError

NANOS_PER_MILLI = 1_000_000

_INF = float("inf")


class VirtualClock:
    """A monotonic, explicitly-advanced nanosecond clock.

    Parameters
    ----------
    start_ns:
        Initial virtual time.  Defaults to 0.

    Examples
    --------
    >>> clock = VirtualClock()
    >>> t0 = clock.now()
    >>> clock.advance(1_500)
    >>> clock.now() - t0
    1500.0
    """

    __slots__ = ("_now_ns",)

    def __init__(self, start_ns: float = 0.0) -> None:
        if start_ns < 0:
            raise ClockError(f"clock cannot start at negative time {start_ns}")
        self._now_ns = float(start_ns)

    def now(self) -> float:
        """Return the current virtual time in nanoseconds."""
        return self._now_ns

    def advance(self, delta_ns: float) -> float:
        """Move the clock forward by ``delta_ns`` and return the new time.

        Raises
        ------
        ClockError
            If ``delta_ns`` is negative (the clock is monotonic) or not
            a finite number.
        """
        if not 0.0 <= delta_ns < _INF:  # also rejects NaN
            raise ClockError(f"cannot advance clock by {delta_ns!r} ns")
        self._now_ns += float(delta_ns)
        return self._now_ns

    def advance_to(self, deadline_ns: float) -> float:
        """Move the clock forward to an absolute time.

        A deadline in the past is a no-op (the clock never rewinds);
        this mirrors how event loops jump to the next event timestamp.
        """
        if deadline_ns > self._now_ns:
            self._now_ns = float(deadline_ns)
        return self._now_ns

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now_ns:.0f}ns)"


def ns_to_ms(ns: float) -> float:
    """Convert nanoseconds to milliseconds."""
    return ns / NANOS_PER_MILLI
