"""Hardware performance counters.

ConfBench integrates with ``perf stat``; the reproduction models the
counters ``perf`` would report (instructions, cycles, cache references
and misses, branch misses, context switches, page faults).  The TEE
layer also exposes TEE-specific counters (e.g. TDCALL/VMEXIT counts)
through the same structure under dedicated fields.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import HardwareError


@dataclass
class PerfCounters:
    """A bundle of monotonically increasing event counters."""

    instructions: int = 0
    cycles: int = 0
    cache_references: int = 0
    cache_misses: int = 0
    branch_instructions: int = 0
    branch_misses: int = 0
    context_switches: int = 0
    page_faults: int = 0
    # TEE-specific events (zero on normal VMs):
    vm_transitions: int = 0     # TDCALL / VMEXIT / RMM calls
    bounce_buffer_bytes: int = 0

    def add(self, other: "PerfCounters") -> None:
        """Accumulate every counter from ``other`` into this bundle."""
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def add_events(self, events, count: int = 1) -> None:
        """Accumulate ``(name, delta)`` pairs, each multiplied by ``count``.

        The batched kernel prices one repetition of an op into event
        deltas and applies them for all repetitions in one call; the
        arithmetic is integer, so the result equals ``count`` per-op
        bumps exactly.
        """
        if count < 0:
            raise HardwareError(f"negative event count: {count}")
        for name, delta in events:
            if delta < 0:
                raise HardwareError(
                    f"counter {name} delta is negative: {delta}")
            setattr(self, name, getattr(self, name) + delta * count)

    def nonzero_events(self) -> tuple[tuple[str, int], ...]:
        """The nonzero counters as ``(name, value)`` pairs.

        Pricing helpers run ops against a scratch bundle and capture
        the resulting deltas in this compact form for
        :meth:`add_events`.
        """
        return tuple(
            (name, value)
            for name in _COUNTER_FIELDS
            if (value := getattr(self, name))
        )

    def snapshot(self) -> "PerfCounters":
        """An independent copy (use with :meth:`delta` to bracket a run)."""
        return PerfCounters(**self.as_dict())

    def delta(self, earlier: "PerfCounters") -> "PerfCounters":
        """Counters accumulated since ``earlier`` was snapshotted.

        Raises
        ------
        HardwareError
            If any counter went backwards, which would indicate a
            modelling bug (counters are monotonic).
        """
        result = PerfCounters()
        for name in _COUNTER_FIELDS:
            diff = getattr(self, name) - getattr(earlier, name)
            if diff < 0:
                raise HardwareError(f"counter {name} went backwards by {-diff}")
            setattr(result, name, diff)
        return result

    def as_dict(self) -> dict[str, int]:
        """All counters as a plain dict (for JSON piggybacking)."""
        return {name: getattr(self, name) for name in _COUNTER_FIELDS}

    def emit(self, sink, prefix: str = "perf") -> None:
        """Feed every counter into a metrics sink.

        ``sink`` is duck-typed against the :mod:`repro.obs` sink
        protocol (``sink.count(name, value)``) — this layer sits below
        the observability package and must not import it.  Counter
        order is the field declaration order, which is fixed, so
        emission is deterministic.  Sinks providing ``count_many``
        receive all counters in one coalesced call.
        """
        items = [(f"{prefix}.{name}", value)
                 for name, value in self.as_dict().items()]
        count_many = getattr(sink, "count_many", None)
        if count_many is not None:
            count_many(items)
        else:
            for name, value in items:
                sink.count(name, value)


#: Counter names in declaration order, resolved once — ``fields()``
#: rebuilds its tuple on every call, which shows up on the hot path.
_COUNTER_FIELDS: tuple[str, ...] = tuple(
    field_info.name for field_info in fields(PerfCounters))
