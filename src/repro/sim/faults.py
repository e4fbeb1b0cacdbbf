"""Seeded, spec-derived fault injection.

Real CVM deployments fail constantly at trust boundaries: attestation
collateral fetches time out, TD-exits kill VMs, relays drop
connections ("Characterizing Trust Boundary Vulnerabilities in TEE
Containers" catalogs exactly these modes).  This module makes those
failures *first-class simulation inputs*: a :class:`FaultPlan` maps
fault kinds to per-trial probabilities, and every decision is drawn
from a label-derived :class:`~repro.sim.rng.SimRng` substream — the
same content-hash scheme the jitter streams use.

The determinism contract:

- Every ``triggers`` decision is a pure function of ``(plan seed,
  fault kind, label)``.  No shared stream state exists, so the order
  in which consumers ask is irrelevant — serial and parallel trial
  execution stay bit-identical under faults.
- Labels embed the trial's own stream label (plus the attempt index
  and the injection point), so trial K's faults do not move when the
  trial count changes, and each retry re-rolls independently.
- A zero rate short-circuits to False *without drawing*, so a
  zero-rate plan is byte-identical to running with no plan at all.

Failure handling built on top follows one rule: at most
:data:`MAX_ATTEMPTS` attempts, with an exponential :func:`backoff_ns`
charged between them and none after the last.  :class:`Retries` runs
that rule for the trial runner and the TEE pool, and
:class:`FailureLog` replays failed attempts into a
:class:`~repro.sim.trace.Trace` as structured ``failure`` / ``retry``
spans.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import SimulationError
from repro.sim.ledger import CostCategory
from repro.sim.rng import SimRng
from repro.sim.trace import Trace

#: Scale of the virtual time a crashed VM wastes before dying (the
#: partial execution between launch and the fatal TD-exit).
CRASH_WASTE_SCALE_NS = 200_000_000.0


class FaultKind(enum.Enum):
    """The failure modes the simulation can inject."""

    VM_CRASH = "vm-crash"               # the VM dies mid-execute (TD-exit)
    SLOW_TRIAL = "slow-trial"           # a whole trial runs degraded
    ATTEST_TRANSIENT = "attest-transient"  # transient verification failure
    PCS_TIMEOUT = "pcs-timeout"         # collateral fetch times out
    RELAY_DROP = "relay-drop"           # the TCP relay drops a connection
    # cluster-scale kinds (consumed by repro.core.cluster): these are
    # *windows on a virtual timeline* rather than per-call coin flips
    HOST_CRASH = "host-crash"           # a whole cluster host dies
    ZONE_PARTITION = "zone-partition"   # a failure domain drops off the net
    DEGRADED_HOST = "degraded-host"     # a host runs slowed by slow_factor
    COLLATERAL_OUTAGE = "collateral-outage"  # per-zone PCS/CDN blackout

    @classmethod
    def parse(cls, name: str) -> "FaultKind":
        for kind in cls:
            if kind.value == name:
                return kind
        known = ", ".join(kind.value for kind in cls)
        raise SimulationError(f"unknown fault kind {name!r}; known: {known}")


@dataclass(frozen=True)
class FaultPlan:
    """Per-kind fault rates plus the seed all decisions derive from.

    ``rates`` maps :class:`FaultKind` to a per-decision probability in
    [0, 1].  Kinds absent from the mapping never fire, and a rate of
    exactly 0 makes no draw at all (the zero-rate identity).
    """

    seed: int = 0
    slow_factor: float = 3.0
    rates: dict[FaultKind, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.slow_factor < 1.0:
            raise SimulationError(
                f"slow-factor must be >= 1.0, got {self.slow_factor}")
        for kind, rate in self.rates.items():
            if not isinstance(kind, FaultKind):
                raise SimulationError(f"rates must be keyed by FaultKind, "
                                      f"got {kind!r}")
            if not 0.0 <= rate <= 1.0:
                raise SimulationError(
                    f"rate for {kind.value} must be in [0, 1], got {rate}")

    @property
    def active(self) -> bool:
        """Whether any kind can ever fire."""
        return any(rate > 0.0 for rate in self.rates.values())

    def rate(self, kind: FaultKind) -> float:
        return self.rates.get(kind, 0.0)

    def triggers(self, kind: FaultKind, label: str) -> bool:
        """Decide one injection, purely from ``(seed, kind, label)``.

        Each (kind, label) pair owns an independent substream, so
        adding a new fault kind — or a new consumer — never perturbs
        the decisions of existing ones.
        """
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return False          # zero-rate identity: no draw at all
        if rate >= 1.0:
            return True
        return SimRng(self.seed, f"fault/{kind.value}/{label}").bernoulli(rate)

    def crash_waste_ns(self, label: str) -> float:
        """Virtual time a crashed VM burned before dying."""
        draw = SimRng(self.seed, f"fault/waste/{label}").uniform(0.1, 1.0)
        return draw * CRASH_WASTE_SCALE_NS

    # -- cluster-scale timeline faults ---------------------------------

    #: largest fraction of the horizon a fault window may span
    WINDOW_SCALE = 0.25

    def event_at_ns(self, kind: FaultKind, label: str,
                    horizon_ns: float) -> float | None:
        """When a one-shot fault (a host crash) fires, or None.

        Whether the fault fires at all is the usual label-derived
        Bernoulli; its position comes from an independent substream of
        the same label, drawn uniformly inside the middle of the
        horizon so the sweep always observes both the healthy prefix
        and the degraded suffix.  Pure function of (seed, kind, label,
        horizon) — scheduling order never matters.
        """
        if not self.triggers(kind, label):
            return None
        rng = SimRng(self.seed, f"fault/at/{kind.value}/{label}")
        return rng.uniform(0.10, 0.90) * horizon_ns

    def window_ns(self, kind: FaultKind, label: str,
                  horizon_ns: float) -> tuple[float, float] | None:
        """A ``(start_ns, end_ns)`` fault window on the timeline, or None.

        Used by the cluster layer for zone partitions, degraded-host
        slowdowns, and collateral outages: the window exists with the
        kind's rate and spans up to :data:`WINDOW_SCALE` of the
        horizon.  Same determinism contract as :meth:`event_at_ns`.
        """
        if not self.triggers(kind, label):
            return None
        rng = SimRng(self.seed, f"fault/window/{kind.value}/{label}")
        start = rng.uniform(0.05, 0.70) * horizon_ns
        duration = rng.uniform(0.5, 1.0) * self.WINDOW_SCALE * horizon_ns
        return (start, min(start + duration, horizon_ns))

    # -- the canonical spec-string form --------------------------------

    @classmethod
    def parse(cls, spec: "str | FaultPlan") -> "FaultPlan":
        """Build a plan from a ``key=value,...`` spec string.

        Keys are the fault-kind values (``vm-crash=0.1``) plus
        ``seed`` and ``slow-factor``.  Passing a plan returns it
        unchanged, so call sites accept either form.
        """
        if isinstance(spec, FaultPlan):
            return spec
        seed = 0
        slow_factor = 3.0
        rates: dict[FaultKind, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not value:
                raise SimulationError(
                    f"bad fault spec entry {part!r}; expected key=value")
            try:
                if key == "seed":
                    seed = int(value)
                elif key == "slow-factor":
                    slow_factor = float(value)
                else:
                    rates[FaultKind.parse(key)] = float(value)
            except ValueError as exc:
                raise SimulationError(
                    f"bad fault spec value {part!r}: {exc}") from exc
        return cls(seed=seed, slow_factor=slow_factor, rates=rates)

    def to_spec(self) -> str:
        """The canonical spec string (stable field order, ``%g`` rates).

        Round-trips through :meth:`parse`; used to embed plans in
        :class:`~repro.core.runner.TrialSpec` content hashes.
        """
        parts = [f"{kind.value}={self.rates[kind]:g}"
                 for kind in FaultKind if self.rates.get(kind, 0.0) > 0.0]
        if self.seed:
            parts.append(f"seed={self.seed}")
        if self.slow_factor != 3.0:
            parts.append(f"slow-factor={self.slow_factor:g}")
        return ",".join(parts)


class FaultContext:
    """A plan bound to one scope (one trial attempt, one request).

    Consumers ask ``triggers(kind, point)``; the scope plus the point
    name form the decision label.  Every fired injection is appended
    to ``injected`` so results can report exactly which faults hit —
    child scopes (see :meth:`scoped`) share the parent's log.
    """

    def __init__(self, plan: FaultPlan, scope: str) -> None:
        self.plan = plan
        self.scope = scope
        self.injected: list[str] = []

    def triggers(self, kind: FaultKind, point: str) -> bool:
        if self.plan.triggers(kind, f"{self.scope}/{point}"):
            self.injected.append(f"{kind.value}@{point}")
            return True
        return False

    def waste_ns(self, point: str) -> float:
        """Crash-waste draw scoped to this context."""
        return self.plan.crash_waste_ns(f"{self.scope}/{point}")

    def scoped(self, suffix: str) -> "FaultContext":
        """A child context with a narrower scope, sharing the log."""
        child = FaultContext(self.plan, f"{self.scope}/{suffix}")
        child.injected = self.injected
        return child

    def __repr__(self) -> str:
        return f"FaultContext(scope={self.scope!r})"


#: Attempts a retried unit of work gets before it gives up.
MAX_ATTEMPTS = 3

#: Backoff before the first retry; each later retry waits twice as long.
BACKOFF_BASE_NS = 2_000_000.0


def backoff_ns(attempt: int) -> float:
    """Backoff charged before retrying after failed ``attempt`` (0-based)."""
    return BACKOFF_BASE_NS * 2.0 ** attempt


class Retries:
    """The attempts of one retried unit of work, and their bookkeeping.

    Iterating yields up to :data:`MAX_ATTEMPTS` times the attempt's
    :class:`FaultContext`, scoped ``{label}/a{n}`` (None when the plan
    is absent or inactive).  The caller reports a failed attempt with
    :meth:`fail` before it continues, and hands a successful result to
    :meth:`succeed`.  A failure is charged a backoff only when another
    attempt follows it.  Once the loop ends, :attr:`attempt` counts the
    failed attempts and :attr:`failures` holds what they cost.
    """

    def __init__(self, plan: FaultPlan | None, label: str) -> None:
        self.plan = plan if plan is not None and plan.active else None
        self.label = label
        self.attempt = 0
        self.failures = FailureLog()
        self.injected: list[str] = []

    def __iter__(self) -> Iterator[FaultContext | None]:
        while self.attempt < MAX_ATTEMPTS:
            faults = None
            if self.plan is not None:
                faults = FaultContext(self.plan,
                                      f"{self.label}/a{self.attempt}")
                faults.injected = self.injected   # one log for all attempts
            yield faults

    def fail(self, exc: Exception, wasted_ns: float) -> None:
        """Record the current attempt as failed with ``exc``."""
        final = self.attempt + 1 >= MAX_ATTEMPTS
        self.failures.add(type(exc).__name__, wasted_ns=wasted_ns,
                          backoff_ns=0.0 if final else backoff_ns(self.attempt))
        self.attempt += 1

    def succeed(self, result, extra_ns: float = 0.0):
        """Charge the failures (plus ``extra_ns``) to ``result``'s STARTUP.

        Stamps ``attempts`` and ``faults_injected`` on the result when
        an attempt failed or a fault fired, and returns the result.
        """
        surcharge = self.failures.surcharge_ns + extra_ns
        if surcharge > 0:
            result.ledger.charge(CostCategory.STARTUP, surcharge)
            result.total_ns += surcharge
        if self.attempt or self.injected:
            result.attempts = self.attempt + 1
            result.faults_injected = tuple(self.injected)
        return result


class BreakerState(enum.Enum):
    """Circuit-breaker states (the classic three-state machine)."""

    CLOSED = "closed"         # healthy: calls pass through
    OPEN = "open"             # tripped: calls short-circuit
    HALF_OPEN = "half-open"   # cooled down: one probe call allowed


class CircuitBreaker:
    """A seeded, deterministic circuit breaker on *virtual* time.

    Wraps a flaky dependency (the Intel PCS, the VCEK device path) so
    repeated failures stop burning the per-call retry/timeout budget:
    after ``failure_threshold`` consecutive failures the breaker
    *opens* and refuses calls outright; once ``cooldown_ns`` of
    virtual time has passed it goes *half-open* and admits exactly one
    probe, whose outcome either re-closes or re-opens the circuit.

    Determinism contract: all timing comes from the caller-supplied
    ``now_ns`` (the trial's virtual clock) and the cooldown jitter is
    drawn from a ``(seed, name, open-episode)``-derived substream — so
    a breaker's trajectory is a pure function of the call sequence it
    observes, and serial/parallel sweeps stay bit-identical as long as
    breakers are scoped per trial (the runner builds one per
    attestation trial).

    State transitions are recorded on the optional ``trace`` as
    zero-duration ``breaker/<name>/<state>`` marks.
    """

    def __init__(self, name: str, seed: int = 0,
                 failure_threshold: int = 3,
                 cooldown_ns: float = 1_000_000_000.0,
                 jitter: float = 0.1,
                 trace: Trace | None = None) -> None:
        if failure_threshold < 1:
            raise SimulationError(
                f"failure threshold must be >= 1, got {failure_threshold}")
        if cooldown_ns <= 0:
            raise SimulationError(
                f"cooldown must be > 0, got {cooldown_ns}")
        if not 0.0 <= jitter < 1.0:
            raise SimulationError(
                f"jitter must be in [0, 1), got {jitter}")
        self.name = name
        self.seed = seed
        self.failure_threshold = failure_threshold
        self.cooldown_ns = cooldown_ns
        self.jitter = jitter
        self.trace = trace
        self.state = BreakerState.CLOSED
        #: consecutive failures observed while closed
        self.failures = 0
        #: calls refused (short-circuited) while open/half-open
        self.shorted = 0
        #: completed open episodes (indexes the jitter substream)
        self.open_count = 0
        self._opened_at_ns: float | None = None
        self._cooldown_draw_ns = 0.0

    def allow(self, now_ns: float) -> bool:
        """Whether a call may proceed at virtual time ``now_ns``.

        Open circuits refuse until the (jittered) cooldown elapses,
        then admit exactly one half-open probe; a second caller during
        the probe is refused.  Refusals are counted in :attr:`shorted`.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            opened = self._opened_at_ns or 0.0
            if now_ns < opened:
                # the clock regressed (a fresh trial context):
                # re-arm the cooldown from the new timeline
                self._opened_at_ns = now_ns
                opened = now_ns
            if now_ns - opened >= self._cooldown_draw_ns:
                self._transition(BreakerState.HALF_OPEN, now_ns)
                return True
        self.shorted += 1
        return False

    def record_success(self, now_ns: float) -> None:
        """Note a successful call; closes a half-open circuit."""
        self.failures = 0
        if self.state is not BreakerState.CLOSED:
            self._transition(BreakerState.CLOSED, now_ns)

    def record_failure(self, now_ns: float) -> None:
        """Note a failed call; may trip (or re-trip) the circuit."""
        if self.state is BreakerState.HALF_OPEN:
            self._open(now_ns)
            return
        if self.state is BreakerState.OPEN:
            return
        self.failures += 1
        if self.failures >= self.failure_threshold:
            self._open(now_ns)

    def _open(self, now_ns: float) -> None:
        self._opened_at_ns = now_ns
        draw = SimRng(self.seed,
                      f"breaker/{self.name}/open/{self.open_count}"
                      ).uniform(0.0, 1.0)
        self._cooldown_draw_ns = self.cooldown_ns * (1.0 + self.jitter * draw)
        self.open_count += 1
        self.failures = 0
        self._transition(BreakerState.OPEN, now_ns)

    def _transition(self, state: BreakerState, now_ns: float) -> None:
        self.state = state
        if self.trace is not None:
            self.trace.mark(f"breaker/{self.name}/{state.value}", now_ns)

    def __repr__(self) -> str:
        return (f"CircuitBreaker(name={self.name!r}, "
                f"state={self.state.value}, failures={self.failures}, "
                f"shorted={self.shorted})")


@dataclass
class FailureEvent:
    """One failed attempt: what died, the time it wasted, the backoff."""

    reason: str
    wasted_ns: float = 0.0
    backoff_ns: float = 0.0


class FailureLog:
    """Accumulates failed attempts across the retries of one request."""

    def __init__(self) -> None:
        self.events: list[FailureEvent] = []

    def __len__(self) -> int:
        return len(self.events)

    def add(self, reason: str, wasted_ns: float = 0.0,
            backoff_ns: float = 0.0) -> None:
        if wasted_ns < 0 or backoff_ns < 0:
            raise SimulationError("failure accounting cannot be negative")
        self.events.append(FailureEvent(reason=reason, wasted_ns=wasted_ns,
                                        backoff_ns=backoff_ns))

    @property
    def surcharge_ns(self) -> float:
        """Total virtual time the failures cost (waste + backoff)."""
        return sum(ev.wasted_ns + ev.backoff_ns for ev in self.events)

    def replay(self, trace: Trace) -> float:
        """Record the failures as ``failure``/``retry`` root spans.

        Spans are laid out sequentially from virtual time 0 and carry
        their cost in the ``startup`` breakdown bucket — infrastructure
        time, like boot, excluded from the paper's elapsed metric but
        visible in ``total_ns`` — which keeps the trace invariant (root
        ledger deltas sum to the run ledger) once the same surcharge is
        charged to the result's ledger.  Returns the total surcharge.
        """
        cursor = 0.0
        for event in self.events:
            if event.wasted_ns > 0:
                trace.record("failure", cursor, cursor + event.wasted_ns,
                             breakdown={"startup": event.wasted_ns})
                cursor += event.wasted_ns
            if event.backoff_ns > 0:
                trace.record("retry", cursor, cursor + event.backoff_ns,
                             breakdown={"startup": event.backoff_ns})
                cursor += event.backoff_ns
        return cursor
