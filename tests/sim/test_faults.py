"""Unit tests for the seeded fault-injection substrate."""

import pytest

from repro.errors import SimulationError
from repro.sim.faults import (
    BACKOFF_BASE_NS,
    CRASH_WASTE_SCALE_NS,
    MAX_ATTEMPTS,
    BreakerState,
    CircuitBreaker,
    FailureLog,
    FaultContext,
    FaultKind,
    FaultPlan,
    Retries,
    backoff_ns,
)
from repro.sim.ledger import CostCategory, CostLedger
from repro.sim.trace import Trace


class TestFaultKind:
    def test_parse_round_trips_every_kind(self):
        for kind in FaultKind:
            assert FaultKind.parse(kind.value) is kind

    def test_parse_rejects_unknown(self):
        with pytest.raises(SimulationError, match="unknown fault kind"):
            FaultKind.parse("disk-melt")


class TestFaultPlan:
    def test_zero_rate_never_fires(self):
        plan = FaultPlan(rates={FaultKind.VM_CRASH: 0.0})
        assert not plan.active
        assert not any(
            plan.triggers(FaultKind.VM_CRASH, f"t{i}") for i in range(200)
        )

    def test_rate_one_always_fires(self):
        plan = FaultPlan(rates={FaultKind.VM_CRASH: 1.0})
        assert all(
            plan.triggers(FaultKind.VM_CRASH, f"t{i}") for i in range(50)
        )

    def test_triggers_is_pure_function_of_seed_kind_label(self):
        plan = FaultPlan(seed=7, rates={FaultKind.VM_CRASH: 0.5})
        first = [plan.triggers(FaultKind.VM_CRASH, f"t{i}") for i in range(100)]
        # asking again, in any order, reproduces the same decisions
        second = [
            plan.triggers(FaultKind.VM_CRASH, f"t{i}")
            for i in reversed(range(100))
        ]
        assert first == list(reversed(second))

    def test_kinds_draw_independent_substreams(self):
        plan = FaultPlan(seed=3, rates={FaultKind.VM_CRASH: 0.5,
                                        FaultKind.SLOW_TRIAL: 0.5})
        crash = [plan.triggers(FaultKind.VM_CRASH, f"t{i}") for i in range(64)]
        slow = [plan.triggers(FaultKind.SLOW_TRIAL, f"t{i}")
                for i in range(64)]
        assert crash != slow

    def test_empirical_rate_near_nominal(self):
        plan = FaultPlan(seed=1, rates={FaultKind.PCS_TIMEOUT: 0.3})
        hits = sum(
            plan.triggers(FaultKind.PCS_TIMEOUT, f"t{i}") for i in range(2000)
        )
        assert 0.25 < hits / 2000 < 0.35

    def test_validation(self):
        with pytest.raises(SimulationError, match="slow-factor"):
            FaultPlan(slow_factor=0.5)
        with pytest.raises(SimulationError, match="rate for vm-crash"):
            FaultPlan(rates={FaultKind.VM_CRASH: 1.5})
        with pytest.raises(SimulationError, match="keyed by FaultKind"):
            FaultPlan(rates={"vm-crash": 0.5})

    def test_crash_waste_is_bounded_and_deterministic(self):
        plan = FaultPlan(seed=5)
        waste = plan.crash_waste_ns("trial/x")
        assert 0.1 * CRASH_WASTE_SCALE_NS <= waste <= CRASH_WASTE_SCALE_NS
        assert waste == plan.crash_waste_ns("trial/x")
        assert waste != plan.crash_waste_ns("trial/y")


class TestSpecParsing:
    def test_parse_and_canonical_round_trip(self):
        plan = FaultPlan.parse("pcs-timeout=0.1, vm-crash=0.05 ,seed=9")
        assert plan.seed == 9
        assert plan.rate(FaultKind.VM_CRASH) == 0.05
        assert plan.rate(FaultKind.PCS_TIMEOUT) == 0.1
        canonical = plan.to_spec()
        assert canonical == "vm-crash=0.05,pcs-timeout=0.1,seed=9"
        assert FaultPlan.parse(canonical) == plan

    def test_parse_passthrough_and_slow_factor(self):
        plan = FaultPlan.parse("slow-trial=0.2,slow-factor=5")
        assert FaultPlan.parse(plan) is plan
        assert plan.slow_factor == 5.0
        assert "slow-factor=5" in plan.to_spec()

    def test_parse_rejects_bad_entries(self):
        with pytest.raises(SimulationError, match="expected key=value"):
            FaultPlan.parse("vm-crash")
        with pytest.raises(SimulationError, match="unknown fault kind"):
            FaultPlan.parse("disk-melt=0.1")
        with pytest.raises(SimulationError, match="bad fault spec value"):
            FaultPlan.parse("vm-crash=lots")

    def test_empty_spec_is_inactive(self):
        plan = FaultPlan.parse("")
        assert not plan.active
        assert plan.to_spec() == ""


class TestFaultContext:
    def test_records_fired_injections(self):
        ctx = FaultContext(FaultPlan(rates={FaultKind.VM_CRASH: 1.0}), "s")
        assert ctx.triggers(FaultKind.VM_CRASH, "execute")
        assert not ctx.triggers(FaultKind.SLOW_TRIAL, "slow")
        assert ctx.injected == ["vm-crash@execute"]

    def test_scoped_child_shares_log_but_narrows_labels(self):
        plan = FaultPlan(seed=2, rates={FaultKind.PCS_TIMEOUT: 1.0})
        parent = FaultContext(plan, "request")
        child = parent.scoped("verify/a0")
        assert child.scope == "request/verify/a0"
        child.triggers(FaultKind.PCS_TIMEOUT, "/tcb")
        assert parent.injected == ["pcs-timeout@/tcb"]


class TestRetryRule:
    def test_backoff_grows_exponentially(self):
        assert backoff_ns(0) == BACKOFF_BASE_NS == 2_000_000.0
        assert backoff_ns(2) == 4 * BACKOFF_BASE_NS
        assert MAX_ATTEMPTS == 3


class _Result:
    """The fields :meth:`Retries.succeed` reads and writes."""

    def __init__(self) -> None:
        self.ledger = CostLedger()
        self.total_ns = 1_000.0
        self.attempts = 1
        self.faults_injected: tuple[str, ...] = ()


class TestRetries:
    def test_attempts_are_scoped_by_label_and_index(self):
        retries = Retries(FaultPlan.parse("vm-crash=0.5"), "trial/x")
        scopes = []
        for faults in retries:
            scopes.append(faults.scope)
            retries.fail(RuntimeError("dead"), 0.0)
        assert scopes == ["trial/x/a0", "trial/x/a1", "trial/x/a2"]
        assert retries.attempt == MAX_ATTEMPTS

    def test_no_plan_or_inactive_plan_gives_no_context(self):
        for plan in (None, FaultPlan(rates={FaultKind.VM_CRASH: 0.0})):
            retries = Retries(plan, "pool")
            contexts = []
            for faults in retries:
                contexts.append(faults)
                retries.fail(RuntimeError("dead"), 0.0)
            assert contexts == [None] * MAX_ATTEMPTS

    def test_no_backoff_after_the_final_attempt(self):
        retries = Retries(None, "t")
        for _ in retries:
            retries.fail(RuntimeError("dead"), 10.0)
        assert [ev.backoff_ns for ev in retries.failures.events] == [
            backoff_ns(0), backoff_ns(1), 0.0]
        assert [ev.reason for ev in retries.failures.events] == [
            "RuntimeError"] * MAX_ATTEMPTS
        assert retries.failures.surcharge_ns == (
            30.0 + backoff_ns(0) + backoff_ns(1))

    def test_surcharge_and_extra_time_go_to_startup(self):
        retries = Retries(None, "t")
        result = _Result()
        for attempt, _ in enumerate(retries):
            if attempt == 0:
                retries.fail(RuntimeError("dead"), 100.0)
                continue
            assert retries.succeed(result, 5.0) is result
            break
        expected = 100.0 + backoff_ns(0) + 5.0
        assert result.ledger.breakdown()[CostCategory.STARTUP] == expected
        assert result.total_ns == 1_000.0 + expected
        assert result.attempts == 2
        assert result.faults_injected == ()

    def test_clean_first_attempt_is_not_stamped(self):
        result = _Result()
        retries = Retries(FaultPlan.parse("vm-crash=0.5"), "t")
        for _ in retries:
            retries.succeed(result)
            break
        assert result.ledger.total() == 0.0
        assert result.total_ns == 1_000.0
        assert (result.attempts, result.faults_injected) == (1, ())

    def test_injected_fault_is_stamped_without_a_retry(self):
        result = _Result()
        retries = Retries(FaultPlan.parse("slow-trial=1.0"), "t")
        for faults in retries:
            assert faults.triggers(FaultKind.SLOW_TRIAL, "execute")
            retries.succeed(result)
            break
        assert result.attempts == 1
        assert result.faults_injected == ("slow-trial@execute",)
        assert result.ledger.total() == 0.0


class TestFailureLog:
    def test_surcharge_sums_waste_and_backoff(self):
        log = FailureLog()
        log.add("VmCrashError", wasted_ns=100.0, backoff_ns=10.0)
        log.add("CollateralTimeoutError", backoff_ns=20.0)
        assert len(log) == 2
        assert log.surcharge_ns == 130.0

    def test_rejects_negative_accounting(self):
        with pytest.raises(SimulationError):
            FailureLog().add("x", wasted_ns=-1.0)

    def test_replay_emits_failure_and_retry_spans(self):
        log = FailureLog()
        log.add("VmCrashError", wasted_ns=100.0, backoff_ns=10.0)
        trace = Trace()
        cursor = log.replay(trace)
        assert cursor == 110.0
        names = [span.name for span in trace.spans]
        assert names == ["failure", "retry"]
        # spans are laid out sequentially and carry startup breakdowns
        assert trace.spans[0].end_ns == trace.spans[1].start_ns == 100.0
        assert trace.ledger_total_ns() == 110.0


class TestCircuitBreaker:
    def _tripped(self, **kwargs):
        """A breaker driven to OPEN by consecutive failures at t=0."""
        breaker = CircuitBreaker("dep", **kwargs)
        for _ in range(breaker.failure_threshold):
            breaker.record_failure(0.0)
        return breaker

    def test_validation(self):
        with pytest.raises(SimulationError, match="failure threshold"):
            CircuitBreaker("dep", failure_threshold=0)
        with pytest.raises(SimulationError, match="cooldown"):
            CircuitBreaker("dep", cooldown_ns=0.0)
        with pytest.raises(SimulationError, match="jitter"):
            CircuitBreaker("dep", jitter=1.0)

    def test_closed_allows_and_success_resets_failures(self):
        breaker = CircuitBreaker("dep", failure_threshold=3)
        assert breaker.allow(0.0)
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        breaker.record_success(2.0)
        breaker.record_failure(3.0)
        breaker.record_failure(4.0)
        # the success reset the streak: still two short of the threshold
        assert breaker.state is BreakerState.CLOSED

    def test_opens_at_threshold_and_short_circuits(self):
        breaker = self._tripped(failure_threshold=3)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(1.0)
        assert not breaker.allow(2.0)
        assert breaker.shorted == 2

    def test_half_open_probe_after_cooldown(self):
        breaker = self._tripped(cooldown_ns=100.0, jitter=0.0)
        assert not breaker.allow(99.0)
        assert breaker.allow(100.0)          # the single probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow(101.0)      # second caller refused

    def test_probe_success_closes(self):
        breaker = self._tripped(cooldown_ns=100.0, jitter=0.0)
        assert breaker.allow(100.0)
        breaker.record_success(100.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(101.0)

    def test_probe_failure_reopens(self):
        breaker = self._tripped(cooldown_ns=100.0, jitter=0.0)
        assert breaker.allow(100.0)
        breaker.record_failure(100.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(150.0)
        assert breaker.open_count == 2

    def test_cooldown_jitter_is_seeded_and_deterministic(self):
        draws = []
        for _ in range(2):
            breaker = self._tripped(seed=7, cooldown_ns=100.0, jitter=0.5)
            draws.append(breaker._cooldown_draw_ns)
        assert draws[0] == draws[1]
        assert 100.0 <= draws[0] < 150.0
        other = self._tripped(seed=8, cooldown_ns=100.0, jitter=0.5)
        assert other._cooldown_draw_ns != draws[0]

    def test_clock_regression_rearms_cooldown(self):
        # a fresh trial context restarts virtual time at 0; the breaker
        # must not treat the past-epoch trip as an elapsed cooldown
        breaker = self._tripped(cooldown_ns=100.0, jitter=0.0)
        breaker._opened_at_ns = 500.0
        assert not breaker.allow(10.0)       # re-armed from t=10
        assert not breaker.allow(109.0)
        assert breaker.allow(110.0)

    def test_transitions_marked_on_trace(self):
        trace = Trace()
        breaker = CircuitBreaker("pcs", cooldown_ns=100.0, jitter=0.0,
                                 failure_threshold=1, trace=trace)
        breaker.record_failure(0.0)
        breaker.allow(100.0)
        breaker.record_success(100.0)
        marks = [span.name for span in trace.spans]
        assert marks == ["breaker/pcs/open", "breaker/pcs/half-open",
                         "breaker/pcs/closed"]
        assert all(span.duration_ns == 0.0 for span in trace.spans)


class TestClusterFaultGeometry:
    """event_at_ns / window_ns: the cluster layer's timeline faults."""

    HORIZON = 1_000_000.0

    def plan(self, rate=1.0, seed=0):
        return FaultPlan(seed=seed, rates={FaultKind.HOST_CRASH: rate,
                                           FaultKind.ZONE_PARTITION: rate})

    def test_zero_rate_yields_no_geometry(self):
        plan = self.plan(rate=0.0)
        assert plan.event_at_ns(FaultKind.HOST_CRASH, "h0",
                                self.HORIZON) is None
        assert plan.window_ns(FaultKind.ZONE_PARTITION, "z0",
                              self.HORIZON) is None

    def test_event_lands_inside_the_middle_of_the_horizon(self):
        plan = self.plan()
        for label in ("host-00", "host-01", "host-02"):
            at = plan.event_at_ns(FaultKind.HOST_CRASH, label,
                                  self.HORIZON)
            assert 0.10 * self.HORIZON <= at <= 0.90 * self.HORIZON

    def test_window_bounded_by_scale_and_horizon(self):
        plan = self.plan()
        for label in ("zone-a", "zone-b", "zone-c"):
            start, end = plan.window_ns(FaultKind.ZONE_PARTITION, label,
                                        self.HORIZON)
            assert 0.05 * self.HORIZON <= start <= 0.70 * self.HORIZON
            assert start < end <= self.HORIZON
            assert (end - start
                    <= FaultPlan.WINDOW_SCALE * self.HORIZON + 1e-6)

    def test_geometry_is_pure_function_of_inputs(self):
        first = self.plan(seed=9).event_at_ns(
            FaultKind.HOST_CRASH, "h0", self.HORIZON)
        again = self.plan(seed=9).event_at_ns(
            FaultKind.HOST_CRASH, "h0", self.HORIZON)
        assert first == again
        other_label = self.plan(seed=9).event_at_ns(
            FaultKind.HOST_CRASH, "h1", self.HORIZON)
        assert first != other_label

    def test_position_independent_of_trigger_stream(self):
        # the placement substream is separate from the Bernoulli one,
        # so a plan where the fault *happens* to fire at a low rate
        # puts it at the same spot as a rate-1.0 plan
        low = FaultPlan(seed=4, rates={FaultKind.HOST_CRASH: 0.9999})
        high = FaultPlan(seed=4, rates={FaultKind.HOST_CRASH: 1.0})
        assert (low.event_at_ns(FaultKind.HOST_CRASH, "hX", self.HORIZON)
                == high.event_at_ns(FaultKind.HOST_CRASH, "hX",
                                    self.HORIZON))

    def test_cluster_kinds_parse_from_spec_strings(self):
        plan = FaultPlan.parse("host-crash=0.3,zone-partition=0.2,"
                               "degraded-host=0.4,collateral-outage=0.1")
        assert plan.rate(FaultKind.HOST_CRASH) == 0.3
        assert plan.rate(FaultKind.ZONE_PARTITION) == 0.2
        assert plan.rate(FaultKind.DEGRADED_HOST) == 0.4
        assert plan.rate(FaultKind.COLLATERAL_OUTAGE) == 0.1
