"""Tests for the unified trial-execution pipeline."""

import json

import pytest

from repro.core.journal import TrialJournal
from repro.core.runner import (
    BODY_CACHE_SIZE,
    ParallelTrialExecutor,
    RunnerError,
    SerialTrialExecutor,
    TrialPlan,
    TrialRunner,
    TrialSpec,
    _cached_body,
    build_body,
    execute_trial,
)
from repro.experiments.common import matched_cells
from repro.runtimes.registry import RUNTIME_NAMES
from repro.workloads.faas import FIGURE_WORKLOAD_NAMES


def faas_spec(trial=0, seed=0, secure=True, platform="tdx",
              workload="cpustress", runtime="lua"):
    return TrialSpec.make(kind="faas", platform=platform, secure=secure,
                          workload=workload, runtime=runtime,
                          trial=trial, seed=seed)


def small_plan(platform, trials=2, seed=0):
    return TrialPlan.matrix(
        kind="faas", platforms=(platform,), workloads=("cpustress",),
        runtimes=("lua",), trials=trials, seed=seed,
    )


def dump(results):
    return json.dumps([r.to_dict() for r in results], sort_keys=True)


class TestTrialSpec:
    def test_content_hash_stable(self):
        assert faas_spec().content_hash() == faas_spec().content_hash()

    def test_content_hash_sensitive_to_fields(self):
        base = faas_spec()
        assert base.content_hash() != faas_spec(trial=1).content_hash()
        assert base.content_hash() != faas_spec(seed=1).content_hash()
        assert (base.content_hash()
                != faas_spec(secure=False).content_hash())

    def test_params_canonicalised(self):
        a = TrialSpec.make(kind="faas", platform="tdx", secure=True,
                           workload="w", trial=0, seed=0,
                           params={"b": 2, "a": 1})
        b = TrialSpec.make(kind="faas", platform="tdx", secure=True,
                           workload="w", trial=0, seed=0,
                           params={"a": 1, "b": 2})
        assert a.params_json == b.params_json
        assert a.content_hash() == b.content_hash()

    def test_negative_trial_rejected(self):
        with pytest.raises(RunnerError):
            faas_spec(trial=-1)

    def test_derived_seed_independent_of_trial_count(self):
        """Trial K's substream must not move when more trials exist."""
        two = small_plan("tdx", trials=2)
        five = small_plan("tdx", trials=5)
        seeds_two = {(s.trial, s.secure): s.rng().random() for s in two}
        seeds_five = {(s.trial, s.secure): s.rng().random() for s in five}
        for key, seed in seeds_two.items():
            assert seeds_five[key] == seed

    def test_derived_seeds_distinct_across_trials(self):
        seeds = {faas_spec(trial=t).rng().random() for t in range(10)}
        assert len(seeds) == 10


class TestTrialPlan:
    def test_matrix_interleaves_secure_normal(self):
        plan = small_plan("tdx", trials=3)
        flags = [(s.trial, s.secure) for s in plan]
        assert flags == [(0, True), (0, False), (1, True), (1, False),
                         (2, True), (2, False)]

    def test_empty_plan_rejected(self):
        with pytest.raises(RunnerError):
            TrialPlan(specs=())

    def test_plan_hash_order_sensitive(self):
        a, b = faas_spec(trial=0), faas_spec(trial=1)
        assert (TrialPlan(specs=(a, b)).content_hash()
                != TrialPlan(specs=(b, a)).content_hash())


class TestDeterminism:
    @pytest.mark.parametrize("platform", ["tdx", "sev-snp"])
    def test_two_serial_runs_identical(self, platform):
        plan = small_plan(platform)
        assert dump(TrialRunner().run(plan)) == dump(TrialRunner().run(plan))

    @pytest.mark.parametrize("platform", ["tdx", "sev-snp"])
    def test_serial_vs_parallel_identical(self, platform):
        plan = small_plan(platform)
        serial = TrialRunner().run(plan)
        parallel = TrialRunner(jobs=2).run(plan)
        assert dump(serial) == dump(parallel)

    def test_result_independent_of_surrounding_trials(self):
        """A spec's result doesn't depend on what else ran."""
        alone = execute_trial(faas_spec(trial=1))
        plan = small_plan("tdx", trials=3)
        within = TrialRunner().run(plan)
        spec_index = next(i for i, s in enumerate(plan)
                          if s.trial == 1 and s.secure)
        assert within[spec_index].to_dict() == alone.to_dict()


class TestTracing:
    def test_every_result_has_spans(self):
        for result in TrialRunner().run(small_plan("tdx", trials=1)):
            names = [s.name for s in result.trace.roots()]
            assert names == ["boot", "launch", "execute"]

    def test_root_ledger_deltas_sum_to_run_total(self):
        for result in TrialRunner().run(small_plan("tdx", trials=1)):
            assert (result.trace.ledger_total_ns()
                    == pytest.approx(result.ledger.total(), rel=1e-9))


class TestCache:
    """Re-runs against the trial journal (``--cache``/``--resume``)."""

    def test_cache_hits_skip_execution(self, tmp_path):
        plan = small_plan("tdx")
        with TrialJournal(tmp_path / "cache.jsonl") as journal:
            first = TrialRunner(journal=journal).run(plan)
            assert journal.recorded == len(plan)

        class Exploding:
            jobs = 1

            def map(self, fn, specs, on_result=None):
                raise AssertionError("journal should have satisfied all specs")

        with TrialJournal(tmp_path / "cache.jsonl") as journal:
            runner = TrialRunner(executor=Exploding(), journal=journal)
            second = runner.run(plan)
            assert journal.replayed == len(plan)
        assert dump(first) == dump(second)
        counters = runner.metrics.snapshot()["counters"]
        assert counters["runner.trials_replayed"] == len(plan)
        assert counters["runner.trials_executed"] == 0

    def test_cache_keyed_by_spec(self, tmp_path):
        with TrialJournal(tmp_path / "cache.jsonl") as journal:
            TrialRunner(journal=journal).run(small_plan("tdx", seed=0))
            TrialRunner(journal=journal).run(small_plan("tdx", seed=1))
            assert journal.replayed == 0


class TestBodyCache:
    def test_second_fig6_pass_hits_every_body(self):
        """Exact ratio: the Fig. 6 grid fits the body cache, so a warm
        pass builds no body (a 128-entry LRU rebuilt every one)."""
        plan = TrialPlan.matrix(kind="faas", platforms=("tdx", "sev-snp"),
                                workloads=FIGURE_WORKLOAD_NAMES,
                                runtimes=RUNTIME_NAMES, trials=1, seed=0)
        assert len(plan) // 2 <= BODY_CACHE_SIZE
        _cached_body.cache_clear()
        for spec in plan:
            build_body(spec)
        hits, misses = _cached_body.cache_info()[:2]
        for spec in plan:
            build_body(spec)
        warm_hits = _cached_body.cache_info().hits - hits
        warm_misses = _cached_body.cache_info().misses - misses
        assert warm_hits / (warm_hits + warm_misses) == 1.0
        assert warm_hits == len(plan)


class TestExecutors:
    def test_parallel_rejects_bad_jobs(self):
        with pytest.raises(RunnerError):
            ParallelTrialExecutor(jobs=0)

    def test_parallel_falls_back_serially_for_one_spec(self):
        # jobs > 1 but a single spec: no pool spin-up needed.
        plan = small_plan("tdx", trials=1)
        spec = plan.specs[0]
        result = ParallelTrialExecutor(jobs=4).map(execute_trial, [spec])
        assert result[0].to_dict() == execute_trial(spec).to_dict()

    def test_serial_executor_preserves_order(self):
        plan = small_plan("tdx", trials=2)
        results = SerialTrialExecutor().map(execute_trial, list(plan))
        assert [(r.trial, r.secure) for r in results] == [
            (s.trial, s.secure) for s in plan]

    def test_spawned_workers_register_every_builtin_kind(self):
        # a spawned worker is a fresh interpreter: it inherits no
        # registry, so each kind must register through the import of
        # repro.core.runner alone (forked workers would hide that);
        # repro.core exports lazily but imports its scenarios eagerly
        import multiprocessing

        attestation_plan = [
            spec
            for kind in ("attestation", "attestation-service")
            for platform, flavor in (("tdx", "tdx-attestation"),
                                     ("sev-snp", "snp-attestation"))
            for spec in TrialPlan.matrix(
                kind=kind, platforms=(platform,), workloads=(flavor,),
                trials=1, seed=3, secure_modes=(True,),
                params={"infra_seed": 3})
        ]
        specs = [
            faas_spec(),
            *attestation_plan,
            TrialSpec.make(kind="supplychain", platform="tdx",
                           secure=False, workload="eager-normal",
                           trial=0, seed=3,
                           params={"vms": 1, "accesses": 1}),
            TrialSpec.make(kind="cluster", platform="tdx", secure=True,
                           workload="poisson", trial=0, seed=3,
                           params={"hosts": 3, "requests": 200}),
        ]
        spawned = ParallelTrialExecutor(
            jobs=2, mp_context=multiprocessing.get_context("spawn"),
        ).map(execute_trial, specs)
        assert dump(spawned) == dump(SerialTrialExecutor().map(
            execute_trial, specs))


class TestRunnerApi:
    def test_matched_cells_groups_by_cell(self):
        plan = small_plan("tdx", trials=2)
        cells = matched_cells(TrialRunner(), plan)
        assert set(cells) == {("tdx", "cpustress", "lua")}
        for sides in cells.values():
            assert set(sides) == {"secure", "normal"}
            assert {r.secure for r in sides["secure"]} == {True}
            assert {r.secure for r in sides["normal"]} == {False}
            for side in sides.values():
                assert [r.trial for r in side] == [0, 1]

    def test_unknown_kind_raises(self):
        spec = TrialSpec.make(kind="nope", platform="tdx", secure=True,
                              workload="w", trial=0, seed=0)
        with pytest.raises(RunnerError, match="unknown trial kind"):
            execute_trial(spec)

    def test_history_records_every_run(self):
        runner = TrialRunner()
        plan = small_plan("tdx", trials=1)
        results = runner.run(plan)
        assert runner.history == [(plan, results)]


FAULT_SPEC = ("vm-crash=0.3,slow-trial=0.2,attest-transient=0.2,"
              "pcs-timeout=0.2,seed=11")


class TestFaultInjection:
    def test_zero_rate_plan_is_byte_identical_to_no_faults(self):
        plan = small_plan("tdx", trials=3, seed=4)
        baseline = dump(TrialRunner().run(plan))
        zero = dump(TrialRunner(faults="vm-crash=0").run(plan))
        assert zero == baseline

    def test_serial_and_parallel_bit_identical_under_faults(self):
        plan = small_plan("tdx", trials=4, seed=3)
        serial = TrialRunner(faults=FAULT_SPEC).run(plan)
        parallel = TrialRunner(jobs=4, faults=FAULT_SPEC).run(plan)
        assert dump(serial) == dump(parallel)
        # the fault rates are high enough that something actually fired
        assert any(r.faults_injected for r in serial)

    def test_trial_k_faults_stable_when_trial_count_changes(self):
        short = small_plan("tdx", trials=3, seed=3)
        long = small_plan("tdx", trials=6, seed=3)
        short_results = TrialRunner(faults=FAULT_SPEC).run(short)
        long_results = TrialRunner(faults=FAULT_SPEC).run(long)
        assert dump(short_results) == dump(long_results[:len(short_results)])

    def test_equivalent_fault_spellings_canonicalise(self):
        plan = small_plan("tdx", trials=1)
        a = plan.with_faults("vm-crash=0.1,seed=2")
        b = plan.with_faults(" seed=2 , vm-crash=0.10 ")
        assert a.content_hash() == b.content_hash()

    def test_faulted_specs_hash_differently_but_cleanly(self):
        plan = small_plan("tdx", trials=1)
        faulted = plan.with_faults("vm-crash=0.1")
        assert plan.content_hash() != faulted.content_hash()
        # the unfaulted hash is untouched (old caches stay addressable)
        assert plan.content_hash() == small_plan("tdx", trials=1).content_hash()

    def test_crashed_trials_retry_and_charge_startup(self):
        from repro.sim.ledger import CostCategory

        plan = small_plan("tdx", trials=6, seed=3)
        results = TrialRunner(faults="vm-crash=0.4,seed=7").run(plan)
        retried = [r for r in results if r.attempts > 1 and not r.degraded]
        assert retried, "expected at least one retried trial at rate 0.4"
        for result in retried:
            # waste + backoff land in STARTUP: total_ns grows, the
            # paper metric elapsed_ns does not include them
            breakdown = dict(result.ledger)
            assert breakdown[CostCategory.STARTUP] > 0
            assert result.total_ns > result.elapsed_ns
            names = [span.name for span in result.trace.spans]
            assert "failure" in names and "retry" in names

    def test_exhausted_trials_degrade_never_drop(self):
        plan = small_plan("tdx", trials=8, seed=1)
        results = TrialRunner(faults="vm-crash=1").run(plan)
        assert len(results) == len(plan.specs)
        assert all(r.degraded for r in results)
        assert all(r.output is None for r in results)
        assert all(r.attempts == 3 for r in results)
        # degraded results round-trip through serialisation
        for result in results:
            payload = result.to_dict()
            assert payload["degraded"] is True

    def test_trace_invariant_holds_under_faults(self):
        plan = small_plan("tdx", trials=4, seed=3)
        for result in TrialRunner(faults=FAULT_SPEC).run(plan):
            assert result.trace.ledger_total_ns() == pytest.approx(
                result.ledger.total())

    def test_run_result_round_trips_fault_metadata(self):
        from repro.tee.vm import RunResult

        plan = small_plan("tdx", trials=6, seed=3)
        results = TrialRunner(faults=FAULT_SPEC).run(plan)
        for result in results:
            clone = RunResult.from_dict(result.to_dict())
            assert clone.attempts == result.attempts
            assert clone.faults_injected == result.faults_injected
            assert clone.degraded == result.degraded

    def test_cache_reuses_faulted_results(self, tmp_path):
        cache_file = tmp_path / "cache.jsonl"
        plan = small_plan("tdx", trials=3, seed=3)
        with TrialJournal(cache_file) as journal:
            first = TrialRunner(journal=journal, faults=FAULT_SPEC).run(plan)
        with TrialJournal(cache_file) as warm:
            second = TrialRunner(journal=warm, faults=FAULT_SPEC).run(plan)
            assert warm.replayed == len(plan.specs)
        assert dump(first) == dump(second)
