"""Tests for the FaaS workload suite: correctness of real results."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TrialPlan
from repro.core.runner import TrialRunner, execute_trial
from repro.errors import UnknownWorkloadError, WorkloadError
from repro.guestos.context import CostProfile, ExecContext
from repro.guestos.kernel import GuestKernel
from repro.hw.machine import xeon_gold_5515
from repro.runtimes import RuntimeSession, runtime_by_name
from repro.runtimes.registry import RUNTIME_NAMES
from repro.sim.ledger import CostCategory
from repro.sim.rng import SimRng
from repro.workloads.base import KERNEL_CACHE_SIZE, FaasWorkload, WorkloadTrait
from repro.workloads.faas import (
    FIGURE_WORKLOAD_NAMES,
    compute,
    io_mixed,
    memory,
    all_workloads,
    figure_workloads,
    register_workload,
    unregister_workload,
    workload_by_name,
)


def fresh_session(lang="lua"):
    ctx = ExecContext(
        machine=xeon_gold_5515(),
        profile=CostProfile(noise_sigma=0.0),
        rng=SimRng(7),
    )
    session = RuntimeSession(runtime_by_name(lang), GuestKernel(ctx))
    session.bootstrap()
    return session


def run_workload(name, args=None, lang="lua"):
    session = fresh_session(lang)
    return workload_by_name(name).run(session, args), session


class TestRegistry:
    def test_paper_set_has_25_workloads(self):
        assert len(FIGURE_WORKLOAD_NAMES) == 25
        assert len(figure_workloads()) == 25

    def test_paper_named_examples_present(self):
        for name in ("cpustress", "memstress", "iostress", "logging",
                     "factors", "filesystem", "ack"):
            assert name in FIGURE_WORKLOAD_NAMES

    def test_extra_workload_available(self):
        assert workload_by_name("juliaset") is not None
        assert len(all_workloads()) == 26

    def test_unknown_workload_raises(self):
        with pytest.raises(UnknownWorkloadError):
            workload_by_name("quantum")

    def test_register_unregister_custom(self):
        custom = FaasWorkload(
            name="custom-probe",
            trait=WorkloadTrait.CPU,
            description="test-only",
            fn=lambda session, args: args["x"],
            default_args={"x": 1},
        )
        register_workload(custom)
        try:
            assert workload_by_name("custom-probe").run(fresh_session()) == 1
        finally:
            unregister_workload("custom-probe")
        with pytest.raises(UnknownWorkloadError):
            workload_by_name("custom-probe")

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError):
            register_workload(workload_by_name("factors"))

    def test_unregister_builtin_rejected(self):
        with pytest.raises(ValueError):
            unregister_workload("cpustress")

    def test_every_workload_has_trait_and_origin(self):
        for workload in all_workloads():
            assert isinstance(workload.trait, WorkloadTrait)
            assert workload.description


class TestCorrectness:
    """The workloads really compute their results."""

    def test_factors(self):
        result, _ = run_workload("factors", {"n": 28})
        assert result == [1, 2, 4, 7, 14, 28]

    def test_factors_prime(self):
        result, _ = run_workload("factors", {"n": 97})
        assert result == [1, 97]

    def test_ackermann_known_values(self):
        result, _ = run_workload("ack", {"m": 2, "n": 3})
        assert result == 9
        result, _ = run_workload("ack", {"m": 3, "n": 3})
        assert result == 61

    def test_fibonacci(self):
        result, _ = run_workload("fibonacci", {"n": 10})
        assert result == 55

    def test_primes_count(self):
        result, _ = run_workload("primes", {"limit": 100})
        assert result["count"] == 25

    def test_mandelbrot_interior_nonzero(self):
        result, _ = run_workload("mandelbrot", {"size": 16, "max_iter": 30})
        assert result > 0

    def test_nbody_energy_finite(self):
        result, _ = run_workload("nbody", {"steps": 50})
        assert result["energy"] > 0

    def test_spectralnorm_converges(self):
        result, _ = run_workload("spectralnorm", {"n": 30, "iterations": 5})
        assert result == pytest.approx(1.123, abs=0.01)

    def test_fannkuch_known_value(self):
        result, _ = run_workload("fannkuch", {"n": 5})
        assert result == 7    # known fannkuch(5) max flips

    def test_matrix_trace_positive(self):
        result, _ = run_workload("matrix", {"n": 8})
        assert result > 0

    def test_sort_really_sorts(self):
        result, _ = run_workload("sort", {"n": 500})
        assert result["sorted"] is True
        assert result["min"] <= result["max"]

    def test_wordcount(self):
        result, _ = run_workload("wordcount", {"repeats": 2})
        assert result["the"] == 6    # 'the' appears 3x per repeat

    def test_jsonserde_round_trips(self):
        result, _ = run_workload("jsonserde", {"rounds": 3})
        assert result["rounds"] == 3
        assert result["doc_bytes"] > 50

    def test_base64_round_trips(self):
        result, _ = run_workload("base64", {"payload_bytes": 1024, "rounds": 2})
        assert result["encoded_bytes"] == 1368    # 4/3 expansion, padded

    def test_checksum_stable(self):
        a, _ = run_workload("checksum", {"blocks": 3, "block_bytes": 1024})
        b, _ = run_workload("checksum", {"blocks": 3, "block_bytes": 1024})
        assert a["crc32"] == b["crc32"]

    def test_compression_counts_runs(self):
        result, _ = run_workload("compression", {"payload_bytes": 29 * 4})
        assert result["runs"] == 12    # 3 runs per 29-byte period

    def test_shahash_digest_hex(self):
        result, _ = run_workload("shahash", {"payload_bytes": 128, "rounds": 2})
        assert len(result["digest"]) == 64

    def test_graphbfs_reaches_nodes(self):
        result, _ = run_workload("graphbfs", {"nodes": 100, "degree": 3})
        assert 1 <= result["reached"] <= 100
        assert result["edges_walked"] >= result["reached"] - 1

    def test_memstress_accounting(self):
        result, session = run_workload(
            "memstress", {"buffer_bytes": 1 << 20, "count": 3}
        )
        assert result["allocated_mb"] == 3
        assert session.heap_bytes == 0    # everything released

    def test_logging_line_count(self):
        result, session = run_workload("logging", {"messages": 50})
        assert result["messages"] == 50
        assert session.stdout_lines == 50

    def test_filesystem_verifies_and_cleans(self):
        result, session = run_workload("filesystem", {"file_bytes": 4096})
        assert result["verified"] is True
        assert session.kernel.fs.listdir("/") == []

    def test_iostress_bytes_written(self):
        result, session = run_workload(
            "iostress", {"file_bytes": 65536, "files": 2}
        )
        assert result["bytes_written"] == 2 * 65536
        assert session.kernel.fs.listdir("/") == []

    def test_htmlrender_writes_and_cleans(self):
        result, session = run_workload("htmlrender", {"rows": 10})
        assert result["rows"] == 10
        assert result["bytes"] > 100
        assert not session.kernel.fs.exists("/render.html")

    def test_stringconcat_length(self):
        result, _ = run_workload("stringconcat", {"rounds": 10})
        assert result["length"] > 10 * len("confidential-computing-")

    def test_cpustress_result_finite(self):
        result, _ = run_workload("cpustress", {"iterations": 100})
        assert result["iterations"] == 100
        assert abs(result["sum"]) < 1e6

    def test_juliaset_extra(self):
        result, _ = run_workload("juliaset", {"size": 12, "max_iter": 20})
        assert result >= 0


class TestCostShapes:
    def test_io_workloads_charge_io(self):
        for name in ("iostress", "filesystem"):
            _, session = run_workload(name, {"file_bytes": 65536})
            assert session.ctx.ledger.get(CostCategory.IO_WRITE) > 0, name

    def test_cpu_workloads_dominated_by_cpu(self):
        _, session = run_workload("cpustress")
        ledger = session.ctx.ledger
        elapsed = ledger.total_excluding(CostCategory.STARTUP)
        assert ledger.get(CostCategory.CPU) > elapsed * 0.5

    def test_memstress_dominated_by_memory(self):
        _, session = run_workload("memstress", {"count": 8})
        ledger = session.ctx.ledger
        mem = (ledger.get(CostCategory.MEM_ALLOC)
               + ledger.get(CostCategory.MEM_ACCESS))
        assert mem > ledger.total_excluding(CostCategory.STARTUP) * 0.5

    def test_default_args_run_everywhere(self):
        """Every registered workload runs green under every runtime."""
        for workload in all_workloads():
            result = workload.run(fresh_session("go"))
            assert result is not None, workload.name

    def test_results_identical_across_runtimes(self):
        """Ports across languages keep the original logic (§IV-B)."""
        for name in ("factors", "fibonacci", "primes"):
            results = {
                lang: run_workload(name, lang=lang)[0]
                for lang in ("python", "lua", "go")
            }
            assert results["python"] == results["lua"] == results["go"], name


class TestArgValidation:
    @pytest.mark.parametrize("name, args", [
        ("sort", {"n": 0}),
        ("compression", {"payload_bytes": 0}),
        ("spectralnorm", {"n": 0}),
        ("fannkuch", {"n": 0}),
        ("graphbfs", {"nodes": 0}),
        ("binarytrees", {"depth": -1}),
        ("cpustress", {"iterations": "x"}),
        ("cpustress", {"iterations": True}),
        ("cpustress", {"iterations": 6000.0}),
        ("cpustress", {"bogus": 1}),
        ("factors", [1, 2]),
    ])
    def test_bad_args_rejected_before_the_kernel(self, name, args):
        kernel = KERNELS.get(name)
        if kernel is not None:
            kernel.cache_clear()
        with pytest.raises(WorkloadError):
            workload_by_name(name).run(fresh_session(), args)
        if kernel is not None:
            assert kernel.cache_info().currsize == 0

    def test_smallest_domain_values_run(self):
        for workload in figure_workloads():
            floors = {arg: workload.min_args.get(arg, 0)
                      for arg in workload.default_args}
            assert workload.run(fresh_session(), floors) is not None, \
                workload.name


#: the figure functions whose host computation is a memoized kernel
KERNELS = {
    "cpustress": compute._cpustress_kernel,
    "fibonacci": compute._fibonacci_kernel,
    "primes": compute._primes_kernel,
    "mandelbrot": compute._mandelbrot_kernel,
    "nbody": compute._nbody_kernel,
    "spectralnorm": compute._spectralnorm_kernel,
    "fannkuch": compute._fannkuch_kernel,
    "matrix": compute._matrix_kernel,
    "sort": memory._sort_kernel,
    "wordcount": memory._wordcount_kernel,
    "jsonserde": memory._jsonserde_kernel,
    "base64": io_mixed._base64_kernel,
    "checksum": io_mixed._checksum_kernel,
    "compression": io_mixed._compression_kernel,
    "shahash": io_mixed._shahash_kernel,
    "graphbfs": io_mixed._graphbfs_kernel,
}

#: per-workload upper bounds that keep generated args cheap
SMALL_ARGS = {
    "cpustress": {"iterations": 400},
    "fibonacci": {"n": 14},
    "primes": {"limit": 2_000},
    "mandelbrot": {"size": 12, "max_iter": 30},
    "nbody": {"steps": 40},
    "spectralnorm": {"n": 8, "iterations": 3},
    "fannkuch": {"n": 6},
    "matrix": {"n": 8},
    "sort": {"n": 400},
    "wordcount": {"repeats": 40},
    "jsonserde": {"rounds": 8},
    "base64": {"payload_bytes": 3_000, "rounds": 4},
    "checksum": {"blocks": 4, "block_bytes": 2_048},
    "compression": {"payload_bytes": 2_000},
    "shahash": {"payload_bytes": 1_000, "rounds": 4},
    "graphbfs": {"nodes": 200, "degree": 4},
}


def _small_args(name):
    workload = workload_by_name(name)
    return st.tuples(st.just(name), st.fixed_dictionaries({
        arg: st.integers(workload.min_args.get(arg, 0), cap)
        for arg, cap in SMALL_ARGS[name].items()
    }))


def ledger_by_category(session):
    ledger = session.ctx.ledger
    return {category: ledger.get(category) for category in CostCategory}


class TestKernelCache:
    def test_every_kernel_is_a_bounded_cache(self):
        assert sorted(KERNELS) == sorted(SMALL_ARGS)
        for name, kernel in KERNELS.items():
            assert kernel.cache_info().maxsize == KERNEL_CACHE_SIZE, name

    def test_fig6_sweep_computes_each_kernel_once(self):
        """Exact count: 2 platforms x 7 runtimes x secure/normal = 28
        trials per function, one kernel miss and 27 hits each."""
        for kernel in KERNELS.values():
            kernel.cache_clear()
        plan = TrialPlan.matrix(kind="faas", platforms=("tdx", "sev-snp"),
                                workloads=FIGURE_WORKLOAD_NAMES,
                                runtimes=RUNTIME_NAMES, trials=1, seed=0)
        assert len(plan) == 28 * len(FIGURE_WORKLOAD_NAMES)
        results = TrialRunner(jobs=1).run(plan)
        assert not any(result.degraded for result in results)
        counts = {name: kernel.cache_info()[:2]
                  for name, kernel in KERNELS.items()}
        assert counts == {name: (27, 1) for name in KERNELS}

    @settings(max_examples=80, deadline=None)
    @given(case=st.sampled_from(sorted(KERNELS)).flatmap(_small_args))
    def test_hit_charges_exactly_like_miss(self, case):
        name, args = case
        kernel = KERNELS[name]
        kernel.cache_clear()
        miss_result, miss_session = run_workload(name, args, lang="node")
        hit_result, hit_session = run_workload(name, args, lang="node")
        assert kernel.cache_info()[:2] == (1, 1)
        assert hit_result == miss_result
        assert ledger_by_category(hit_session) == \
            ledger_by_category(miss_session)
        assert hit_session.ctx.clock.now() == miss_session.ctx.clock.now()


class TestRunRecording:
    """Runs of identical session calls are recorded a run at a time."""

    def test_logging_runs_split_at_digit_width(self):
        split = io_mixed._message_runs
        assert split(0) == []
        assert split(3000) == [(0, 3000)]
        assert split(999_999) == [(0, 999_999)]
        assert split(1_000_000) == [(0, 1_000_000)]
        assert split(1_000_001) == [(0, 1_000_000), (1_000_000, 1)]
        assert split(10_000_001) == [(0, 1_000_000), (1_000_000, 9_000_000),
                                     (10_000_000, 1)]
        for first, count in split(1_000_002):
            lengths = {len(io_mixed._log_message(index))
                       for index in (first, first + count - 1)}
            assert len(lengths) == 1
        assert len(io_mixed._log_message(999_999)) + 1 == \
            len(io_mixed._log_message(1_000_000))

    def test_default_trials_record_at_most_three_calls(self, monkeypatch):
        """Exact count of per-call expansions (``_compute_ops``) per
        default trial on TDX; per-call recording makes 3000 for logging
        and 900 for htmlrender.  A JIT crossing (luajit) or a GC
        (ruby, python) splits a run in three."""
        calls = []
        expand = RuntimeSession._compute_ops

        def counting(session, *args):
            calls.append(session.model.name)
            return expand(session, *args)

        monkeypatch.setattr(RuntimeSession, "_compute_ops", counting)
        plan = TrialPlan.matrix(kind="faas", platforms=("tdx",),
                                workloads=("logging", "htmlrender"),
                                runtimes=RUNTIME_NAMES, trials=1, seed=0)
        per_trial = {}
        for spec in plan:
            calls.clear()
            assert not execute_trial(spec).degraded
            per_trial.setdefault((spec.workload, spec.runtime),
                                 set()).add(len(calls))
        logging = {runtime: per_trial["logging", runtime]
                   for runtime in RUNTIME_NAMES}
        assert logging == {runtime: {3 if runtime in ("luajit", "ruby") else 1}
                           for runtime in RUNTIME_NAMES}
        for runtime in RUNTIME_NAMES:
            assert max(per_trial["htmlrender", runtime]) <= 3, runtime

    def test_default_stringconcat_records_one_call_per_decade(
            self, monkeypatch):
        """Exact count of allocation expansions (``_allocate_ops``) per
        default stringconcat trial on TDX: one per decade of the 2,500
        rounds, where per-round recording made 2,500, plus one for the
        final compute's churn.  A GC would add the collecting round
        and the run after it; no default trial collects."""
        calls = []
        expand = RuntimeSession._allocate_ops

        def counting(session, nbytes, transient, ops):
            gc_runs = session.gc_runs
            expand(session, nbytes, transient, ops)
            calls.append((transient, session.gc_runs - gc_runs))

        monkeypatch.setattr(RuntimeSession, "_allocate_ops", counting)
        plan = TrialPlan.matrix(kind="faas", platforms=("tdx",),
                                workloads=("stringconcat",),
                                runtimes=RUNTIME_NAMES, trials=1, seed=0)
        for spec in plan:
            calls.clear()
            assert not execute_trial(spec).degraded
            assert calls == [(False, 0)] * 4 + [(True, 0)], spec.runtime
