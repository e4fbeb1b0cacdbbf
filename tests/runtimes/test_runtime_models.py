"""Tests for language runtime models and sessions."""

import pytest

from repro.errors import RuntimeModelError, UnknownRuntimeError
from repro.guestos.context import CostProfile, ExecContext
from repro.guestos.kernel import GuestKernel
from repro.hw.machine import xeon_gold_5515
from repro.runtimes import RUNTIME_NAMES, RuntimeSession, runtime_by_name
from repro.sim.ledger import CostCategory
from repro.sim.rng import SimRng


def make_session(lang="python", profile=None):
    ctx = ExecContext(
        machine=xeon_gold_5515(),
        profile=profile if profile is not None else CostProfile(noise_sigma=0.0),
        rng=SimRng(1),
    )
    session = RuntimeSession(runtime_by_name(lang), GuestKernel(ctx))
    session.bootstrap()
    return session


class TestRegistry:
    def test_all_seven_runtimes_present(self):
        assert set(RUNTIME_NAMES) == {
            "python", "node", "ruby", "lua", "luajit", "go", "wasm"
        }

    def test_unknown_runtime_raises(self):
        with pytest.raises(UnknownRuntimeError):
            runtime_by_name("perl")

    def test_compiled_runtimes_have_lower_dispatch(self):
        assert runtime_by_name("go").dispatch_factor < 3
        assert runtime_by_name("python").dispatch_factor > 20

    def test_jit_runtimes_have_warmup(self):
        for name in ("node", "luajit"):
            model = runtime_by_name(name)
            assert model.jit_factor is not None
            assert model.jit_warmup_units > 0
            assert model.jit_factor < model.dispatch_factor


class TestSessionLifecycle:
    def test_must_bootstrap_first(self):
        ctx = ExecContext(machine=xeon_gold_5515(), rng=SimRng(1))
        session = RuntimeSession(runtime_by_name("lua"), GuestKernel(ctx))
        with pytest.raises(RuntimeModelError):
            session.compute(10)

    def test_double_bootstrap_rejected(self):
        session = make_session()
        with pytest.raises(RuntimeModelError):
            session.bootstrap()

    def test_bootstrap_charges_startup_only(self):
        session = make_session("ruby")
        ledger = session.ctx.ledger
        assert ledger.get(CostCategory.STARTUP) > 0
        assert session.ctx.elapsed_ns() == 0.0   # startup excluded

    def test_heavier_startup_for_heavier_runtimes(self):
        assert (runtime_by_name("ruby").startup_ns
                > runtime_by_name("lua").startup_ns)


class TestCompute:
    def test_compute_charges_time(self):
        session = make_session()
        assert session.compute(1000) > 0
        assert session.ctx.elapsed_ns() > 0

    def test_zero_units_free(self):
        session = make_session()
        assert session.compute(0) == 0.0

    def test_negative_units_rejected(self):
        with pytest.raises(RuntimeModelError):
            make_session().compute(-1)

    def test_interpreter_slower_than_compiled(self):
        python_time = make_session("python").compute(50_000)
        go_time = make_session("go").compute(50_000)
        assert python_time > go_time * 5

    def test_jit_warmup_then_speedup(self):
        session = make_session("luajit")
        warmup = session.model.jit_warmup_units
        cold = session.compute(warmup)           # entirely interpreted
        hot = session.compute(warmup)            # entirely JIT compiled
        assert hot < cold

    def test_units_tracked(self):
        session = make_session()
        session.compute(100)
        session.compute(200)
        assert session.units_executed == 300


class TestMemoryAndGc:
    def test_allocate_tracks_heap(self):
        session = make_session()
        session.allocate(1 << 20)
        assert session.heap_bytes == 1 << 20
        session.release(1 << 19)
        assert session.heap_bytes == 1 << 19

    def test_release_never_negative(self):
        session = make_session()
        session.allocate(100)
        session.release(10_000)
        assert session.heap_bytes == 0

    def test_negative_alloc_rejected(self):
        with pytest.raises(RuntimeModelError):
            make_session().allocate(-1)

    def test_gc_triggers_after_threshold(self):
        session = make_session("python")
        threshold = session.model.gc_threshold_bytes
        session.allocate(threshold + 1)
        assert session.gc_runs == 1

    def test_gc_debt_resets(self):
        session = make_session("python")
        threshold = session.model.gc_threshold_bytes
        session.allocate(threshold + 1)
        assert session.gc_debt == 0

    def test_compute_churn_feeds_gc(self):
        session = make_session("python")
        threshold = session.model.gc_threshold_bytes
        units = int(threshold / session.model.alloc_bytes_per_unit) + 10
        session.compute(units)
        assert session.gc_runs >= 1


class TestBatchedCalls:
    @pytest.mark.parametrize("record", [
        lambda session: session.batch().compute(100, count=-1),
        lambda session: session.batch().log("hello", count=-1),
        lambda session: session.compute_batch(100, -1),
    ], ids=["batch-compute", "batch-log", "compute-batch"])
    def test_negative_count_rejected_before_recording(self, record):
        session = make_session()
        session.compute(100)
        before = (session.units_executed, session.gc_debt,
                  session.stdout_lines, session.ctx.clock.now())
        with pytest.raises(RuntimeModelError):
            record(session)
        assert (session.units_executed, session.gc_debt,
                session.stdout_lines, session.ctx.clock.now()) == before


class TestLoggingAndFiles:
    def test_log_counts_lines_and_costs(self):
        session = make_session()
        session.log("hello")
        session.log("world")
        assert session.stdout_lines == 2
        assert session.ctx.ledger.get(CostCategory.SYSCALL) > 0

    def test_file_round_trip(self):
        session = make_session()
        session.write_file("/out.txt", b"data")
        assert session.read_file("/out.txt") == b"data"
        assert session.delete_file("/out.txt") == 4

    def test_write_appends(self):
        session = make_session()
        session.write_file("/f", b"ab")
        session.write_file("/f", b"cd")
        assert session.read_file("/f") == b"abcd"

    def test_mkdir_rmdir(self):
        session = make_session()
        session.mkdir("/d")
        assert session.kernel.fs.is_dir("/d")
        session.rmdir("/d")
        assert not session.kernel.fs.exists("/d")


class TestTeeInteraction:
    def test_managed_runtime_taxed_more_by_tee(self):
        """The Fig. 6 insight: heavier runtimes → higher secure ratio."""
        from repro.tee import platform_by_name

        def ratio(lang):
            import statistics
            platform = platform_by_name("tdx", seed=3)
            secure = platform.create_vm()
            secure.boot()
            normal = platform.create_vm()
            normal.config.secure = False
            normal.boot()

            def body(kernel):
                session = RuntimeSession(runtime_by_name(lang), kernel)
                session.bootstrap()
                session.compute(60_000)
                return None

            s = statistics.fmean(
                secure.run(body, name=f"probe-{lang}", trial=i).elapsed_ns
                for i in range(8)
            )
            n = statistics.fmean(
                normal.run(body, name=f"probe-{lang}", trial=i).elapsed_ns
                for i in range(8)
            )
            return s / n

        assert ratio("python") > ratio("go")
