"""Property-based invariants of runtime sessions."""

import dataclasses
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.guestos.context import CostProfile, ExecContext
from repro.guestos.kernel import GuestKernel
from repro.hw.machine import xeon_gold_5515
from repro.runtimes import (
    RUNTIME_NAMES,
    RuntimeModel,
    RuntimeSession,
    runtime_by_name,
)
from repro.sim.rng import SimRng


def make_session(lang, seed=1, noise=0.0):
    ctx = ExecContext(
        machine=xeon_gold_5515(),
        profile=CostProfile(noise_sigma=noise),
        rng=SimRng(seed),
    )
    session = RuntimeSession(runtime_by_name(lang), GuestKernel(ctx))
    session.bootstrap()
    return session


@settings(max_examples=25, deadline=None)
@given(
    lang=st.sampled_from(RUNTIME_NAMES),
    operations=st.lists(
        st.one_of(
            st.tuples(st.just("compute"), st.integers(0, 10_000)),
            st.tuples(st.just("alloc"), st.integers(0, 1 << 20)),
            st.tuples(st.just("release"), st.integers(0, 1 << 20)),
            st.tuples(st.just("log"), st.integers(1, 40)),
        ),
        max_size=20,
    ),
)
def test_elapsed_monotone_nondecreasing(lang, operations):
    """Property: virtual time never rewinds across any op sequence."""
    session = make_session(lang)
    last = session.ctx.elapsed_ns()
    for op, amount in operations:
        if op == "compute":
            session.compute(amount)
        elif op == "alloc":
            session.allocate(amount)
        elif op == "release":
            session.release(amount)
        else:
            session.log("x" * amount)
        now = session.ctx.elapsed_ns()
        assert now >= last
        last = now


@settings(max_examples=25, deadline=None)
@given(
    lang=st.sampled_from(RUNTIME_NAMES),
    allocations=st.lists(st.integers(0, 1 << 20), max_size=15),
)
def test_gc_runs_bounded_by_allocation_debt(lang, allocations):
    """Property: GC count never exceeds total-allocated / threshold + 1."""
    session = make_session(lang)
    for nbytes in allocations:
        session.allocate(nbytes)
    total = sum(allocations)
    bound = total // session.model.gc_threshold_bytes + 1
    assert session.gc_runs <= bound


@settings(max_examples=25, deadline=None)
@given(
    lang=st.sampled_from(RUNTIME_NAMES),
    pairs=st.lists(st.integers(1, 1 << 18), max_size=10),
)
def test_heap_returns_to_zero_after_matched_release(lang, pairs):
    """Property: alloc/release pairs leave the heap empty."""
    session = make_session(lang)
    for nbytes in pairs:
        session.allocate(nbytes)
    for nbytes in pairs:
        session.release(nbytes)
    assert session.heap_bytes == 0


@settings(max_examples=15, deadline=None)
@given(units=st.integers(1, 200_000))
def test_jit_total_time_at_most_interpreter_time(units):
    """Property: a JIT runtime is never slower than interpreting
    everything at its cold dispatch factor."""
    jit_session = make_session("luajit")
    jit_time = jit_session.compute(units)
    cold_model = runtime_by_name("luajit")
    # interpreter-only cost of the same units at the cold factor:
    cold_session = make_session("lua")   # same dispatch factor, no JIT
    cold_time = cold_session.compute(units)
    # luajit's memory profile differs slightly; allow 25% slack
    assert jit_time <= cold_time * 1.25


@settings(max_examples=20, deadline=None)
@given(
    lang=st.sampled_from(RUNTIME_NAMES),
    units=st.integers(0, 50_000),
    seed=st.integers(0, 100),
)
def test_compute_deterministic_per_seed(lang, units, seed):
    """Property: identical sessions charge identical time."""
    a = make_session(lang, seed=seed, noise=0.02)
    b = make_session(lang, seed=seed, noise=0.02)
    assert a.compute(units) == b.compute(units)


@settings(max_examples=20, deadline=None)
@given(messages=st.lists(st.text(max_size=60), max_size=15))
def test_stdout_line_count_exact(messages):
    """Property: every log call produces exactly one stdout line."""
    session = make_session("python")
    for message in messages:
        session.log(message)
    assert session.stdout_lines == len(messages)


# -- runs of identical calls: closed form == per-call loop -------------------

FACTORS = (1.0, 1.35, 3.0, 15.0, 26.0, 40.0)


def synthetic_model(draw, units):
    """A RuntimeModel whose GC threshold and JIT warmup may sit exactly
    on, just off, or below a call boundary of ``units``."""
    alloc = draw(st.sampled_from((0.0, 0.11, 0.45, 1.0, 5.2, 44.0, 62.0)))
    churn = int(units * alloc)
    threshold = draw(st.one_of(
        st.integers(1, 1 << 22),
        st.integers(1, max(1, churn)),                  # every call collects
        st.integers(1, 40).map(lambda k: max(1, k * churn)),
    ))
    jit = draw(st.booleans())
    return RuntimeModel(
        name="synthetic", startup_ns=1_000.0,
        dispatch_factor=draw(st.sampled_from(FACTORS)),
        alloc_bytes_per_unit=alloc,
        mem_refs_per_unit=draw(st.sampled_from((0.0, 0.8, 6.0))),
        gc_threshold_bytes=threshold,
        gc_scan_fraction=draw(st.sampled_from((0.0, 0.2, 0.35))),
        jit_factor=draw(st.sampled_from(FACTORS)) if jit else None,
        jit_warmup_units=draw(st.one_of(
            st.integers(0, 200_000),
            st.integers(0, 40).map(lambda k: k * units),   # hit exactly
        )) if jit else 0,
    )


@st.composite
def call_runs(draw):
    """A session in a generated starting state, plus one run of calls."""
    kind = draw(st.sampled_from(("compute_batch", "batch.compute",
                                 "batch.log")))
    message = None
    if kind == "batch.log":
        message = draw(st.text(max_size=120))
        units = 8 + len(message.encode()) // 8
    else:
        units = draw(st.one_of(st.just(0), st.integers(1, 5_000)))
    if draw(st.booleans()):
        model = runtime_by_name(draw(st.sampled_from(RUNTIME_NAMES)))
    else:
        model = synthetic_model(draw, units)
    count = draw(st.integers(0, 60))
    churn = int(units * model.alloc_bytes_per_unit)
    threshold = model.gc_threshold_bytes
    # start at a state whose next GC or JIT crossing may fall on the
    # k-th call of the run exactly
    gc_debt = draw(st.one_of(
        st.integers(0, threshold - 1),
        st.integers(1, 40).map(
            lambda k: min(threshold - 1, max(0, threshold - k * churn))),
    ))
    units_executed = draw(st.one_of(
        st.integers(0, 200_000),
        st.integers(0, 40).map(
            lambda k: max(0, model.jit_warmup_units - k * units)),
    ))
    return dict(
        kind=kind, model=model, units=units, message=message, count=count,
        working_set=draw(st.sampled_from((0, 4096, 1 << 20))),
        noise=draw(st.sampled_from((0.0, 0.03))),
        seed=draw(st.integers(0, 100)),
        state=dict(units_executed=units_executed, gc_debt=gc_debt,
                   heap_bytes=draw(st.integers(0, 1 << 22))),
    )


def run_session(case):
    ctx = ExecContext(
        machine=xeon_gold_5515(),
        profile=CostProfile(noise_sigma=case["noise"]),
        rng=SimRng(case["seed"]),
    )
    session = RuntimeSession(case["model"], GuestKernel(ctx))
    session.bootstrap()
    for name, value in case["state"].items():
        setattr(session, name, value)
    return session


def per_call_oracle(session, case):
    """The loop the closed form replaced: one record per call."""
    batch = session.ctx.batch()
    for _ in range(case["count"]):
        ops: list = []
        if case["message"] is None:
            session._compute_ops(case["units"], case["working_set"], ops)
        else:
            session._log_ops(case["message"], ops)
        batch.add_seq(ops)
    return batch


def observed(session, charged, entries):
    ctx = session.ctx
    return dict(
        charged=charged, entries=entries,
        ledger=dict(ctx.ledger), order=list(ctx.ledger),
        clock=ctx.clock.now(), counters=ctx.machine.counters.as_dict(),
        rng=(ctx.rng.raw_random().getstate(), ctx.rng.raw_random().gauss_next),
        state={name: getattr(session, name) for name in (
            "units_executed", "gc_debt", "gc_runs", "heap_bytes",
            "stdout_lines")},
    )


@settings(max_examples=400, deadline=None)
@given(case=call_runs())
def test_run_recording_equals_per_call_loop(case):
    """Property: compute_batch and SessionBatch.compute/log(count=) build
    the same OpBatch, ledger, clock, counters and session state as
    recording each call on its own."""
    expected_session = run_session(case)
    batch = per_call_oracle(expected_session, case)
    entries = list(batch.entries)
    expected = observed(expected_session,
                        expected_session.ctx.run_batch(batch), entries)

    session = run_session(case)
    units, count = case["units"], case["count"]
    if case["kind"] == "compute_batch":
        charged = session.compute_batch(units, count, case["working_set"])
        # its OpBatch stays internal; the ledger, clock and RNG compare
        entries = expected["entries"]
    else:
        staged = session.batch()
        if case["kind"] == "batch.compute":
            staged.compute(units, case["working_set"], count=count)
        else:
            staged.log(case["message"], count=count)
        entries = list(staged.batch.entries)
        charged = staged.commit()
    assert observed(session, charged, entries) == expected


@st.composite
def allocate_runs(draw):
    """A session in a generated starting state, plus ``count`` rounds of
    ``allocate(nbytes)`` each followed by ``release(release)``."""
    nbytes = draw(st.one_of(st.just(0), st.integers(1, 1 << 16)))
    release = draw(st.one_of(st.just(0), st.just(nbytes),
                             st.integers(0, 1 << 17)))   # may exceed nbytes
    threshold = draw(st.one_of(
        st.integers(1, 1 << 22),
        st.integers(1, max(1, nbytes)),                  # every round collects
        st.integers(1, 40).map(lambda k: max(1, k * nbytes)),
    ))
    model = dataclasses.replace(
        runtime_by_name(draw(st.sampled_from(RUNTIME_NAMES))),
        gc_threshold_bytes=threshold,
        gc_scan_fraction=draw(st.sampled_from((0.0, 0.2, 0.35))))
    # start where the next GC may fall on the k-th round exactly
    gc_debt = draw(st.one_of(
        st.integers(0, threshold - 1),
        st.integers(1, 40).map(
            lambda k: min(threshold - 1, max(0, threshold - k * nbytes))),
    ))
    return dict(
        model=model, nbytes=nbytes, release=release,
        count=draw(st.integers(0, 300)),
        noise=draw(st.sampled_from((0.0, 0.03))),
        seed=draw(st.integers(0, 100)),
        state=dict(gc_debt=gc_debt, heap_bytes=draw(st.one_of(
            st.integers(0, 64), st.integers(0, 1 << 22)))),
    )


@settings(max_examples=300, deadline=None)
@given(case=allocate_runs())
def test_allocate_runs_equal_per_round_loop(case):
    """Property: SessionBatch.allocate(count=, release=) builds the same
    OpBatch, ledger, clock, counters and session state as recording
    each allocate/release round on its own, and expands at most one
    run per GC-free stretch plus each collecting round."""
    nbytes, release, count = case["nbytes"], case["release"], case["count"]
    expected_session = run_session(case)
    batch = expected_session.ctx.batch()
    for _ in range(count):
        ops: list = []
        expected_session._allocate_ops(nbytes, transient=False, ops=ops)
        expected_session.heap_bytes = max(
            0, expected_session.heap_bytes - release)
        batch.add_seq(ops)
    entries = list(batch.entries)
    expected = observed(expected_session,
                        expected_session.ctx.run_batch(batch), entries)

    session = run_session(case)
    gc_runs = session.gc_runs
    with mock.patch.object(RuntimeSession, "_allocate_ops", autospec=True,
                           side_effect=RuntimeSession._allocate_ops) as spy:
        staged = session.batch().allocate(nbytes, count=count,
                                          release=release)
    entries = list(staged.batch.entries)
    assert observed(session, staged.commit(), entries) == expected
    collections = session.gc_runs - gc_runs
    if release <= nbytes:
        assert spy.call_count <= min(count, 1 + 2 * collections)
    else:
        assert spy.call_count == count
