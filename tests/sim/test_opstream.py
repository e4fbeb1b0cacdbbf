"""The batched op-stream kernel: OpBatch, accumulate, BatchLedger."""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.ledger import CostCategory, CostLedger
from repro.sim.opstream import BatchLedger, Op, OpBatch, accumulate


class TestOpBatch:
    def test_coalesces_consecutive_identical_sequences(self):
        batch = OpBatch()
        op = Op("cpu", (100, 10, 0))
        batch.add(op)
        batch.add(op, 4)
        batch.add_seq((op,), 2)
        assert len(batch) == 1
        assert batch.entries == [((op,), 7)]
        assert batch.op_count() == 7

    def test_distinct_sequences_stay_ordered(self):
        batch = OpBatch()
        a, b = Op("cpu", (1, 0, 0)), Op("mem_alloc", (64,))
        batch.add(a)
        batch.add(b)
        batch.add(a)
        assert [ops for ops, _ in batch.entries] == [(a,), (b,), (a,)]

    def test_zero_count_and_empty_sequence_are_noops(self):
        batch = OpBatch()
        batch.add(Op("cpu", (1, 0, 0)), 0)
        batch.add_seq((), 5)
        assert not batch
        assert len(batch) == 0

    def test_negative_count_raises(self):
        with pytest.raises(SimulationError):
            OpBatch().add(Op("cpu", (1, 0, 0)), -1)


class TestAccumulate:
    def run_per_op(self, program, sim_mult, run_noise, sigma, rng):
        """Reference implementation: one charge at a time."""
        totals: dict[CostCategory, float] = {}
        order: list[CostCategory] = []
        now = 0.0
        for pattern, count in program:
            for _ in range(count):
                for category, raw in pattern:
                    scaled = raw * sim_mult * run_noise
                    if sigma > 0:
                        scaled *= math.exp(rng.gauss(0.0, sigma))
                    if category not in totals:
                        totals[category] = 0.0
                        order.append(category)
                    totals[category] += scaled
                    now += scaled
        return [(category, totals[category]) for category in order], now

    def test_matches_per_op_reference_bit_for_bit(self):
        program = [
            (((CostCategory.CPU, 120.0), (CostCategory.MEM_ACCESS, 30.0)), 500),
            (((CostCategory.SYSCALL, 410.0),), 1000),
            (((CostCategory.CPU, 7.5),), 250),
        ]
        expected_items, expected_now = self.run_per_op(
            program, 1.7, 1.003, 0.02, random.Random(99))
        items, now, total = accumulate(
            program, 1.7, 1.003, 0.02, random.Random(99),
            lambda category: 0.0, 0.0)
        assert items == expected_items      # exact float equality
        assert now == expected_now
        assert total == pytest.approx(now)

    def test_sigma_zero_draws_nothing(self):
        rng = random.Random(5)
        before = rng.getstate()
        items, now, total = accumulate(
            [(((CostCategory.CPU, 10.0),), 3)], 2.0, 1.0, 0.0, rng,
            lambda category: 0.0, 100.0)
        assert rng.getstate() == before
        assert items == [(CostCategory.CPU, 60.0)]
        assert now == 160.0

    def test_sigma_zero_folds_not_multiplies(self):
        # repeated addition must not be reassociated into base * count
        base = 0.1 * 3.0 * 1.0
        folded = 0.0
        for _ in range(7):
            folded += base
        items, _, _ = accumulate(
            [(((CostCategory.CPU, 0.1),), 7)], 3.0, 1.0, 0.0,
            random.Random(0), lambda category: 0.0, 0.0)
        assert items[0][1] == folded
        assert items[0][1] != base * 7 or folded == base * 7

    def test_seeds_from_initial_ledger_values(self):
        items, now, _ = accumulate(
            [(((CostCategory.CPU, 1.0),), 2)], 1.0, 1.0, 0.0,
            random.Random(0), lambda category: 1000.0, 50.0)
        assert items == [(CostCategory.CPU, 1002.0)]
        assert now == 52.0

    def test_gauss_pair_cache_interleaves_with_method_calls(self):
        # Box-Muller yields pairs; a batch consuming an odd number of
        # draws must leave the cached second half for the next caller
        program = [(((CostCategory.CPU, 10.0),), 3)]
        reference = random.Random(42)
        expected = [reference.gauss(0.0, 1.0) for _ in range(4)]

        rng = random.Random(42)
        accumulate([(((CostCategory.CPU, 10.0),), 3)], 1.0, 1.0, 1.0,
                   rng, lambda category: 0.0, 0.0)
        # three draws consumed; the fourth must continue the stream
        assert rng.gauss(0.0, 1.0) == expected[3]

    def test_negative_charge_raises(self):
        with pytest.raises(SimulationError):
            accumulate([(((CostCategory.CPU, -1.0),), 1)], 1.0, 1.0, 0.0,
                       random.Random(0), lambda category: 0.0, 0.0)

    def test_nan_charge_raises(self):
        with pytest.raises(SimulationError):
            accumulate([(((CostCategory.CPU, float("nan")),), 1)],
                       1.0, 1.0, 0.0, random.Random(0),
                       lambda category: 0.0, 0.0)

    def test_infinite_charge_raises(self):
        with pytest.raises(SimulationError):
            accumulate([(((CostCategory.CPU, float("inf")),), 1)],
                       1.0, 1.0, 0.0, random.Random(0),
                       lambda category: 0.0, 0.0)


class TestBatchLedger:
    def test_commits_to_ledger_and_clock(self):
        ledger = CostLedger()
        ledger.charge(CostCategory.CPU, 100.0)
        clock = VirtualClock()
        clock.advance(100.0)
        staged = BatchLedger(ledger, clock, sim_mult=2.0, run_noise=1.0,
                             sigma=0.0, rng=random.Random(1))
        total = staged.run([(((CostCategory.CPU, 5.0),), 4)])
        assert total == 40.0
        assert ledger.get(CostCategory.CPU) == 140.0
        assert clock.now() == 140.0

    def test_apply_batch_preserves_insertion_order(self):
        ledger = CostLedger()
        ledger.charge(CostCategory.IO_READ, 1.0)
        staged = BatchLedger(ledger, VirtualClock(), 1.0, 1.0, 0.0,
                             random.Random(1))
        staged.run([
            (((CostCategory.CPU, 2.0), (CostCategory.IO_READ, 3.0)), 1),
        ])
        assert [category for category, _ in ledger] == [
            CostCategory.IO_READ, CostCategory.CPU]
