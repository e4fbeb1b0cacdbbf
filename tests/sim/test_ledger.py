"""Tests for the cost ledger."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.ledger import CostCategory, CostLedger


class TestCharge:
    def test_empty_ledger_total_is_zero(self):
        assert CostLedger().total() == 0.0

    def test_single_charge(self):
        ledger = CostLedger()
        ledger.charge(CostCategory.CPU, 42.0)
        assert ledger.get(CostCategory.CPU) == 42.0

    def test_charges_accumulate(self):
        ledger = CostLedger()
        ledger.charge(CostCategory.CPU, 10.0)
        ledger.charge(CostCategory.CPU, 5.0)
        assert ledger.get(CostCategory.CPU) == 15.0

    def test_get_unknown_category_is_zero(self):
        assert CostLedger().get(CostCategory.IO_READ) == 0.0

    def test_rejects_negative_charge(self):
        with pytest.raises(SimulationError):
            CostLedger().charge(CostCategory.CPU, -1.0)

    def test_rejects_nan_charge(self):
        with pytest.raises(SimulationError):
            CostLedger().charge(CostCategory.CPU, float("nan"))

    def test_rejects_infinite_charge(self):
        ledger = CostLedger()
        with pytest.raises(SimulationError):
            ledger.charge(CostCategory.CPU, float("inf"))
        assert len(ledger) == 0

    def test_apply_batch_rejects_infinite_total_before_any_change(self):
        ledger = CostLedger()
        ledger.charge(CostCategory.CPU, 5.0)
        with pytest.raises(SimulationError):
            ledger.apply_batch([(CostCategory.CPU, 7.0),
                                (CostCategory.IO_READ, float("inf"))])
        assert ledger.breakdown() == {CostCategory.CPU: 5.0}

    def test_total_spans_categories(self):
        ledger = CostLedger()
        ledger.charge(CostCategory.CPU, 10.0)
        ledger.charge(CostCategory.IO_READ, 20.0)
        assert ledger.total() == 30.0


class TestExclusion:
    def test_total_excluding_startup(self):
        ledger = CostLedger()
        ledger.charge(CostCategory.CPU, 100.0)
        ledger.charge(CostCategory.STARTUP, 1000.0)
        assert ledger.total_excluding(CostCategory.STARTUP) == 100.0

    def test_total_excluding_multiple(self):
        ledger = CostLedger()
        ledger.charge(CostCategory.CPU, 1.0)
        ledger.charge(CostCategory.STARTUP, 2.0)
        ledger.charge(CostCategory.NETWORK, 4.0)
        assert ledger.total_excluding(
            CostCategory.STARTUP, CostCategory.NETWORK
        ) == 1.0


class TestMergeAndCopy:
    def test_copy_is_independent(self):
        ledger = CostLedger()
        ledger.charge(CostCategory.CPU, 1.0)
        clone = ledger.copy()
        clone.charge(CostCategory.CPU, 1.0)
        assert ledger.get(CostCategory.CPU) == 1.0
        assert clone.get(CostCategory.CPU) == 2.0


class TestAnalysis:
    def test_dominant(self):
        ledger = CostLedger()
        ledger.charge(CostCategory.CPU, 1.0)
        ledger.charge(CostCategory.BOUNCE_BUFFER, 10.0)
        assert ledger.dominant() is CostCategory.BOUNCE_BUFFER

    def test_dominant_empty(self):
        assert CostLedger().dominant() is None

    def test_iteration_and_len(self):
        ledger = CostLedger()
        ledger.charge(CostCategory.CPU, 1.0)
        ledger.charge(CostCategory.SYSCALL, 2.0)
        assert len(ledger) == 2
        assert dict(ledger)[CostCategory.SYSCALL] == 2.0


@given(
    charges=st.lists(
        st.tuples(
            st.sampled_from(list(CostCategory)),
            st.floats(min_value=0, max_value=1e12, allow_nan=False),
        ),
        max_size=50,
    )
)
def test_total_equals_sum_of_charges(charges):
    """Property: ledger total always equals the sum of charges made."""
    ledger = CostLedger()
    for category, nanos in charges:
        ledger.charge(category, nanos)
    assert ledger.total() == pytest.approx(sum(n for _, n in charges))
