"""Tests for machine assembly and perf counters."""

import pytest

from repro.errors import HardwareError
from repro.hw.machine import (
    MACHINE_FACTORIES,
    epyc_9124,
    fvp_model,
    machine_by_name,
    xeon_gold_5515,
)
from repro.hw.perfcounters import PerfCounters


class TestPerfCounters:
    def test_starts_at_zero(self):
        counters = PerfCounters()
        assert counters.instructions == 0
        assert counters.vm_transitions == 0

    def test_add_accumulates(self):
        a = PerfCounters(instructions=10, cycles=5)
        b = PerfCounters(instructions=1, cache_misses=2)
        a.add(b)
        assert a.instructions == 11
        assert a.cycles == 5
        assert a.cache_misses == 2

    def test_snapshot_is_independent(self):
        counters = PerfCounters(instructions=5)
        snap = counters.snapshot()
        counters.instructions = 10
        assert snap.instructions == 5

    def test_delta(self):
        counters = PerfCounters(instructions=100)
        snap = counters.snapshot()
        counters.instructions = 150
        counters.cache_misses = 3
        delta = counters.delta(snap)
        assert delta.instructions == 50
        assert delta.cache_misses == 3

    def test_delta_rejects_backwards_counters(self):
        counters = PerfCounters(instructions=100)
        snap = counters.snapshot()
        counters.instructions = 50
        with pytest.raises(HardwareError):
            counters.delta(snap)

    def test_as_dict_round_trips(self):
        counters = PerfCounters(instructions=7, vm_transitions=2)
        data = counters.as_dict()
        assert data["instructions"] == 7
        assert data["vm_transitions"] == 2
        assert PerfCounters(**data).instructions == 7


class TestMachineFactories:
    def test_tdx_host_shape(self):
        machine = xeon_gold_5515()
        assert machine.spec.vendor == "intel"
        assert machine.spec.cores == 8
        assert machine.spec.frequency_ghz == pytest.approx(3.2)

    def test_sev_host_shape(self):
        machine = epyc_9124()
        assert machine.spec.vendor == "amd"
        assert machine.spec.cores == 16

    def test_fvp_shape(self):
        machine = fvp_model()
        assert machine.spec.vendor == "arm"

    def test_factories_make_fresh_instances(self):
        assert xeon_gold_5515() is not xeon_gold_5515()

    def test_machine_by_name(self):
        for name in MACHINE_FACTORIES:
            assert machine_by_name(name).spec.name == name

    def test_machine_by_name_unknown(self):
        with pytest.raises(KeyError):
            machine_by_name("cray-1")
