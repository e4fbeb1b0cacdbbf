"""Tests for the TDX module simulator."""

import pytest

from repro.errors import TeeError
from repro.tee.tdx import (
    GOOD_FIRMWARE,
    OLD_FIRMWARE,
    TdxModule,
    TdxPlatform,
)


class TestTdxModule:
    def test_transition_cost_positive(self):
        assert TdxModule().transition_cost_ns > 0

    def test_old_firmware_is_10x_slower(self):
        """The paper saw ~10x runtime boosts from the firmware upgrade."""
        good = TdxModule(GOOD_FIRMWARE)
        old = TdxModule(OLD_FIRMWARE)
        assert old.transition_cost_ns == pytest.approx(
            good.transition_cost_ns * 10.0
        )

    def test_unknown_firmware_rejected(self):
        with pytest.raises(TeeError):
            TdxModule("TDX_9.9.9")


class TestTdReport:
    def test_report_binds_report_data(self):
        module = TdxModule()
        report = module.generate_tdreport(b"nonce", "td-1")
        assert report.report_data.startswith(b"nonce")
        assert len(report.report_data) == 64

    def test_report_data_size_limit(self):
        module = TdxModule()
        with pytest.raises(TeeError):
            module.generate_tdreport(b"x" * 65, "td-1")

    def test_report_measurements_stable_per_identity(self):
        module = TdxModule()
        a = module.generate_tdreport(b"", "td-1")
        b = module.generate_tdreport(b"", "td-1")
        c = module.generate_tdreport(b"", "td-2")
        assert a.mrtd == b.mrtd
        assert a.mrtd != c.mrtd

    def test_report_has_four_rtmrs(self):
        report = TdxModule().generate_tdreport(b"", "td-1")
        assert len(report.rtmr) == 4
        assert len(set(report.rtmr)) == 4

    def test_report_carries_firmware_version(self):
        report = TdxModule(GOOD_FIRMWARE).generate_tdreport(b"", "td")
        assert report.tee_tcb_svn == GOOD_FIRMWARE

    def test_generation_is_a_tdcall(self):
        module = TdxModule()
        module.generate_tdreport(b"", "td")
        assert module.tdcalls == 1


class TestTdxPlatformFirmware:
    def test_platform_defaults_to_good_firmware(self):
        assert TdxPlatform().module.firmware == GOOD_FIRMWARE

    def test_old_firmware_inflates_transitions(self):
        good = TdxPlatform(firmware=GOOD_FIRMWARE).secure_profile()
        old = TdxPlatform(firmware=OLD_FIRMWARE).secure_profile()
        assert old.halt_transition_ns == pytest.approx(
            good.halt_transition_ns * 10.0
        )

    def test_old_firmware_slows_transition_heavy_runs(self):
        def time_with(firmware):
            platform = TdxPlatform(seed=3, firmware=firmware)
            vm = platform.create_vm()
            vm.boot()
            return vm.run(lambda k: k.pipe_ping_pong(100), name="pp").elapsed_ns

        assert time_with(OLD_FIRMWARE) > time_with(GOOD_FIRMWARE) * 3
