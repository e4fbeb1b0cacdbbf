"""Tests for the SEV-SNP AMD-SP and the CCA FVP layer."""

import pytest

from repro.errors import TeeError
from repro.tee.cca import CcaPlatform
from repro.tee.fvp import FvpSimulator
from repro.tee.sevsnp import AmdSecureProcessor, SnpReportRequest, Vmpl


class TestAmdSp:
    def test_report_request_shape(self):
        sp = AmdSecureProcessor()
        body = sp.request_report(SnpReportRequest(report_data=b"abc"), "guest-1")
        assert body["report_data"].startswith(b"abc")
        assert len(body["report_data"]) == 64
        assert body["vmpl"] == 0
        assert body["chip_id"] == sp.chip_id

    def test_report_data_limit(self):
        sp = AmdSecureProcessor()
        with pytest.raises(TeeError):
            sp.request_report(SnpReportRequest(report_data=b"x" * 65), "g")

    def test_measurement_stable_per_guest(self):
        sp = AmdSecureProcessor()
        assert sp.measurement_for("g1") == sp.measurement_for("g1")
        assert sp.measurement_for("g1") != sp.measurement_for("g2")

    def test_vmpl_passthrough(self):
        sp = AmdSecureProcessor()
        body = sp.request_report(
            SnpReportRequest(report_data=b"", vmpl=Vmpl.VMPL3), "g"
        )
        assert body["vmpl"] == 3


class TestFvp:
    def test_fvp_cannot_be_faster_than_hardware(self):
        with pytest.raises(TeeError):
            FvpSimulator(slowdown=0.5)

    def test_tap_tun_latency(self):
        fvp = FvpSimulator(tap_tun_hops=2)
        assert fvp.network_extra_ns() == pytest.approx(2 * fvp.HOP_LATENCY_NS)

    def test_negative_hops_rejected(self):
        with pytest.raises(TeeError):
            FvpSimulator(tap_tun_hops=-1)

    def test_cca_platform_uses_custom_fvp(self):
        fvp = FvpSimulator(slowdown=20.0)
        platform = CcaPlatform(fvp=fvp)
        assert platform.secure_profile().simulator_multiplier == 20.0
