"""Tests for gateway configuration and the function store."""

import pytest

from repro.core.config import GatewayConfig, PlatformEntry, default_config
from repro.core.storage import FunctionStore
from repro.errors import GatewayError, NoSuchFunctionError
from repro.workloads.base import FaasWorkload, WorkloadTrait


class TestPlatformEntry:
    def test_ports_enumerate_vm_range(self):
        entry = PlatformEntry(platform="tdx", host="h", base_port=9100,
                              vm_count=3)
        assert entry.ports() == [9100, 9101, 9102]

    def test_port_bounds(self):
        with pytest.raises(GatewayError):
            PlatformEntry(platform="tdx", host="h", base_port=80)

    def test_vm_count_bound(self):
        with pytest.raises(GatewayError):
            PlatformEntry(platform="tdx", host="h", base_port=9100, vm_count=0)


class TestGatewayConfig:
    def test_default_config_covers_paper_testbed(self):
        config = default_config()
        assert config.platforms() == ["tdx", "sev-snp", "cca", "novm"]
        assert config.default_trials == 10   # the paper's trial count

    def test_port_collision_rejected(self):
        with pytest.raises(GatewayError):
            GatewayConfig(entries=[
                PlatformEntry(platform="tdx", host="a", base_port=9100),
                PlatformEntry(platform="novm", host="b", base_port=9101),
            ])

    def test_zero_trials_rejected(self):
        with pytest.raises(GatewayError):
            GatewayConfig(entries=[], default_trials=0)


class TestFunctionStore:
    def test_upload_builtin(self):
        store = FunctionStore()
        stored = store.upload_builtin("factors")
        assert stored.name == "factors"
        assert stored.supports("python")
        assert len(store) == 1

    def test_upload_restricted_languages(self):
        store = FunctionStore()
        store.upload_builtin("factors", languages=("lua",))
        assert store.get("factors").supports("lua")
        assert not store.get("factors").supports("go")

    def test_unknown_language_rejected(self):
        store = FunctionStore()
        with pytest.raises(GatewayError):
            store.upload_builtin("factors", languages=("cobol",))

    def test_reupload_merges_languages(self):
        store = FunctionStore()
        store.upload_builtin("factors", languages=("lua",))
        store.upload_builtin("factors", languages=("go",))
        stored = store.get("factors")
        assert stored.uploads == 2
        assert stored.supports("lua") and stored.supports("go")

    def test_get_missing(self):
        with pytest.raises(NoSuchFunctionError):
            FunctionStore().get("ghost")

    def test_require_language_enforces(self):
        store = FunctionStore()
        store.upload_builtin("factors", languages=("lua",))
        with pytest.raises(GatewayError):
            store.require_language("factors", "python")

    def test_upload_custom(self):
        store = FunctionStore()
        custom = FaasWorkload(
            name="noop", trait=WorkloadTrait.CPU, description="",
            fn=lambda session, args: None,
        )
        store.upload_custom(custom)
        assert store.names() == ["noop"]
