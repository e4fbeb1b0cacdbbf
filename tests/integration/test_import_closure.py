"""What importing an entry point loads, pinned as exact module sets.

The lazy inits of ``repro``, ``repro.core`` and
``repro.experiments`` export their names lazily (PEP 562), so a CLI
call, a perfbench worker or a ``-j N`` worker loads only what its run
uses.  Each entry point is imported in a fresh interpreter and must
not load any module in :data:`UNUSED`; no timing is involved.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core
import repro.experiments

SRC = Path(repro.__file__).resolve().parents[1]

#: No entry point below uses the gateway/REST stack, the trial
#: journal, the FaaS launcher and registries, the DBMS engine, the
#: stdlib HTTP, TLS and mail packages, or the process pool.
UNUSED = (
    "repro.core.gateway",
    "repro.core.rest",
    "repro.core.client",
    "repro.core.journal",
    "repro.core.launcher",
    "repro.workloads.faas.registry",
    "repro.runtimes.registry",
    "repro.workloads.dbms",
    "http.client",
    "ssl",
    "email",
    "concurrent.futures.process",
)

LAZY_PACKAGES = (repro, repro.core, repro.experiments)


def modules_after_import(module: str) -> set[str]:
    code = f"import sys\nimport {module}\nprint(*sys.modules, sep='\\n')\n"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("module", ["repro.cli", "repro.attest.crypto",
                                    "repro.experiments.fig5_service"])
def test_entry_point_loads_no_unused_module(module):
    loaded = modules_after_import(module)
    assert module in loaded
    assert sorted(loaded.intersection(UNUSED)) == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["ConfBench"] is importlib.import_module(
        "repro.core.api").ConfBench


@pytest.mark.parametrize("lazy", LAZY_PACKAGES,
                         ids=lambda lazy: lazy.__name__)
def test_exports_are_their_defining_modules_objects(lazy):
    assert lazy.__all__ == list(lazy._EXPORTS)
    for name, module in lazy._EXPORTS.items():
        defining = importlib.import_module(module)
        assert getattr(lazy, name) is getattr(defining, name), name
    assert set(lazy.__all__) <= set(dir(lazy))
    with pytest.raises(AttributeError):
        getattr(lazy, "no_such_export")
