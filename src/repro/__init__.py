"""ConfBench reproduction: easy evaluation of confidential VMs.

A from-scratch Python reproduction of *"ConfBench: A Tool for Easy
Evaluation of Confidential Virtual Machines"* (DSN 2025): the
orchestration tool (gateway, TEE pools, hosts, relays, per-language
function launchers, perf monitoring, REST API), the three TEE
platforms it benches (Intel TDX, AMD SEV-SNP, ARM CCA-on-FVP) as
calibrated simulators, the workload suites (25 FaaS functions across
7 language runtimes, MobileNet-style ML inference, a mini SQL engine
with a speedtest1-style stress mix, a Byte-UnixBench-style OS suite),
and the full TDX/SNP attestation stacks with real RSA signatures.

Quick start::

    from repro import ConfBench

    bench = ConfBench(seed=42)
    bench.upload("cpustress")
    summary = bench.measure_overhead("cpustress", language="python",
                                     platform="tdx", trials=10)
    print(f"TDX overhead: {summary.overhead_percent:+.1f}%")

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
paper-vs-measured results on every figure.
"""

import importlib

#: Public name -> defining module.  Names resolve on first access
#: (PEP 562), so ``import repro.cli`` or a trial worker that needs one
#: subpackage does not load the gateway, REST client and HTTP stack.
_EXPORTS = {
    "ConfBench": "repro.core.api",
    "ConfBenchClient": "repro.core.client",
    "ConfBenchError": "repro.errors",
    "GatewayConfig": "repro.core.config",
    "PlatformEntry": "repro.core.config",
    "default_config": "repro.core.config",
    "Gateway": "repro.core.gateway",
    "InvocationRequest": "repro.core.gateway",
    "InvocationRecord": "repro.core.results",
    "MetricsRegistry": "repro.obs.metrics",
    "Profile": "repro.obs.profile",
    "RatioSummary": "repro.core.results",
    "TraceExporter": "repro.obs.export",
    "available_platforms": "repro.tee.registry",
    "platform_by_name": "repro.tee.registry",
    "__version__": "repro.version",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
