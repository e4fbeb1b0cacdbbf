"""ConfBench core: the orchestration tool itself (§III).

The pieces map one-to-one onto the paper's architecture (Fig. 2):

- :mod:`repro.core.gateway` — the entry point: receives workload
  requests, picks a normal or secure VM on the right platform,
  dispatches, and returns results with perf metrics piggybacked.
- :mod:`repro.core.config` — the gateway configuration file mapping
  TEEs to hosts and interface ports.
- :mod:`repro.core.pool` — TEE pools with pluggable load-balancing
  policies (round-robin / least-loaded / random).
- :mod:`repro.core.host` — TEE-enabled hosts routing requests to
  their VMs by destination port.
- :mod:`repro.core.relay` — the socat-equivalent TCP relay, usable
  over real localhost sockets.
- :mod:`repro.core.launcher` — per-language function launchers that
  bootstrap the runtime (bootstrap excluded from timings).
- :mod:`repro.core.storage` — the gateway's database of uploaded
  functions per supported language.
- :mod:`repro.core.monitor` — the ``perf stat`` integration, with the
  custom-script fallback used for CCA realms.
- :mod:`repro.core.rest` / :mod:`repro.core.client` — the REST
  interface over real HTTP (stdlib), plus a Python client.
- :mod:`repro.core.api` — the high-level :class:`ConfBench` facade
  the examples and experiment harnesses use.
- :mod:`repro.core.runner` — the unified trial-execution pipeline
  (:class:`TrialPlan` → :class:`TrialRunner`, serial or parallel)
  every experiment harness runs on.
- :mod:`repro.core.scenarios` — the built-in trial bodies the runner
  executes, registered on import.
"""

import importlib

import repro.core.scenarios  # noqa: F401  (registers the built-in kinds)

#: Public name -> defining module, resolved on first access (PEP 562):
#: a trial worker importing :mod:`repro.core.runner` does not load the
#: gateway, storage and REST stack.  Kind registration above stays
#: eager, so every import of the runner still knows every built-in kind.
_EXPORTS = {
    "ConfBench": "repro.core.api",
    "GatewayConfig": "repro.core.config",
    "PlatformEntry": "repro.core.config",
    "Gateway": "repro.core.gateway",
    "InvocationRequest": "repro.core.gateway",
    "Host": "repro.core.host",
    "FunctionLauncher": "repro.core.launcher",
    "PerfMonitor": "repro.core.monitor",
    "PerfReport": "repro.core.monitor",
    "LoadBalancingPolicy": "repro.core.pool",
    "TeePool": "repro.core.pool",
    "TcpRelay": "repro.core.relay",
    "InvocationRecord": "repro.core.results",
    "RatioSummary": "repro.core.results",
    "summarize_ratio": "repro.core.results",
    "FunctionStore": "repro.core.storage",
    "StoredFunction": "repro.core.storage",
    "TrialSpec": "repro.core.runner",
    "TrialPlan": "repro.core.runner",
    "TrialRunner": "repro.core.runner",
    "SerialTrialExecutor": "repro.core.runner",
    "ParallelTrialExecutor": "repro.core.runner",
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
