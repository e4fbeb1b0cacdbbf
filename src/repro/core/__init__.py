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

from repro.core.api import ConfBench
from repro.core.config import GatewayConfig, PlatformEntry
from repro.core.gateway import Gateway, GatewayStats, InvocationRequest
from repro.core.host import Host
from repro.core.launcher import FunctionLauncher
from repro.core.monitor import PerfMonitor, PerfReport
from repro.core.pool import LoadBalancingPolicy, TeePool
from repro.core.relay import TcpRelay
from repro.core.results import InvocationRecord, RatioSummary, summarize_ratio
from repro.core.runner import (
    ParallelTrialExecutor,
    SerialTrialExecutor,
    TrialPlan,
    TrialRunner,
    TrialSpec,
)
import repro.core.scenarios  # noqa: F401  (registers the built-in kinds)
from repro.core.storage import FunctionStore, StoredFunction

__all__ = [
    "ConfBench",
    "GatewayConfig",
    "PlatformEntry",
    "Gateway",
    "GatewayStats",
    "InvocationRequest",
    "Host",
    "FunctionLauncher",
    "PerfMonitor",
    "PerfReport",
    "LoadBalancingPolicy",
    "TeePool",
    "TcpRelay",
    "InvocationRecord",
    "RatioSummary",
    "summarize_ratio",
    "FunctionStore",
    "StoredFunction",
    "TrialSpec",
    "TrialPlan",
    "TrialRunner",
    "SerialTrialExecutor",
    "ParallelTrialExecutor",
]
