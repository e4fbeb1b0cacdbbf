"""Fig. 10 extension — the confidential container supply chain.

The paper evaluates CVMs as FaaS hosts but stops short of how
confidential FaaS actually deploys: signed + encrypted container
images whose decryption keys a Key Broker Service releases only after
successful attestation.  This experiment puts the whole chain on the
boot critical path and measures the matrix operators care about:

- **eager vs lazy** pull (pull-then-run vs nydus-style
  chunk-on-demand): boot latency against warm-path chunk faults;
- **secure vs normal** deployment: the attestation + key-release +
  signature/decrypt tax over a plain unsigned pull of the same bytes;
- **cold vs warm relaunch**: wave 2 re-launches the same VM
  identities, so attestation sessions resume (PR 8) and the KBS
  handshake collapses to one exchange.

Every trial reconciles its counters against the ground-truth request
logs — KBS releases vs clean KBS log entries, registry fetches vs
clean registry entries, collateral origin fetches vs clean PCS
entries — and the experiment fails if any trial disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.runner import TrialPlan, TrialRunner
from repro.errors import SupplyChainError
from repro.experiments.common import completed, default_runner, mean
from repro.experiments.report import render_table

#: platforms with a modelled attestation flow (LaunchAttestor.SUPPORTED)
PLATFORMS = ("tdx", "sev-snp")

#: the pull-strategy × deployment-mode matrix, in spec order
STRATEGIES = ("eager", "lazy")
SIDES = ("secure", "normal")


@dataclass
class Fig10SupplyResult:
    """Per-cell supply-chain numbers plus reconciliation state."""

    #: (platform, strategy, side) key "platform/strategy/side" ->
    #: trial-meaned row the table renders
    rows: dict[str, dict[str, float]] = field(default_factory=dict)
    #: True iff every trial's counters matched its request logs
    reconciled: bool = True
    #: summed across every trial
    resumed: int = 0
    chunk_faults: int = 0
    bytes_pulled: int = 0
    #: the runner's metrics-registry snapshot for this artifact's runs
    metrics: dict = field(default_factory=dict)

    def render(self) -> str:
        headers = ("cell", "cold boot ms", "warm boot ms", "speedup",
                   "chunks", "faults", "resumed")
        rows = []
        for cell, row in self.rows.items():
            cold = row["cold_boot_ns"]
            warm = row["warm_boot_ns"]
            rows.append((
                cell,
                f"{cold / 1e6:.1f}",
                f"{warm / 1e6:.1f}",
                f"{cold / warm:.2f}x" if warm else "-",
                int(row["chunks_fetched"]),
                int(row["chunk_faults"]),
                int(row["resumed"]),
            ))
        table = render_table(
            "Fig. 10 ext — confidential supply chain "
            "(eager/lazy x secure/normal)", headers, rows)
        reconciliation = (
            "counters reconcile with KBS/registry/PCS request logs"
            if self.reconciled
            else "RECONCILIATION FAILED: counters disagree with logs")
        return (f"{table}\n\n  session resumptions: {self.resumed}  "
                f"lazy chunk faults: {self.chunk_faults}\n"
                f"  {reconciliation}")


def run_fig10(seed: int = 0, trials: int = 1, vms: int = 3,
              accesses: int = 6, platforms: tuple = PLATFORMS,
              runner: TrialRunner | None = None) -> Fig10SupplyResult:
    """Run the supply-chain matrix, one spec per (platform, cell).

    The deployment mode rides in the workload name
    (``<strategy>-<side>``) because body memoization keys on workload,
    not on the spec's secure flag; the flag is still set to match so
    VM-side costs line up.  Counters fold into the runner's metrics
    registry in spec order, so serial and parallel runs produce
    byte-identical snapshots.
    """
    runner = default_runner(runner)
    params = {"infra_seed": seed, "vms": vms, "accesses": accesses}
    # One matrix per (platform, cell): the deployment side must pin
    # the secure flag (eager-secure never runs with secure=False), a
    # coupling the full-matrix constructor cannot express.
    plan = TrialPlan(specs=tuple(
        spec
        for platform in platforms
        for strategy in STRATEGIES
        for side in SIDES
        for spec in TrialPlan.matrix(
            kind="supplychain", platforms=(platform,),
            workloads=(f"{strategy}-{side}",), trials=trials,
            seed=seed, secure_modes=(side == "secure",),
            params=params).specs
    ))

    per_cell: dict[str, list[dict]] = {}
    result = Fig10SupplyResult()
    for _, trial_result in completed(runner, plan):
        output = trial_result.output
        cell = f"{trial_result.platform}/{trial_result.workload}"
        per_cell.setdefault(cell, []).append(output)
        if not output["reconciled"]:
            result.reconciled = False
        result.resumed += output["resumed"]
        result.chunk_faults += output["chunk_faults"]
        result.bytes_pulled += output["bytes_pulled"]
        prefix = f"supply.{cell}"
        runner.metrics.count_many((
            (f"{prefix}.chunks_fetched", output["chunks_fetched"]),
            (f"{prefix}.chunk_faults", output["chunk_faults"]),
            (f"{prefix}.resumed", output["resumed"]),
            (f"{prefix}.origin_fetches", output["origin_fetches"]),
        ))
        for name, value in output["counters"].items():
            runner.metrics.count(f"{prefix}.{name}", value)
        runner.metrics.observe(
            f"{prefix}.cold_boot_ns",
            mean(output["boot_ns"]["wave1"]))
    runner.metrics.count("supply.reconciled", int(result.reconciled))

    for platform in platforms:
        for strategy in STRATEGIES:
            for side in SIDES:
                cell = f"{platform}/{strategy}-{side}"
                outputs = per_cell[cell]
                result.rows[cell] = {
                    "cold_boot_ns": mean(
                        mean(o["boot_ns"]["wave1"]) for o in outputs),
                    "warm_boot_ns": mean(
                        mean(o["boot_ns"]["wave2"]) for o in outputs),
                    "chunks_fetched": sum(
                        o["chunks_fetched"] for o in outputs),
                    "chunk_faults": sum(
                        o["chunk_faults"] for o in outputs),
                    "resumed": sum(o["resumed"] for o in outputs),
                }

    _check_separation(result, platforms)
    result.metrics = runner.metrics.snapshot()
    return result


def _check_separation(result: Fig10SupplyResult,
                      platforms: tuple) -> None:
    """The headline claims must hold per platform, or the run fails.

    Lazy must boot colder-faster than eager in the same mode, and
    secure must cost more than normal under the same strategy — if a
    model change erases either separation, the figure is lying and
    the experiment says so instead of rendering it.
    """
    for platform in platforms:
        for side in SIDES:
            lazy = result.rows[f"{platform}/lazy-{side}"]
            eager = result.rows[f"{platform}/eager-{side}"]
            if not lazy["cold_boot_ns"] < eager["cold_boot_ns"]:
                raise SupplyChainError(
                    f"{platform}/{side}: lazy cold boot "
                    f"({lazy['cold_boot_ns']:.0f} ns) is not faster "
                    f"than eager ({eager['cold_boot_ns']:.0f} ns)")
        for strategy in STRATEGIES:
            secure = result.rows[f"{platform}/{strategy}-secure"]
            normal = result.rows[f"{platform}/{strategy}-normal"]
            if not secure["cold_boot_ns"] > normal["cold_boot_ns"]:
                raise SupplyChainError(
                    f"{platform}/{strategy}: secure cold boot "
                    f"({secure['cold_boot_ns']:.0f} ns) is not dearer "
                    f"than normal ({normal['cold_boot_ns']:.0f} ns)")
