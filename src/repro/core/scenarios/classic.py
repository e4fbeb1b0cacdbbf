"""The paper's per-VM workloads: FaaS, ML, UnixBench and the DBMS."""

from __future__ import annotations

from typing import Callable

from repro.core.runner import RunnerError, TrialSpec, body_factory


@body_factory("faas")
def _faas_body(spec: TrialSpec) -> Callable:
    """A FaaS function under a language runtime (Figs. 6/7/8)."""
    from repro.core.launcher import FunctionLauncher
    from repro.workloads.faas.registry import workload_by_name

    if spec.runtime is None:
        raise RunnerError("faas trials need a runtime (language)")
    workload = workload_by_name(spec.workload)
    launcher = FunctionLauncher.for_language(spec.runtime)
    return launcher.launch(workload, spec.params.get("args") or None)


@body_factory("ml")
def _ml_body(spec: TrialSpec) -> Callable:
    """MobileNet inference over the synthetic image set (Fig. 3)."""
    from repro.workloads.ml import (
        MobileNetLite,
        generate_dataset,
        run_inference_workload,
    )

    params = spec.params
    model = MobileNetLite(seed=params.get("model_seed", 0))
    dataset = generate_dataset(count=params.get("count", 40),
                               side=params.get("side", 296),
                               seed=params.get("dataset_seed", 0))

    def body(kernel):
        return [
            r.elapsed_ns
            for r in run_inference_workload(kernel, model, dataset)
        ]

    return body


@body_factory("unixbench")
def _unixbench_body(spec: TrialSpec) -> Callable:
    """The UnixBench-style suite (Fig. 4)."""
    from repro.workloads.unixbench import run_unixbench

    scale = spec.params.get("scale", 1.0)
    engine = spec.params.get("engine", "batch")

    def body(kernel):
        report = run_unixbench(kernel, scale=scale, engine=engine)
        return {
            "index": report.system_index,
            "tests": {s.key: s.elapsed_ns for s in report.scores},
        }

    return body


@body_factory("speedtest")
def _speedtest_body(spec: TrialSpec) -> Callable:
    """The mini-DBMS speedtest suite (§IV-C table)."""
    from repro.workloads.dbms import Database, KernelCostHooks, run_speedtest
    from repro.workloads.dbms.speedtest import DEFAULT_SIZE

    size = spec.params.get("size", DEFAULT_SIZE)

    def body(kernel):
        database = Database(hooks=KernelCostHooks(kernel))
        return [
            (r.test_id, r.name, r.elapsed_ns)
            for r in run_speedtest(database, size=size,
                                   clock=kernel.ctx.elapsed_ns)
        ]

    return body
