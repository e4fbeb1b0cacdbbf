"""Host-time benchmark of the ConfBench simulator.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation measures one workload of :mod:`scenarios` in fresh
interpreters and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

- ``--trace 0`` starts :data:`WORKERS` interpreters one after another.
  Each imports the program, builds the workload's inputs from the
  seed and runs one warm-up pass — its set-up, timed from the spawn —
  then runs timed passes for its share of ``--seconds``.  The
  end-to-end metrics are the median throughput over all timed passes,
  the median set-up time and the peak resident memory.
- ``--trace 1`` starts one interpreter that times untraced passes for
  half of ``--seconds``, then wraps the layer boundaries
  (:mod:`tracer`) and times one traced pass; it reports the per-layer
  metrics of that pass.  ``--spans FILE`` also writes its spans as
  JSONL.

A pass whose checks fail counts those units as failed; a pass whose
simulated outputs differ from the warm-up pass's fails all its units.
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: fresh interpreters per untraced run; set-up is their median
WORKERS = 3
#: a worker that takes longer than this is killed
WORKER_TIMEOUT_S = 150.0
#: iterations of :func:`reference_s`, and its median time on the host
#: the baseline was recorded on (2 vCPUs, Python 3.11.7)
REFERENCE_ITERATIONS = 200_000
REFERENCE_S = 0.0207


def reference_s() -> float:
    """Seconds a fixed mix of interpreter work takes right now.

    Other tenants of a shared host slow every process on it by up to a
    third, for seconds to minutes at a time.  Timing this loop next to
    each measurement lets the benchmark scale its times to the speed
    the host had when :data:`REFERENCE_S` was recorded.
    """
    begin = time.perf_counter()
    table: dict[int, int] = {}
    for index in range(REFERENCE_ITERATIONS):
        key = index & 255
        table[key] = table.get(key, 0) + index * 3
    return time.perf_counter() - begin


def _passes(workload, budget_s: float, baseline: str) -> list[dict]:
    """Timed passes until ``budget_s`` is spent (at least one)."""
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < budget_s:
        gc.collect()
        before = reference_s()
        begin = time.perf_counter()
        try:
            raw = workload.run()
        except Exception:
            traceback.print_exc()
            raw = None
        record = {"seconds": time.perf_counter() - begin,
                  "reference_s": (before + reference_s()) / 2,
                  "units": workload.units, "failed": workload.units}
        if raw is not None:
            result = workload.check(raw)
            record.update(units=result.units, failed=_failed(result,
                                                             baseline))
        passes.append(record)
    return passes


def _failed(result, baseline: str) -> int:
    """Failed units; a pass whose outputs changed fails every unit."""
    return result.units if result.digest != baseline else result.failed


def _worker(args) -> dict:
    """One fresh interpreter: set up, warm up, then timed passes."""
    sys.path.insert(0, str(SRC))
    import scenarios

    workload = scenarios.WORKLOADS[args.workload](args.seed, args.tiny)
    warmup = workload.check(workload.run())
    print("ready", flush=True)
    if args.trace:
        return _traced(workload, warmup, args)
    setup_reference_s = reference_s()
    passes = _passes(workload, args.seconds, warmup.digest)
    return {
        "unit": workload.unit,
        "setup_reference_s": setup_reference_s,
        "pass_s": [p["seconds"] for p in passes],
        "reference_s": [p["reference_s"] for p in passes],
        "units": [p["units"] for p in passes],
        "failed": warmup.failed + sum(p["failed"] for p in passes),
        "digest": warmup.digest,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _traced(workload, warmup, args) -> dict:
    """Untraced passes for half the budget, then one traced pass."""
    import numpy as np
    import tracer

    untraced = _passes(workload, args.seconds / 2, warmup.digest)
    untraced_s = statistics.median(p["seconds"] for p in untraced)
    spans = tracer.Tracer()
    spans.install()
    try:
        workload.run()          # re-memoize trial bodies, wrapped
        gc.collect()
        spans.active = True
        begin = time.perf_counter()
        try:
            raw = workload.run()
        finally:
            wall = time.perf_counter() - begin
            spans.active = False
        result = workload.check(raw)
        if args.spans:
            spans.write_jsonl(args.spans)
    finally:
        spans.uninstall()
    trials_ms = spans.spans_of("execute_trial") * 1e3
    boots = spans.count("tee", "Vm.boot")
    events = result.stats.get("sim.events", 0)
    metrics = {f"{layer}.self_s": seconds
               for layer, seconds in spans.self_times(wall).items()}
    metrics.update(result.stats)
    metrics.update({
        "sim.batch_commits": spans.count("sim", "BatchLedger.run"),
        "sim.host_us_per_event": (untraced_s * 1e6 / events
                                  if events else 0.0),
        "sim.virtual_s_per_host_s": result.virtual_s / untraced_s,
        "guestos.syscalls": spans.count("guestos", "GuestKernel.sys_"),
        "guestos.kernel_batches": spans.count("guestos",
                                              "KernelBatch.commit"),
        "tee.vm_boots": boots,
        "tee.boot_host_ms": (
            spans.spans_of("TeePlatform.create_vm", "Vm.boot").sum()
            * 1e3 / boots if boots else 0.0),
        "runtimes.sessions": spans.count("runtimes",
                                         "RuntimeSession.bootstrap"),
        "attest.rsa_verifies": spans.count("attest", "RsaPublicKey.verify"),
        "attest.rsa_signs": spans.count("attest", "RsaKeyPair.sign"),
        "attest.rsa_s": spans.spans_of("RsaPublicKey.verify",
                                       "RsaKeyPair.sign").sum(),
        "attest.keygens": spans.count("attest", "generate_keypair"),
        "supply.keystream_xor_s": spans.spans_of("keystream_xor").sum(),
        "obs.metric_updates": spans.count("obs"),
        "core.trial_p50_ms": (float(np.percentile(trials_ms, 50))
                              if len(trials_ms) else 0.0),
        "core.trial_p99_ms": (float(np.percentile(trials_ms, 99))
                              if len(trials_ms) else 0.0),
        "core.cluster.place_s": spans.spans_of(
            "PlacementScheduler.place").sum(),
        "core.cluster.placements": spans.count("core.cluster",
                                               "PlacementScheduler.place"),
        "bench.trace_overhead": wall / untraced_s,
        "bench.traced_pass_s": wall,
        "bench.untraced_pass_s": untraced_s,
        "bench.spans": len(spans),
    })
    return {
        "metrics": {name: float(value) for name, value in metrics.items()},
        "attempted": sum(p["units"] for p in untraced) + result.units,
        "failed": (warmup.failed + sum(p["failed"] for p in untraced)
                   + _failed(result, warmup.digest)),
        "digest": warmup.digest,
        "unit": workload.unit,
    }


def _spawn(args, seconds: float) -> dict:
    """Run one worker; its report plus its set-up time from the spawn."""
    command = [sys.executable, str(Path(__file__).resolve()), "--worker",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace)]
    if args.tiny:
        command.append("--tiny")
    if args.spans:
        command += ["--spans", args.spans]
    spawn_reference_s = reference_s()
    began = time.perf_counter()
    worker = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, worker.kill)
    watchdog.start()
    try:
        ready = worker.stdout.readline()
        setup_s = time.perf_counter() - began
        lines = worker.stdout.read().splitlines()
        code = worker.wait()
    finally:
        watchdog.cancel()
        if worker.poll() is None:
            worker.kill()
            worker.wait()
        worker.stdout.close()
    if ready.strip() != "ready" or code != 0 or not lines:
        raise RuntimeError(f"worker for {args.workload!r} failed "
                           f"(exit code {code})")
    report = json.loads(lines[-1])
    report.update(setup_s=setup_s, spawn_reference_s=spawn_reference_s)
    return report


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    return {metric["name"]: metric["unit"] for metric in _spec()[kind]}


def _untraced(args) -> tuple[dict, dict]:
    """End-to-end metrics over :data:`WORKERS` fresh interpreters.

    Times are scaled by ``measured reference / REFERENCE_S``, so they
    read as times at the reference host speed; the raw throughput is
    printed alongside.
    """
    reports = [_spawn(args, args.seconds / WORKERS) for _ in range(WORKERS)]
    rates, scaled = [], []
    for report in reports:
        for units, seconds, reference in zip(
                report["units"], report["pass_s"], report["reference_s"]):
            rates.append(units / seconds)
            scaled.append(units / seconds * reference / REFERENCE_S)
    setups = [report["setup_s"] * REFERENCE_S
              / ((report["spawn_reference_s"]
                  + report["setup_reference_s"]) / 2)
              for report in reports]
    low, _, high = statistics.quantiles(scaled, n=4)  # >= 1 per worker
    values = {
        "units_per_s": statistics.median(scaled),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(report["peak_rss_mb"] for report in reports),
    }
    summary = {
        "attempted": sum(sum(report["units"]) for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "digests": sorted({report["digest"] for report in reports}),
        "unit": reports[0]["unit"],
        "passes": len(scaled),
        "units_per_s_q1": f"{low:.6g}",
        "units_per_s_q3": f"{high:.6g}",
        "raw_units_per_s": f"{statistics.median(rates):.6g}",
        "raw_setup_s": ",".join(f"{report['setup_s']:.4f}"
                                for report in reports),
    }
    return values, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write traced spans as JSONL here")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (harness test)")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.workload not in {entry["name"] for entry in _spec()["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.worker:
        print(json.dumps(_worker(args)))
        return 0
    if args.spans:
        args.spans = str(Path(args.spans).resolve())

    if args.trace:
        report = _spawn(args, args.seconds)
        values = report.pop("metrics")
        summary = {"attempted": report["attempted"],
                   "failed": report["failed"],
                   "digests": [report["digest"]], "unit": report["unit"]}
        declared = _declared("per_layer")
        unknown = set(values) - set(declared)
        if unknown:
            raise RuntimeError(f"undeclared metrics: {sorted(unknown)}")
        # counts a workload's outputs do not carry are 0: it never
        # reaches that layer
        values = {name: values.get(name, 0.0) for name in declared}
    else:
        values, summary = _untraced(args)
        declared = _declared("end_to_end")
        if set(values) != set(declared):
            raise RuntimeError("end-to-end metrics differ from "
                               f"BENCHMARK.json: {sorted(values)}")
    digests = summary.pop("digests")
    attempted, failed = summary.pop("attempted"), summary.pop("failed")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"unit={summary.pop('unit')} sim_digest={','.join(digests)}")
    if summary:
        print("# " + " ".join(f"{key}={value}"
                              for key, value in summary.items()))
    # the interpreters of one run must agree on every simulated output
    correct = failed == 0 and len(digests) == 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
