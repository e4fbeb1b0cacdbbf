"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root::

    python -m pytest perfbench/test_bench_harness.py -q

Every workload runs through ``run.py`` untraced and traced with
``--tiny`` inputs, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import scenarios  # noqa: E402
from repro.supply import Registry  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """workload -> trace -> (stdout lines, spans file)."""
    out = tmp_path_factory.mktemp("runs")
    results: dict = defaultdict(dict)
    for workload in scenarios.WORKLOADS:
        spans = out / f"{workload}.jsonl"
        for trace, extra in (("0", ()), ("1", ("--spans", str(spans)))):
            done = _run("--workload", workload, "--seed", "3",
                        "--seconds", "0.1", "--trace", trace, "--tiny",
                        *extra)
            assert done.returncode == 0, done.stderr
            results[workload][trace] = (done.stdout.splitlines(), spans)
    return results


def _result(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def _digest(lines: list[str]) -> str:
    return compare.run_tags(lines)["sim_digest"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(scenarios.WORKLOADS)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"),
                                         ("1", "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(runs, trace, kind):
    declared = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    for workload, by_trace in runs.items():
        result = _result(by_trace[trace][0])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, workload
        assert result["attempted"] >= 1
        emitted = {name: metric["unit"]
                   for name, metric in result["metrics"].items()}
        assert emitted == declared, workload


def test_traced_and_untraced_runs_simulate_the_same_outputs(runs):
    for workload, by_trace in runs.items():
        assert _digest(by_trace["0"][0]) == _digest(by_trace["1"][0]), \
            workload


def test_traced_self_times_add_up_to_the_traced_wall_time(runs):
    for workload, by_trace in runs.items():
        lines, spans_file = by_trace["1"]
        metrics = {name: metric["value"]
                   for name, metric in _result(lines)["metrics"].items()}
        wall = metrics["bench.traced_pass_s"]
        reported = sum(value for name, value in metrics.items()
                       if name.endswith(".self_s"))
        assert reported == pytest.approx(wall, rel=0.01), workload

        # recompute the split from the JSONL spans alone
        spans = [json.loads(line) for line in
                 spans_file.read_text(encoding="utf-8").splitlines()]
        assert len(spans) == metrics["bench.spans"]
        by_id = {span["id"]: span for span in spans}
        covered: dict = defaultdict(float)
        for span in spans:
            if span["parent"] >= 0:
                parent = by_id[span["parent"]]
                assert parent["start_s"] <= span["start_s"]
                assert span["end_s"] <= parent["end_s"]
                covered[span["parent"]] += span["end_s"] - span["start_s"]
        own: dict = defaultdict(float)
        for span in spans:
            own[span["layer"]] += (span["end_s"] - span["start_s"]
                                   - covered[span["id"]])
        roots = sum(span["end_s"] - span["start_s"] for span in spans
                    if span["parent"] < 0)
        own["bench"] += wall - roots
        assert sum(own.values()) == pytest.approx(wall, rel=0.01)
        for layer, seconds in own.items():
            assert seconds == pytest.approx(metrics[f"{layer}.self_s"],
                                            abs=1e-6), (workload, layer)


#: a metric each workload's traced pass must record: methods, module
#: functions rebound by name, and functions trial bodies close over
EXERCISED = {
    "unixbench": ("guestos.syscalls", "sim.batch_commits",
                  "workloads.self_s"),
    "faas": ("runtimes.sessions", "workloads.self_s", "core.trial_p50_ms"),
    "cluster": ("core.cluster.placements", "experiments.self_s"),
    "image": ("supply.keystream_xor_s", "attest.rsa_verifies"),
    "attest": ("attest.rsa_verifies", "obs.metric_updates"),
}


def test_traced_pass_reaches_each_workloads_layers(runs):
    for workload, names in EXERCISED.items():
        metrics = _result(runs[workload]["1"][0])["metrics"]
        for name in names:
            assert metrics[name]["value"] > 0, (workload, name)


def test_tampered_chunk_fails_its_boots_without_aborting(monkeypatch):
    pushed = Registry.push

    def push_then_tamper(registry, bundle):
        pushed(registry, bundle)
        first = bundle.manifest.layers[0]
        if first.encrypted:
            registry.tamper(first.chunks[0].digest)

    monkeypatch.setattr(Registry, "push", push_then_tamper)
    workload = scenarios.WORKLOADS["image"](3, True)
    result = workload.check(workload.run())
    secure = [boot for boot in result.outputs if boot["secure"]]
    assert result.units == len(result.outputs) == 2 * len(secure)
    assert result.failed == len(secure)
    assert {boot.get("error") for boot in secure} == {
        "ImageVerificationError"}


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "attest", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _result_file(path: Path, workload: str, seed: int,
                 rate: float) -> str:
    metrics = {metric["name"]: {"value": rate, "unit": metric["unit"]}
               for metric in SPEC["end_to_end"]}
    path.write_text(
        f"# workload={workload} seed={seed} trace=0 sim_digest=d\n"
        + json.dumps({"correct": True, "attempted": 1, "failed": 0,
                      "metrics": metrics}) + "\n", encoding="utf-8")
    return str(path)


def test_compare_flags_a_regression_beyond_the_bound(tmp_path, capsys):
    base = [_result_file(tmp_path / f"b{seed}", "faas", seed,
                         100.0 + seed) for seed in range(5)]
    slower = [_result_file(tmp_path / f"n{seed}", "faas", seed,
                           70.0 + seed) for seed in range(5)]
    assert compare.main(["--base", *base, "--new", *slower]) == 1
    assert "units_per_s" in capsys.readouterr().out
    assert compare.main(["--base", *base, "--new", *base]) == 0
    assert compare.verdict([100.0] * 10, [130.0] * 10, "higher",
                           0.1) == "better"
