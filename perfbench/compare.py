"""Compare two sets of benchmark runs, metric by metric.

Save each run's standard output to a file, then::

    python3 perfbench/compare.py --base base/*.txt --new new/*.txt

For every (workload, metric) both sets measured, this prints each
side's median, quartiles and run count, and a verdict:

- ``worse``: the new median is worse than the base median by more
  than the metric's bound in ``BENCHMARK.json``;
- ``better``: the new side wins at least 9 of every 10 pairs (runs
  paired in seed order, ties count for neither) and the medians differ
  by more than the base runs' quartile distance;
- ``unresolved``: the base runs spread wider than the bound, and not
  every new run reads better than every base run;
- ``same``: none of the above.

Per-layer metrics have no bound, so only ``better`` applies to them.
A ``sim_digest`` that differs between the sets for one workload and
seed is reported too: a pure-speed change must leave it unchanged.
Exits 1 when any verdict is ``worse`` or any run failed its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_tags(lines: list[str]) -> dict[str, str]:
    """The ``key=value`` fields of a run's ``# `` lines."""
    return dict(field.split("=", 1) for line in lines
                if line.startswith("# ") for field in line[2:].split()
                if "=" in field)


def load(paths: list[str]) -> list[dict]:
    """One record per run: workload, seed, digest, correct, metrics."""
    runs = []
    for path in paths:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        tags = run_tags(lines)
        result = json.loads(lines[-1])
        runs.append({
            "workload": tags["workload"], "seed": int(tags["seed"]),
            "digest": tags.get("sim_digest"),
            "correct": result["correct"],
            "metrics": {name: metric["value"]
                        for name, metric in result["metrics"].items()},
        })
    return sorted(runs, key=lambda run: (run["workload"], run["seed"]))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def verdict(base: list[float], new: list[float], better: str,
            bound: float | None) -> str:
    """The guide's rules, applied to one (workload, metric)."""
    sign = 1.0 if better == "higher" else -1.0
    low, median, high = quartiles(base)
    new_median = quartiles(new)[1]
    if bound is not None and sign * (new_median - median) < -bound * abs(
            median):
        return "worse"
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
    pairs = min(len(base), len(new))
    if (pairs and wins >= 0.9 * pairs
            and abs(new_median - median) > high - low):
        return "better"
    if bound is not None and median and (high - low) / abs(median) > bound:
        everyone = (min(sign * n for n in new) > max(sign * b for b in base))
        return "same" if everyone else "unresolved"
    return "same"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    declared = {metric["name"]: metric
                for kind in ("end_to_end", "per_layer")
                for metric in spec[kind]}
    sides = {"base": load(args.base), "new": load(args.new)}
    values: dict[tuple[str, str], dict[str, list[float]]] = defaultdict(
        lambda: {"base": [], "new": []})
    digests: dict[tuple[str, int], dict[str, set]] = defaultdict(
        lambda: {"base": set(), "new": set()})
    for side, runs in sides.items():
        for run in runs:
            for name, value in run["metrics"].items():
                values[run["workload"], name][side].append(value)
            digests[run["workload"], run["seed"]][side].add(run["digest"])

    status = 0
    print(f"{'workload':10} {'metric':36} {'base median [q1, q3] n':34} "
          f"{'new median [q1, q3] n':34} verdict")
    for (workload, name), sets in sorted(values.items()):
        if not sets["base"] or not sets["new"] or name not in declared:
            continue
        metric = declared[name]
        cells = []
        for side in ("base", "new"):
            low, median, high = quartiles(sets[side])
            cells.append(f"{median:.5g} [{low:.5g}, {high:.5g}] "
                         f"{len(sets[side])}")
        decision = verdict(sets["base"], sets["new"], metric["better"],
                           metric.get("bound"))
        status |= decision == "worse"
        print(f"{workload:10} {name:36} {cells[0]:34} {cells[1]:34} "
              f"{decision}")
    for (workload, seed), seen in sorted(digests.items()):
        if seen["base"] and seen["new"] and seen["base"] != seen["new"]:
            print(f"{workload} seed {seed}: sim_digest changed")
    failed = [run for runs in sides.values() for run in runs
              if not run["correct"]]
    for run in failed:
        print(f"{run['workload']} seed {run['seed']}: run failed its checks")
    return 1 if status or failed else 0


if __name__ == "__main__":
    sys.exit(main())
