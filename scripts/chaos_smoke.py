#!/usr/bin/env python
"""Chaos smoke test: SIGKILL a sweep mid-run, resume it, demand bit-identity.

For each scenario this driver runs an experiment sweep (the fig5
attestation sweep, or the fig9 cluster sweep with host-crash and
zone-partition faults landing mid-traffic) three times:

1. *baseline* — uninterrupted, no journal, ``--trace-out`` captured;
2. *interrupted* — the same sweep with ``--resume JOURNAL``, launched
   as a subprocess in its own process group, polled until the journal
   holds at least one trial entry, then the whole group — the CLI and
   any pool workers — is killed with SIGKILL (no chance to clean up —
   at worst a torn final journal line, which recovery must truncate);
3. *resumed* — the same command again against the same journal, run to
   completion.

The resumed run's artifact (trace JSON for fig5, the rendered figure
for fig9) must be byte-identical to the baseline's, and the kill must
leave no process of the interrupted sweep alive.
Scenarios cover serial and parallel execution, with and without fault
injection, plus a cluster chaos scenario.  Exit status 0 means every
scenario held; 1 names the ones that did not.

Usage::

    python scripts/chaos_smoke.py              # all scenarios
    python scripts/chaos_smoke.py --only serial-faulted
    python scripts/chaos_smoke.py --trials 4 --keep
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Rates chosen so every trial recovers within its retries: fig5's
# analysis needs the attest/check spans, which a fully degraded trial
# does not have.
FAULTS = "pcs-timeout=0.3,attest-transient=0.2,seed=7"

# Cluster-scale weather for the fig9 scenario: hosts crash and a zone
# partitions *during* the sweep; the gateway's conservation contract
# (and the resumed run's byte-identity) must hold anyway.
CLUSTER_FAULTS = "host-crash=0.6,zone-partition=0.5,seed=13"

#: name -> scenario spec:
#:   experiment — CLI experiment name;
#:   jobs       — worker count;
#:   faults     — ``--faults`` spec, or None;
#:   artifact   — what gets byte-compared between baseline and resumed
#:                runs: an output flag ("--trace-out" for fig5's trace
#:                export) or "stdout" (the rendered figure; used for
#:                fig9, whose metrics snapshot legitimately gains
#:                ``journal.*`` counters on a resumed run);
#:   extra      — additional CLI flags (e.g. ``--quick``).
SCENARIOS = {
    "serial-clean": {
        "experiment": "fig5", "jobs": 1, "faults": None,
        "artifact": "--trace-out", "extra": []},
    "serial-faulted": {
        "experiment": "fig5", "jobs": 1, "faults": FAULTS,
        "artifact": "--trace-out", "extra": []},
    "parallel-clean": {
        "experiment": "fig5", "jobs": 2, "faults": None,
        "artifact": "--trace-out", "extra": []},
    "parallel-faulted": {
        "experiment": "fig5", "jobs": 2, "faults": FAULTS,
        "artifact": "--trace-out", "extra": []},
    "cluster-chaos": {
        "experiment": "fig9", "jobs": 2, "faults": CLUSTER_FAULTS,
        "artifact": "stdout", "extra": ["--quick"]},
}


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def run_cli(args: list[str], timeout: float,
            stdout_to: Path | None = None) -> None:
    """Run the CLI; optionally capture its rendered stdout to a file.

    Captured stdout drops the run-housekeeping lines (``wrote ...``
    artifact paths, ``resuming from ...`` banners, ``journal: ...``
    summaries — all naming run-specific paths or replay/record splits)
    so what lands in the file is only the rendered figure.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=REPO, env=cli_env(), timeout=timeout, check=True,
        stdout=subprocess.PIPE if stdout_to is not None
        else subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )
    if stdout_to is not None:
        housekeeping = ("wrote ", "resuming from ", "journal: ")
        lines = proc.stdout.decode().splitlines(keepends=True)
        stdout_to.write_text(
            "".join(line for line in lines
                    if not line.startswith(housekeeping)))


def journaled_trials(path: Path) -> int:
    """Completed trial entries currently in the journal (cheap poll)."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return 0
    return sum(1 for line in raw.split(b"\n")
               if b'"kind": "trial"' in line and line.endswith(b"}"))


def live_group_members(pgid: int) -> int:
    """Processes in process group ``pgid`` that are not yet dead.

    Reads ``/proc`` (Linux): a killed process lingers as a zombie until
    its parent reaps it, so zombies do not count as left behind.
    """
    live = 0
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue            # exited while we looked
        state, pgrp = fields[0], int(fields[2])
        live += pgrp == pgid and state != "Z"
    return live


def interrupt_sweep(args: list[str], journal: Path,
                    timeout: float) -> tuple[int, int]:
    """Start the sweep, SIGKILL its whole process group once the
    journal has an entry.

    The sweep runs in its own session, so the kill reaches the CLI
    and every pool worker it forked; a worker left alive would be an
    orphan still writing to the journal.  Returns the number of
    trials journaled at kill time and the number of processes still
    alive in the group afterwards (it must be 0).  A sweep fast enough
    to finish before the poll sees an entry simply completes — the
    resume step then exercises pure replay instead of a tail run.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=REPO, env=cli_env(), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            if journaled_trials(journal) >= 1 or proc.poll() is not None:
                break
            time.sleep(0.01)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass                # the sweep finished and left nothing
        proc.wait()
    # orphaned workers die asynchronously: give the kill a moment
    settle = time.monotonic() + 5.0
    while live_group_members(proc.pid) and time.monotonic() < settle:
        time.sleep(0.01)
    return journaled_trials(journal), live_group_members(proc.pid)


def run_scenario(name: str, workdir: Path, trials: int,
                 timeout: float) -> tuple[bool, str]:
    scenario = SCENARIOS[name]
    artifact = scenario["artifact"]
    baseline = workdir / "baseline.json"
    resumed = workdir / "resumed.json"
    journal = workdir / "journal.jsonl"
    common = ["experiment", scenario["experiment"],
              "--trials", str(trials),
              "--jobs", str(scenario["jobs"]), *scenario["extra"]]
    if scenario["faults"]:
        common += ["--faults", scenario["faults"]]

    if artifact == "stdout":
        run_cli(common, timeout, stdout_to=baseline)
        at_kill, left = interrupt_sweep(
            [*common, "--resume", str(journal)], journal, timeout)
        run_cli([*common, "--resume", str(journal)], timeout,
                stdout_to=resumed)
    else:
        run_cli([*common, artifact, str(baseline)], timeout)
        at_kill, left = interrupt_sweep(
            [*common, "--resume", str(journal),
             artifact, str(workdir / "interrupted.json")],
            journal, timeout)
        run_cli([*common, "--resume", str(journal),
                 artifact, str(resumed)], timeout)

    identical = baseline.read_bytes() == resumed.read_bytes()
    detail = (f"killed with {at_kill} trial(s) journaled, {left} "
              f"process(es) left in its group; resumed trace "
              f"{'==' if identical else '!='} baseline")
    return identical and left == 0, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=sorted(SCENARIOS),
                        help="run a single scenario")
    parser.add_argument("--trials", type=int, default=6,
                        help="fig5 trials per platform (default 6)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-run wall-clock limit in seconds")
    parser.add_argument("--keep", action="store_true",
                        help="keep the scratch directory for inspection")
    args = parser.parse_args(argv)

    names = [args.only] if args.only else sorted(SCENARIOS)
    scratch = Path(tempfile.mkdtemp(prefix="chaos-smoke-"))
    failed: list[str] = []
    try:
        for name in names:
            workdir = scratch / name
            workdir.mkdir()
            ok, detail = run_scenario(name, workdir, args.trials,
                                      args.timeout)
            status = "ok" if ok else "FAIL"
            print(f"{status:4s} {name}: {detail}")
            if not ok:
                failed.append(name)
    finally:
        if args.keep:
            print(f"scratch kept at {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)
    if failed:
        print(f"chaos smoke FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"chaos smoke passed ({len(names)} scenario(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
