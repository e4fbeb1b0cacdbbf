"""Bench T6 — perf trajectory of the batched op-stream kernel.

Unlike the figure benches (which assert the paper's *virtual-time*
shape), this bench measures the harness itself: wall-clock
trials/second over the fig4 UnixBench sweep — 3 platforms x 6 trials
x secure+normal = 36 trials — with the batched engine and with the
legacy per-op engine, on the same machine in the same process.

The committed trajectory lives in ``BENCH_6.json`` at the repo root:

- ``baseline_pre_refactor`` — trials/s recorded on the per-op
  implementation *before* the batch kernel landed (the 5x target's
  denominator);
- ``post_refactor`` — trials/s measured when the file was last
  regenerated, plus the in-run batch-vs-perop speedup;
- ``attribution`` — per-CostCategory virtual-time attribution of the
  sweep from :class:`repro.obs.profile.Profile` (what ``confbench
  profile`` prints), so the trajectory records *where* simulated time
  goes, not just how fast the simulator grinds through it;
- ``gate`` — the regression contract CI enforces.

Absolute trials/s is machine-bound, so the CI gate is the **in-run
speedup ratio** (batch engine / per-op engine, both best-of-N in this
very process): machine speed cancels, and reverting the batch path
drags the ratio toward 1.0.  The build fails when the measured ratio
regresses more than ``max_regression`` (10%) below the committed one.

This module also hosts the supply-chain pull trajectory
(``BENCH_10.json``): wall-clock provisions/second through the full
attest → KBS → pull chain for the eager and lazy strategies on the
same image.  The failure mode it guards is lazy pull degrading into
whole-image chunk work on the boot path, and it is gated twice:
exactly, by the chunks each cold boot fetches (one bootstrap chunk
per layer lazy, every chunk eager — machine-independent), and by the
in-run lazy/eager throughput ratio, where machine speed cancels and
the failure mode drags the ratio toward 1.0.

Last, it gates CRT signing: on a 1024-bit key ``RsaKeyPair.sign``
must beat the textbook full-modulus ``m^d mod n`` by an in-run ratio,
with no committed trajectory file.

Regenerate after intentional perf changes with::

    CONFBENCH_WRITE_BENCH=1 python -m pytest benchmarks/test_perf_trajectory.py
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.attest import LaunchAttestor
from repro.attest.crypto import _pad_digest, derived_keypair
from repro.core.runner import TrialPlan, TrialRunner
from repro.obs.profile import Profile
from repro.sim.rng import SimRng
from repro.supply import (
    KeyBrokerService,
    LaunchProvisioner,
    Registry,
    build_image,
    sign_image,
)
from repro.supply.image import CHUNK_BYTES

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_6.json"
BENCH10_PATH = Path(__file__).resolve().parents[1] / "BENCH_10.json"

#: The fig4 sweep configuration (see repro.experiments.fig4_unixbench).
SWEEP = dict(platforms=("tdx", "sev-snp", "cca"), trials=6,
             scale=0.3, seed=1)
TOTAL_TRIALS = 36  # 3 platforms x 6 trials x (secure + normal)

#: Best-of-N wall-clock reps per (engine, jobs) cell.
REPS = 5


def _plan(engine: str) -> TrialPlan:
    return TrialPlan.matrix(
        kind="unixbench",
        platforms=SWEEP["platforms"],
        workloads=("unixbench",),
        trials=SWEEP["trials"],
        seed=SWEEP["seed"],
        params={"scale": SWEEP["scale"], "engine": engine},
    )


def _measure(engine: str, jobs: int) -> tuple[float, TrialRunner]:
    """Best-of-REPS trials/second for one engine/jobs cell."""
    best, last_runner = float("inf"), None
    for _ in range(REPS):
        runner = TrialRunner(jobs=jobs)
        plan = _plan(engine)
        start = time.perf_counter()
        results = runner.run(plan)
        elapsed = time.perf_counter() - start
        assert len(results) == TOTAL_TRIALS
        if elapsed < best:
            best, last_runner = elapsed, runner
    return TOTAL_TRIALS / best, last_runner


def _attribution(runner: TrialRunner) -> dict:
    profile = Profile.from_history(runner.history)
    total = profile.total_ns or 1.0
    return {
        "trials": profile.trials,
        "total_virtual_ns": profile.total_ns,
        "categories_ns": {name: profile.categories[name]
                          for name in sorted(profile.categories)},
        "categories_share": {
            name: round(profile.categories[name] / total, 4)
            for name in sorted(profile.categories)},
    }


def test_perf_trajectory(benchmark, capsys):
    # one sweep under pytest-benchmark for the --benchmark-json artifact
    benchmark.pedantic(lambda: TrialRunner(jobs=1).run(_plan("batch")),
                       rounds=1, iterations=1)

    batch_serial, batch_runner = _measure("batch", jobs=1)
    perop_serial, _ = _measure("perop", jobs=1)
    batch_j2, _ = _measure("batch", jobs=2)
    speedup = batch_serial / perop_serial

    committed = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    baseline = committed["baseline_pre_refactor"]

    with capsys.disabled():
        print()
        print(f"fig4 sweep ({TOTAL_TRIALS} trials, best of {REPS}):")
        print(f"  batch  serial  {batch_serial:8.1f} trials/s"
              f"   ({batch_serial / baseline['serial_trials_per_s']:.2f}x"
              " pre-refactor baseline)")
        print(f"  batch  jobs=2  {batch_j2:8.1f} trials/s")
        print(f"  perop  serial  {perop_serial:8.1f} trials/s")
        print(f"  in-run speedup (batch/perop): {speedup:.2f}x"
              f" (committed {committed['gate']['committed_speedup']:.2f}x)")

    if os.environ.get("CONFBENCH_WRITE_BENCH"):
        payload = {
            "bench": "fig4-unixbench-sweep",
            "config": {**{k: list(v) if isinstance(v, tuple) else v
                          for k, v in SWEEP.items()},
                       "total_trials": TOTAL_TRIALS, "best_of": REPS},
            "baseline_pre_refactor": baseline,
            "post_refactor": {
                "serial_trials_per_s": round(batch_serial, 2),
                "parallel_j2_trials_per_s": round(batch_j2, 2),
                "perop_engine_serial_trials_per_s": round(perop_serial, 2),
                "speedup_vs_pre_refactor_baseline": round(
                    batch_serial / baseline["serial_trials_per_s"], 2),
                "in_run_speedup_batch_vs_perop": round(speedup, 2),
            },
            "gate": {
                "metric": "in_run_speedup_batch_vs_perop",
                # committed at 85% of the regen-time measurement: the
                # ratio cancels machine speed but not scheduler noise or
                # cross-machine cache behaviour, and the failure mode the
                # gate exists for (losing the batch path) drags the ratio
                # toward 1.0 — far below any committed floor
                "committed_speedup": round(speedup * 0.85, 2),
                "max_regression": 0.10,
            },
            "attribution": _attribution(batch_runner),
        }
        BENCH_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        return

    gate = committed["gate"]
    floor = gate["committed_speedup"] * (1.0 - gate["max_regression"])
    assert speedup >= floor, (
        f"perf trajectory regressed: batch/perop speedup {speedup:.2f}x "
        f"fell below {floor:.2f}x (committed "
        f"{gate['committed_speedup']:.2f}x minus "
        f"{gate['max_regression']:.0%} tolerance) — the batch kernel "
        "lost its edge; profile before re-baselining with "
        "CONFBENCH_WRITE_BENCH=1"
    )
    # the refactor's headline claim stays pinned: >= 5x the recorded
    # pre-refactor trials/s when BENCH_6.json was last regenerated
    recorded = committed["post_refactor"]
    assert (recorded["serial_trials_per_s"]
            >= 5.0 * baseline["serial_trials_per_s"])


# --- supply-chain pull trajectory (BENCH_10.json) -------------------

#: Image big enough that chunk fetch/verify/decrypt dominates the
#: boot: 48 chunks eager vs one bootstrap chunk per layer lazy.
SUPPLY_LAYERS = (24 * CHUNK_BYTES, 16 * CHUNK_BYTES, 8 * CHUNK_BYTES)
#: Cold boots (distinct VM ids — no session resumption) per rep.
SUPPLY_BOOTS = 24
#: Best-of-N wall-clock reps per strategy.
SUPPLY_REPS = 3
#: Chunks one cold boot fetches: every chunk eager, one per layer lazy.
CHUNKS_PER_BOOT = {"eager": 24 + 16 + 8, "lazy": 3}


def _supply_chain(strategy: str) -> LaunchProvisioner:
    rng = SimRng(11, "bench-supply")
    bundle = build_image("bench", "v1", rng.child("image"),
                         layer_sizes=SUPPLY_LAYERS)
    publisher = derived_keypair(rng.child("publisher"), "publisher")
    sign_image(bundle, publisher)
    registry = Registry()
    registry.push(bundle)
    attestor = LaunchAttestor("tdx", seed=11)
    kbs = KeyBrokerService(attestor.service)
    kbs.register_bundle(bundle)
    return LaunchProvisioner(
        attestor, registry, kbs, ("bench", "v1"),
        publisher_key=publisher.public, strategy=strategy,
        key_ids=bundle.manifest.key_ids)


def _measure_supply(strategy: str) -> float:
    """Best-of-SUPPLY_REPS cold provisions/wall-second."""
    best = float("inf")
    for _ in range(SUPPLY_REPS):
        provisioner = _supply_chain(strategy)
        start = time.perf_counter()
        for boot in range(SUPPLY_BOOTS):
            report = provisioner.provision(f"vm-{boot}")
            assert not report.resumed
            assert report.pull.chunks_fetched == CHUNKS_PER_BOOT[strategy]
        elapsed = time.perf_counter() - start
        assert provisioner.stats["provisioned"] == SUPPLY_BOOTS
        best = min(best, elapsed)
    return SUPPLY_BOOTS / best


def test_supply_pull_trajectory(capsys):
    eager_rate = _measure_supply("eager")
    lazy_rate = _measure_supply("lazy")
    speedup = lazy_rate / eager_rate

    regenerate = bool(os.environ.get("CONFBENCH_WRITE_BENCH"))
    committed = (None if regenerate
                 else json.loads(BENCH10_PATH.read_text(encoding="utf-8")))

    with capsys.disabled():
        print()
        print(f"supply-chain cold boots ({SUPPLY_BOOTS} provisions, "
              f"best of {SUPPLY_REPS}):")
        print(f"  eager  {eager_rate:8.1f} boots/s")
        print(f"  lazy   {lazy_rate:8.1f} boots/s")
        floor_note = ("regenerating" if committed is None else
                      f"committed "
                      f"{committed['gate']['committed_speedup']:.2f}x")
        print(f"  in-run speedup (lazy/eager): {speedup:.2f}x "
              f"({floor_note})")

    if regenerate:
        payload = {
            "bench": "supply-chain-pull-throughput",
            "config": {
                "layer_chunks": [size // CHUNK_BYTES
                                 for size in SUPPLY_LAYERS],
                "boots": SUPPLY_BOOTS, "best_of": SUPPLY_REPS,
                "platform": "tdx",
            },
            "chunks_per_boot": CHUNKS_PER_BOOT,
            "why": ("re-baselined when pulls began to memoize each "
                    "unsealed chunk per process: the lazy/eager ratio "
                    "fell from the 5.81x committed because repeated "
                    "eager boots no longer derive the keystream for all "
                    "48 chunks, not because lazy pull touches more; "
                    "every boot still fetches, digest-checks and unpacks "
                    "its chunks, and chunks_per_boot gates what lazy "
                    "saves exactly"),
            "strategies": {
                "eager_boots_per_s": round(eager_rate, 1),
                "lazy_boots_per_s": round(lazy_rate, 1),
            },
            "gate": {
                "metric": "in_run_speedup_lazy_vs_eager",
                # committed at 85% of the regen-time measurement: the
                # ratio cancels machine speed but not hash-throughput
                # noise, and the gated failure mode (lazy pull doing
                # whole-image chunk work) lands near 1.0, far below
                # any committed floor
                "committed_speedup": round(speedup * 0.85, 2),
                "max_regression": 0.15,
            },
        }
        BENCH10_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        return

    gate = committed["gate"]
    floor = gate["committed_speedup"] * (1.0 - gate["max_regression"])
    assert speedup >= floor, (
        f"supply trajectory regressed: lazy/eager speedup "
        f"{speedup:.2f}x fell below {floor:.2f}x (committed "
        f"{gate['committed_speedup']:.2f}x minus "
        f"{gate['max_regression']:.0%} tolerance) — the lazy pull is "
        "paying eager-grade chunk work on the boot path; profile "
        "before re-baselining with CONFBENCH_WRITE_BENCH=1"
    )


# --- CRT signing gate -----------------------------------------------

#: Messages signed per rep, and best-of-N reps per signer.
SIGN_MESSAGES = tuple(f"quote-{i}".encode() for i in range(100))
SIGN_REPS = 5
#: CRT signing must be at least this much faster than ``m^d mod n``.
#: Two half-size exponentiations cost about a third of one full one;
#: losing the CRT path drags the ratio to 1.0.
SIGN_MIN_SPEEDUP = 2.0


def _best_signing_time(sign) -> float:
    best = float("inf")
    for _ in range(SIGN_REPS):
        start = time.perf_counter()
        for message in SIGN_MESSAGES:
            sign(message)
        best = min(best, time.perf_counter() - start)
    return best


def test_crt_signing_speedup(capsys):
    pair = derived_keypair(SimRng(3, "bench-sign"), "signer", 1024)
    k = pair.public.byte_length

    def textbook_sign(message: bytes) -> bytes:
        padded = int.from_bytes(_pad_digest(message, k), "big")
        return pow(padded, pair.d, pair.public.n).to_bytes(k, "big")

    for message in SIGN_MESSAGES[:4]:
        assert pair.sign(message) == textbook_sign(message)
    crt = _best_signing_time(pair.sign)
    textbook = _best_signing_time(textbook_sign)
    speedup = textbook / crt

    with capsys.disabled():
        print()
        print(f"1024-bit signing ({len(SIGN_MESSAGES)} messages, "
              f"best of {SIGN_REPS}):")
        print(f"  CRT       {crt / len(SIGN_MESSAGES) * 1e3:6.2f} ms/sign")
        print(f"  textbook  {textbook / len(SIGN_MESSAGES) * 1e3:6.2f} "
              "ms/sign")
        print(f"  in-run speedup (textbook/CRT): {speedup:.2f}x "
              f"(floor {SIGN_MIN_SPEEDUP:.1f}x)")

    assert speedup >= SIGN_MIN_SPEEDUP, (
        f"CRT signing is only {speedup:.2f}x faster than m^d mod n "
        f"(floor {SIGN_MIN_SPEEDUP:.1f}x): RsaKeyPair.sign lost its "
        "CRT path")
