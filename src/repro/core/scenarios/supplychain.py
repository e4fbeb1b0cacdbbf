"""The Fig. 10 supply chain: image pulls on the boot critical path."""

from __future__ import annotations

from typing import Callable

from repro.core.runner import RunnerError, TrialSpec, body_factory
from repro.core.scenarios.counters import fold_counters
from repro.sim.rng import SimRng


@body_factory("supplychain")
def _supplychain_body(spec: TrialSpec) -> Callable:
    """One platform's image supply chain on the boot critical path.

    The fig10 scenario: a deterministic OCI-style image is published
    to a WAN registry, its layer keys escrowed with a Key Broker
    Service fronting the platform's verifier service, and two waves
    of VM launches run the full chain:

    1. wave 1 (cold): each launch attests, gets its keys released,
       and pulls the image under ``spec.workload`` (``eager`` pulls
       every chunk at boot; ``lazy`` bootstraps one chunk per layer);
    2. wave 2 (warm relaunch): the same VM identities return — their
       attestation sessions resume, so key release skips evidence,
       verification, and the collateral origin round-trip.

    Secure trials sign + encrypt the image and gate keys on a real
    ``attest.service`` verdict; normal trials pull the same bytes
    unsigned and in plaintext with no KBS involved — the
    secure-vs-normal separation is exactly the supply chain's
    attestation tax.  Lazy trials additionally replay a deterministic
    warm-path access pattern against the lazily-materialized image,
    charging chunk faults to the trial's own ledger.

    The body returns per-wave boot latencies plus every service/KBS/
    registry counter and reconciliation flags (KBS releases vs clean
    KBS log entries, registry fetches vs clean registry log entries,
    collateral origin fetches vs clean PCS log entries) so the
    experiment can verify the counters against the request logs
    exactly.
    """
    from repro.attest.crypto import derived_keypair
    from repro.attest.service import LaunchAttestor
    from repro.supply import (
        KeyBrokerService,
        LaunchProvisioner,
        Registry,
        build_image,
        sign_image,
    )

    # body memoization keys on workload but NOT spec.secure, so the
    # mode is part of the workload name: "<strategy>-<side>"
    flavor, _, side = spec.workload.partition("-")
    if flavor not in ("eager", "lazy") or side not in ("secure",
                                                       "normal"):
        raise RunnerError(
            f"unknown supply-chain workload {spec.workload!r}; expected "
            "<eager|lazy>-<secure|normal>")
    platform = spec.platform
    secure = side == "secure"
    infra_seed = spec.params.get("infra_seed", 0)
    vms = spec.params.get("vms", 3)
    accesses = spec.params.get("accesses", 6)

    def body(kernel):
        ctx = kernel.ctx
        infra_rng = SimRng(infra_seed,
                           f"supply-infra/{platform}/{flavor}/{side}")
        bundle = build_image("confapp", "v1", infra_rng.child("image"),
                             encrypted=secure)
        publisher = None
        if secure:
            publisher = derived_keypair(infra_rng.child("publisher"),
                                        "publisher")
            sign_image(bundle, publisher)
        registry = Registry()
        registry.push(bundle)
        attestor = LaunchAttestor(platform, seed=infra_seed)
        kbs = KeyBrokerService(attestor.service)
        kbs.register_bundle(bundle)
        provisioner = LaunchProvisioner(
            attestor, registry, kbs, ("confapp", "v1"),
            publisher_key=publisher.public if publisher else None,
            strategy=flavor, key_ids=bundle.manifest.key_ids)

        def launch(vm_id: str):
            """One boot → (admission_ns, resumed, pull report, image).

            Normal trials skip attestation + KBS: the pull happens on
            a bare admission context, unsigned and in plaintext.
            """
            if secure:
                report = provisioner.provision(vm_id)
                return (report.admission_ns, report.resumed,
                        report.pull, report.image)
            from repro.guestos.filesystem import InMemoryFileSystem

            boot_ctx = attestor.admission_context(vm_id)
            fs = InMemoryFileSystem()
            pulled = provisioner.puller().pull("confapp", "v1", fs,
                                               boot_ctx)
            report = getattr(pulled, "report", pulled)
            image = pulled if flavor == "lazy" else None
            return boot_ctx.ledger.total(), False, report, image

        boots: dict[str, list[float]] = {"wave1": [], "wave2": []}
        resumed = 0
        chunk_faults = 0
        chunks_fetched = 0
        bytes_pulled = 0
        for wave, span in (("wave1", "wave1-cold"),
                           ("wave2", "wave2-relaunch")):
            with ctx.trace.span(span, ctx):
                for index in range(vms):
                    admission_ns, was_resumed, pull, image = launch(
                        f"vm-{index}")
                    boots[wave].append(admission_ns)
                    chunks_fetched += pull.chunks_fetched
                    bytes_pulled += pull.bytes_pulled
                    if wave == "wave2":
                        resumed += was_resumed
                    elif image is not None:
                        fault_rng = ctx.rng.child(f"faults/w1/vm-{index}")
                        manifest = image.manifest
                        for _ in range(accesses):
                            layer = fault_rng.randint(
                                0, len(manifest.layers) - 1)
                            chunk = fault_rng.randint(
                                0, len(manifest.layers[layer].chunks) - 1)
                            if image.access(layer, chunk, ctx):
                                chunk_faults += 1
                                chunks_fetched += 1

        sources = [("kbs", kbs.stats), ("registry", registry.stats),
                   ("service", attestor.service.stats),
                   ("sessions", attestor.service.sessions.stats),
                   ("provisioner", provisioner.stats)]
        if attestor.collateral is not None:
            sources.append(("collateral", attestor.collateral.stats))
        origin_fetches = clean_pcs_entries = 0
        if secure and attestor.pcs is not None:
            origin_fetches = attestor.collateral.stats["origin.fetches"]
            clean_pcs_entries = attestor.pcs.request_log.clean
        counters, reconciled = fold_counters(sources, [
            (kbs.stats["released"], kbs.clean_log_entries()),
            (registry.stats["manifest_fetches"]
             + registry.stats["chunk_fetches"],
             registry.clean_log_entries()),
            (origin_fetches, clean_pcs_entries),
        ])
        return {
            "boot_ns": {wave: list(values)
                        for wave, values in sorted(boots.items())},
            "bytes_pulled": bytes_pulled,
            "chunk_faults": chunk_faults,
            "chunks_fetched": chunks_fetched,
            "clean_pcs_entries": clean_pcs_entries,
            "counters": counters,
            "origin_fetches": origin_fetches,
            "reconciled": reconciled,
            "resumed": resumed,
        }

    return body
