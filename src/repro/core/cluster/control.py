"""REST-facing control plane for cluster sweeps and KBS key release.

The cluster gateway itself is a one-shot engine (build, ``run`` once,
read the report).  :class:`ClusterControl` is the long-lived object
the REST layer fronts: it owns a run-at-a-time mutex (a second sweep
arriving while one runs is *shed* with a deterministic retry hint,
the same brownout contract as ``POST /v1/invoke``), keeps the last
:class:`~repro.core.cluster.gateway.ClusterReport` for
``GET /v1/cluster/report``, and hosts a per-platform Key Broker plane
so ``POST /v1/kbs/release`` exercises the real attestation-gated
release path — a denial surfaces as the typed
:class:`~repro.errors.KeyReleaseDeniedError` the REST envelope maps
to ``403 release_denied``.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.core.cluster.gateway import ClusterGateway
from repro.core.cluster.profiles import build_fleet
from repro.core.cluster.traffic import TrafficSpec
from repro.errors import GatewayError, OverloadedError
from repro.sim.rng import SimRng

#: the documented ``POST /v1/cluster/run`` body fields (strict mode)
RUN_FIELDS = frozenset({
    "hosts", "requests", "rate_rps", "process", "secure_fraction",
    "seed", "strategy", "signed",
})

#: the documented ``POST /v1/kbs/release`` body fields (strict mode)
RELEASE_FIELDS = frozenset({
    "vm_id", "platform", "key_ids", "tamper_evidence",
})


def _require_int(payload: dict, name: str, default: int,
                 minimum: int = 1) -> int:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise GatewayError(f"'{name}' must be an integer")
    if value < minimum:
        raise GatewayError(f"'{name}' must be >= {minimum}, got {value}")
    return value


class ClusterControl:
    """One sweep at a time, last report kept, KBS plane on the side."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._run_lock = threading.Lock()
        self._last_report: dict[str, Any] | None = None
        self.runs = 0
        self.shed = 0
        #: platform -> (KeyBrokerService, LaunchAttestor, key ids); the
        #: attestation + escrow plane is built lazily per platform so
        #: importing the control stays cheap
        self._kbs: dict[str, tuple] = {}

    # -- sweeps --------------------------------------------------------

    def run(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Run one cluster sweep from a REST body; returns the report.

        Strict about fields like ``POST /v1/invoke``; a sweep arriving
        while another runs raises :class:`~repro.errors
        .OverloadedError` with a drain-time hint scaled to the running
        sweep's expected horizon.
        """
        unknown = sorted(set(payload) - RUN_FIELDS)
        if unknown:
            raise GatewayError(
                f"unknown cluster/run field(s): {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(RUN_FIELDS))}")
        hosts = _require_int(payload, "hosts", 4)
        requests = _require_int(payload, "requests", 2_000)
        seed = _require_int(payload, "seed", self.seed, minimum=0)
        rate_rps = payload.get("rate_rps", 2_000.0)
        if isinstance(rate_rps, bool) or not isinstance(rate_rps,
                                                        (int, float)):
            raise GatewayError("'rate_rps' must be a number")
        traffic = TrafficSpec(
            process=payload.get("process", "poisson"),
            requests=requests,
            rate_rps=float(rate_rps),
            secure_fraction=float(payload.get("secure_fraction", 0.75)),
        )
        policy = None
        strategy = payload.get("strategy")
        if strategy is not None:
            from repro.supply.launch import ImagePolicy

            if strategy not in ("eager", "lazy"):
                raise GatewayError(
                    f"'strategy' must be 'eager' or 'lazy', "
                    f"got {strategy!r}")
            policy = ImagePolicy(strategy=strategy,
                                 signed=bool(payload.get("signed", True)))
        if not self._run_lock.acquire(blocking=False):
            self.shed += 1
            raise OverloadedError(
                "a cluster sweep is already running; one at a time",
                retry_after_ns=traffic.horizon_ns)
        try:
            gateway = ClusterGateway(build_fleet(hosts, seed=seed),
                                     seed=seed, image_policy=policy)
            report = gateway.run(traffic).to_dict()
        finally:
            self._run_lock.release()
        self._last_report = report
        self.runs += 1
        return report

    def report(self) -> dict[str, Any] | None:
        """The last completed sweep's report, or None before any run."""
        return self._last_report

    # -- key broker plane ----------------------------------------------

    def _kbs_plane(self, platform: str):
        """The (broker, attestor, key ids) triple for ``platform``."""
        plane = self._kbs.get(platform)
        if plane is None:
            from repro.attest.service import LaunchAttestor
            from repro.supply.image import build_image, sign_image
            from repro.supply.kbs import KeyBrokerService
            from repro.supply.registry import Registry

            attestor = LaunchAttestor(platform, seed=self.seed)
            rng = SimRng(self.seed, f"cluster-control/kbs/{platform}")
            bundle = build_image("confapp", "v1", rng, encrypted=True)
            from repro.attest.crypto import derived_keypair

            sign_image(bundle, derived_keypair(rng.child("publisher"),
                                               "publisher"))
            registry = Registry()
            registry.push(bundle)
            kbs = KeyBrokerService(attestor.service)
            kbs.register_bundle(bundle)
            plane = (kbs, attestor, bundle.manifest.key_ids)
            self._kbs[platform] = plane
        return plane

    def kbs_release(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Attestation-gated key release from a REST body.

        Raises :class:`~repro.errors.KeyReleaseDeniedError` on failed
        attestation or unknown key ids — the REST layer maps it to
        ``403 release_denied`` with the broker's ``reason`` in the
        envelope.  ``tamper_evidence`` breaks the nonce binding so the
        denial path is reachable over the wire.
        """
        unknown = sorted(set(payload) - RELEASE_FIELDS)
        if unknown:
            raise GatewayError(
                f"unknown kbs/release field(s): {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(RELEASE_FIELDS))}")
        vm_id = payload.get("vm_id")
        if not vm_id or not isinstance(vm_id, str):
            raise GatewayError("kbs/release needs a 'vm_id'")
        platform = payload.get("platform", "tdx")
        from repro.attest.service import LaunchAttestor

        if platform not in LaunchAttestor.SUPPORTED:
            raise GatewayError(
                f"no attestation flow for platform {platform!r}; "
                f"supported: {', '.join(LaunchAttestor.SUPPORTED)}")
        key_ids = payload.get("key_ids")
        if key_ids is not None and (
                not isinstance(key_ids, list)
                or not all(isinstance(k, str) for k in key_ids)):
            raise GatewayError("'key_ids' must be a list of strings")
        kbs, attestor, escrowed = self._kbs_plane(platform)
        ctx = attestor.admission_context(vm_id)
        job = attestor.make_job(vm_id, ctx)
        if payload.get("tamper_evidence"):
            # break the nonce binding: the evidence (built against the
            # original nonce) no longer matches, so verification — and
            # therefore the release — fails exactly as a replayed or
            # forged quote would
            job.nonce = ctx.rng.child("tampered-nonce").bytes(16)
        release = kbs.release(
            job, tuple(key_ids) if key_ids is not None else escrowed, ctx)
        return {
            "vm_id": vm_id,
            "platform": platform,
            "released": sorted(release.keys),
            "resumed": release.resumed,
            "tier": release.verdict.tier,
            "release_ns": release.release_ns,
        }
