"""Confidential container supply chain.

The deployment path the paper's FaaS evaluation stops short of
(DESIGN.md, "Confidential supply chain"; modeled on the
coco-serverless stack): OCI-style images with content-addressed,
optionally encrypted layers; a deterministic registry one WAN hop
away; cosign-style manifest signatures verified in-guest; eager vs
nydus-style lazy (chunk-on-demand) pull strategies charging real
cost-ledger categories; and a Key Broker Service that releases
layer-decryption keys only after a successful :mod:`repro.attest`
launch verification — riding the attestation session cache so resumed
launches skip the origin round-trip.

Entry points: build and sign an image (:func:`build_image`,
:func:`sign_image`), push it to a :class:`Registry`, escrow its keys
with a :class:`KeyBrokerService`, then put the whole chain on the
boot critical path with a :class:`LaunchProvisioner` (full fidelity,
pool admission) or an :class:`ImagePolicy` (fixed-cost, cluster
sweeps).
"""

from repro.supply.image import (
    CHUNK_BYTES,
    ChunkRef,
    ImageBundle,
    ImageManifest,
    ImageSignature,
    LayerDescriptor,
    build_image,
    keystream_xor,
    sha256_digest,
    sign_image,
    verify_image_signature,
)
from repro.supply.kbs import KEY_WRAP_COST_NS, KeyBrokerService, KeyRelease
from repro.supply.launch import (
    ImagePolicy,
    LaunchProvisioner,
    ProvisionReport,
)
from repro.supply.registry import (
    EagerPull,
    LazyImage,
    LazyPull,
    PullReport,
    Registry,
)

__all__ = [
    "CHUNK_BYTES",
    "ChunkRef",
    "EagerPull",
    "ImageBundle",
    "ImageManifest",
    "ImagePolicy",
    "ImageSignature",
    "KEY_WRAP_COST_NS",
    "KeyBrokerService",
    "KeyRelease",
    "LaunchProvisioner",
    "LayerDescriptor",
    "LazyImage",
    "LazyPull",
    "ProvisionReport",
    "PullReport",
    "Registry",
    "build_image",
    "keystream_xor",
    "sha256_digest",
    "sign_image",
    "verify_image_signature",
]
