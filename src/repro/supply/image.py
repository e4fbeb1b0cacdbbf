"""OCI-style confidential container images.

The supply-chain model the coco-serverless stack implies: an image is
a *manifest* (canonical JSON, content-addressed by its SHA-256
digest) naming a sequence of *layers*, each layer a content-addressed
blob split into fixed-size *chunks* (the nydus unit of lazy pull).
Confidential layers are sealed with a per-layer symmetric key that
only the Key Broker Service releases — and the registry stores only
sealed bytes, so chunk digests cover exactly what travels the wire
and a tampered blob is caught *before* any decryption key is used.

Signatures are cosign-style: the publisher signs the manifest's
canonical bytes with the repo's from-scratch RSA
(:mod:`repro.attest.crypto`), and verifiers check the signature
before trusting any digest in the manifest.

Sealing is an XOR keystream of SHA-256 blocks (``sha256(key ||
block_index)``), chosen because it is *offset-addressable*: a lazy
puller can decrypt chunk 17 without materializing chunks 0–16, which
is what makes chunk-on-demand work on encrypted layers.  This is a
simulation-grade cipher — the point is deterministic bytes and
realistic cost accounting, not IND-CPA.

:func:`keystream_xor` is memoized per process on exactly its inputs:
trial purity rebuilds the registry, KBS and attestor for every boot,
so repeated boots unseal the same sealed chunk under the same key at
the same offset again.  Pulls are its only callers in the package;
:func:`build_image` seals whole layers through the unmemoized
:func:`_seal`, so the memo never keeps a built layer alive.  Every
boot still fetches each chunk, checks its digest, needs its
KBS-released key, is charged for the decryption and unpacks
(:mod:`repro.supply.registry`).  :func:`chunk_digest` memoizes the
content address of each fetched chunk the same way, keyed on the
chunk's bytes, and an :class:`ImageManifest` encodes its canonical
JSON once; every digest comparison and signature check still runs.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field

from repro.errors import ImageVerificationError, SupplyChainError
from repro.sim.rng import SimRng

#: nydus-style chunk size: the unit of lazy pull and of content
#: addressing below the layer
CHUNK_BYTES = 65_536

#: sealing keystream throughput (ns/byte) — symmetric crypto is an
#: order of magnitude cheaper than the RSA ops in attest.crypto
SEAL_COST_PER_BYTE_NS = 0.9

#: SHA-256 keystream block size (the digest size)
_KS_BLOCK = 32


def sha256_digest(data: bytes) -> str:
    """The OCI-style content address of ``data``."""
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _expand(seed: bytes, size: int, first_block: int = 0) -> bytes:
    """``size`` bytes of ``sha256(seed || block_index)`` blocks.

    The one block generator behind both layer content and the sealing
    keystream: deterministic (byte-identical serial vs parallel), and
    one C-level hash per 32 bytes instead of an RNG draw per byte.
    """
    last_block = first_block + (size + _KS_BLOCK - 1) // _KS_BLOCK
    return b"".join([hashlib.sha256(seed + index.to_bytes(8, "big")).digest()
                     for index in range(first_block, last_block)])[:size]


def _seal(data: bytes, key: bytes, offset: int = 0) -> bytes:
    """Seal/unseal ``data`` at byte ``offset`` within its layer.

    XOR with ``sha256(key || block_index)`` blocks.  ``offset`` must be
    a non-negative block multiple, so chunks decrypt independently.
    """
    if offset < 0 or offset % _KS_BLOCK:
        raise SupplyChainError(f"keystream offset must be a non-negative "
                               f"multiple of {_KS_BLOCK}, got {offset}")
    stream = _expand(key, len(data), offset // _KS_BLOCK)
    return (int.from_bytes(data, "little")
            ^ int.from_bytes(stream, "little")).to_bytes(len(data), "little")


#: Results :func:`keystream_xor` keeps: at most 4 MiB of plaintext
#: chunks, plus the sealed chunks they are keyed by.  The largest image
#: a sweep boots has 48 chunks.
UNSEAL_CACHE_SIZE = 64

#: Digests :func:`chunk_digest` keeps, pinning at most 8 MiB of chunks.
#: A sweep that boots the largest image both sealed and plaintext pulls
#: 96 distinct chunks; a smaller memo would evict one image's chunks
#: while pulling the other's.
DIGEST_CACHE_SIZE = 128


# Pure-function memo: (data, key, offset) fully determines the output,
# so hitting the cache never couples one trial to another.
@functools.lru_cache(maxsize=UNSEAL_CACHE_SIZE)
def keystream_xor(data: bytes, key: bytes, offset: int = 0) -> bytes:  # confbench: allow[purity]
    """:func:`_seal`, memoized per process for the pulls that unseal."""
    return _seal(data, key, offset)


# Keyed on the bytes themselves, which a lookup compares by content: a
# tampered chunk is new content, so it misses and is hashed afresh.
@functools.lru_cache(maxsize=DIGEST_CACHE_SIZE)
def chunk_digest(data: bytes) -> str:  # confbench: allow[purity]
    """:func:`sha256_digest`, memoized per process for fetched chunks."""
    return sha256_digest(data)


@dataclass(frozen=True)
class ChunkRef:
    """One chunk of a layer blob: content address + position."""

    digest: str
    size: int
    offset: int


@dataclass(frozen=True)
class LayerDescriptor:
    """One layer: the stored (possibly sealed) blob, chunked.

    ``digest`` addresses the stored bytes — sealed bytes for encrypted
    layers — so integrity verification never needs the key.
    ``key_id`` names the KBS-held decryption key; empty for plaintext
    layers.
    """

    index: int
    digest: str
    size: int
    encrypted: bool = False
    key_id: str = ""
    chunks: tuple[ChunkRef, ...] = ()

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "digest": self.digest,
            "size": self.size,
            "encrypted": self.encrypted,
            "key_id": self.key_id,
            "chunks": [{"digest": c.digest, "size": c.size,
                        "offset": c.offset} for c in self.chunks],
        }


@dataclass(frozen=True)
class ImageManifest:
    """The content-addressed root of one image."""

    name: str
    tag: str
    layers: tuple[LayerDescriptor, ...] = ()

    @functools.cached_property
    def _canonical(self) -> bytes:
        payload = {
            "name": self.name,
            "tag": self.tag,
            "layers": [layer.to_dict() for layer in self.layers],
        }
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def canonical_bytes(self) -> bytes:
        """Canonical (sorted-key, no-whitespace) JSON — what is signed,
        encoded once per manifest."""
        return self._canonical

    @functools.cached_property
    def digest(self) -> str:
        return sha256_digest(self._canonical)

    @property
    def total_chunks(self) -> int:
        return sum(len(layer.chunks) for layer in self.layers)

    @property
    def key_ids(self) -> tuple[str, ...]:
        return tuple(layer.key_id for layer in self.layers
                     if layer.encrypted)


@dataclass(frozen=True)
class ImageSignature:
    """A cosign-style detached signature over the manifest bytes."""

    manifest_digest: str
    signature: bytes
    key_fingerprint: str


@dataclass
class ImageBundle:
    """Everything a publisher pushes: manifest, signature, blobs, keys.

    ``blobs`` maps chunk digest → stored chunk bytes.  ``keys`` maps
    ``key_id`` → layer key and never leaves the publisher/KBS side —
    the registry only ever sees sealed bytes.
    """

    manifest: ImageManifest
    signature: ImageSignature | None = None
    blobs: dict[str, bytes] = field(default_factory=dict)
    keys: dict[str, bytes] = field(default_factory=dict)


def build_image(name: str, tag: str, rng: SimRng,
                layer_sizes: tuple[int, ...] = (3 * CHUNK_BYTES,
                                                2 * CHUNK_BYTES),
                encrypted: bool = True) -> ImageBundle:
    """Deterministically build one image from an RNG substream.

    Layer content, per-layer keys, and therefore every digest are pure
    functions of ``(name, tag, rng stream, layer_sizes, encrypted)``.
    """
    layers = []
    blobs: dict[str, bytes] = {}
    keys: dict[str, bytes] = {}
    for index, size in enumerate(layer_sizes):
        plaintext = _expand(rng.child(f"layer/{index}").bytes(32), size)
        if encrypted:
            key_id = f"{name}:{tag}/layer-{index}"
            key = rng.child(f"key/{index}").bytes(32)
            keys[key_id] = key
            stored = _seal(plaintext, key)
        else:
            key_id = ""
            stored = plaintext
        chunks = []
        for offset in range(0, size, CHUNK_BYTES):
            chunk_bytes = stored[offset:offset + CHUNK_BYTES]
            digest = sha256_digest(chunk_bytes)
            chunks.append(ChunkRef(digest=digest, size=len(chunk_bytes),
                                   offset=offset))
            blobs[digest] = chunk_bytes
        layers.append(LayerDescriptor(
            index=index, digest=sha256_digest(stored), size=size,
            encrypted=encrypted, key_id=key_id, chunks=tuple(chunks)))
    return ImageBundle(manifest=ImageManifest(name=name, tag=tag,
                                              layers=tuple(layers)),
                       blobs=blobs, keys=keys)


def sign_image(bundle: ImageBundle, keypair) -> ImageSignature:
    """Attach the publisher's signature to ``bundle`` (cosign-style)."""
    signature = ImageSignature(
        manifest_digest=bundle.manifest.digest,
        signature=keypair.sign(bundle.manifest.canonical_bytes()),
        key_fingerprint=keypair.public.fingerprint())
    bundle.signature = signature
    return signature


def verify_image_signature(manifest: ImageManifest,
                           signature: ImageSignature | None,
                           public_key, ctx) -> None:
    """Check the manifest signature, charging the verify cost.

    Raises :class:`ImageVerificationError` on a missing signature, a
    digest mismatch, or a signature that does not validate against
    ``public_key`` — all before any layer byte is trusted.
    """
    from repro.attest.crypto import DIGEST_COST_PER_BYTE_NS, VERIFY_COST_NS

    canonical = manifest.canonical_bytes()
    ctx.crypto(DIGEST_COST_PER_BYTE_NS * len(canonical) + VERIFY_COST_NS)
    if signature is None:
        raise ImageVerificationError(
            f"{manifest.name}:{manifest.tag}: unsigned image rejected "
            "by secure pull policy")
    if signature.manifest_digest != manifest.digest:
        raise ImageVerificationError(
            f"{manifest.name}:{manifest.tag}: signature covers "
            f"{signature.manifest_digest}, manifest is {manifest.digest}")
    if not public_key.verify(canonical, signature.signature):
        raise ImageVerificationError(
            f"{manifest.name}:{manifest.tag}: manifest signature does "
            f"not validate against key {public_key.fingerprint()}")
