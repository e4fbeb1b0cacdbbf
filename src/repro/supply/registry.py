"""A deterministic OCI registry plus eager and lazy pull strategies.

The :class:`Registry` is a content-addressed blob store across the
WAN: every manifest and chunk fetch prices a real NIC round-trip on
the caller's execution context and lands one entry in a bounded
:class:`~repro.attest.pcs.RequestLog` — the reconciliation side of
the fig10 counters (clean log entries must equal the pull counters
exactly, like PCS origin fetches in fig5x).

Two pull strategies share one verification discipline (signature
first, then per-chunk digest checks, then decrypt, then unpack into
the guest filesystem):

- :class:`EagerPull` — fetch every chunk of every layer at boot, the
  classic pull-then-run critical path.
- :class:`LazyPull` — nydus-style chunk-on-demand: boot materializes
  only each layer's first chunk (the bootstrap/metadata window); the
  rest arrive as *chunk faults* via :meth:`LazyImage.access` when the
  workload touches them.  Encrypted layers decrypt per chunk — the
  offset-addressable keystream in :mod:`repro.supply.image` exists
  exactly so a fault never has to materialize its neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attest.crypto import DIGEST_COST_PER_BYTE_NS
from repro.attest.pcs import RequestLog
from repro.errors import ImageVerificationError, SupplyChainError
from repro.hw.nic import NicModel, wan_path
from repro.supply.image import (
    SEAL_COST_PER_BYTE_NS,
    ChunkRef,
    ImageBundle,
    ImageManifest,
    ImageSignature,
    LayerDescriptor,
    keystream_xor,
    sha256_digest,
    verify_image_signature,
)


class Registry:
    """Content-addressed blobs + manifests, one WAN hop away.

    Deterministic: serving order never matters, network cost comes
    from the caller's context RNG, and the request log is the ground
    truth the pull counters reconcile against (entries carrying ``!``
    are error markers and do not count as served requests).
    """

    def __init__(self, nic: NicModel | None = None,
                 log_capacity: int = 8192) -> None:
        self.nic = nic if nic is not None else wan_path()
        self._manifests: dict[tuple[str, str],
                              tuple[ImageManifest,
                                    ImageSignature | None]] = {}
        self._blobs: dict[str, bytes] = {}
        self.request_log = RequestLog(log_capacity)
        self.stats: dict[str, int] = {
            "manifest_fetches": 0,
            "chunk_fetches": 0,
            "bytes_served": 0,
            "misses": 0,
        }

    def push(self, bundle: ImageBundle) -> None:
        manifest = bundle.manifest
        self._manifests[(manifest.name, manifest.tag)] = (
            manifest, bundle.signature)
        self._blobs.update(bundle.blobs)

    def tamper(self, digest: str, flip: int = 0) -> None:
        """Corrupt a stored blob in place (supply-chain attack helper).

        The blob keeps its advertised digest, so the corruption is
        only caught by the puller's content verification.
        """
        try:
            data = self._blobs[digest]
        except KeyError:
            raise SupplyChainError(
                f"cannot tamper with unknown blob {digest}") from None
        mutated = bytearray(data)
        mutated[flip % len(mutated)] ^= 0xFF
        self._blobs[digest] = bytes(mutated)

    def fetch_manifest(self, name: str, tag: str, ctx
                       ) -> tuple[ImageManifest, ImageSignature | None]:
        key = (name, tag)
        entry = self._manifests.get(key)
        if entry is None:
            self.stats["misses"] += 1
            self.request_log.append(f"GET /v2/{name}/manifests/{tag}!404")
            raise SupplyChainError(
                f"registry has no manifest for {name}:{tag}")
        manifest, _signature = entry
        payload = len(manifest.canonical_bytes())
        ctx.charge_network(self.nic.round_trip(payload, ctx.rng))
        self.stats["manifest_fetches"] += 1
        self.stats["bytes_served"] += payload
        self.request_log.append(f"GET /v2/{name}/manifests/{tag}")
        return entry

    def fetch_chunk(self, chunk: ChunkRef, ctx) -> bytes:
        data = self._blobs.get(chunk.digest)
        if data is None:
            self.stats["misses"] += 1
            self.request_log.append(
                f"GET /v2/blobs/{chunk.digest[:19]}!404")
            raise SupplyChainError(
                f"registry has no blob {chunk.digest}")
        ctx.charge_network(self.nic.round_trip(chunk.size, ctx.rng))
        self.stats["chunk_fetches"] += 1
        self.stats["bytes_served"] += chunk.size
        self.request_log.append(f"GET /v2/blobs/{chunk.digest[:19]}")
        return data

    def clean_log_entries(self) -> int:
        """Successfully served requests — what pull counters reconcile
        against."""
        return self.request_log.clean


@dataclass
class PullReport:
    """What one pull did and where its virtual time went."""

    strategy: str = "eager"
    chunks_total: int = 0
    chunks_fetched: int = 0
    chunk_faults: int = 0
    bytes_pulled: int = 0
    layers_unpacked: int = 0
    signature_verified: bool = False
    #: phase → ns, measured as ledger deltas on the pull context
    phases: dict = field(default_factory=dict)

    def add_phase(self, name: str, nanos: float) -> None:
        self.phases[name] = self.phases.get(name, 0.0) + nanos

    def to_dict(self) -> dict:
        payload = {
            "strategy": self.strategy,
            "chunks_total": self.chunks_total,
            "chunks_fetched": self.chunks_fetched,
            "chunk_faults": self.chunk_faults,
            "bytes_pulled": self.bytes_pulled,
            "layers_unpacked": self.layers_unpacked,
            "signature_verified": self.signature_verified,
            "phases": dict(sorted(self.phases.items())),
        }
        return dict(sorted(payload.items()))


class _PullStrategy:
    """Shared verification discipline for both strategies.

    ``publisher_key`` set means *secure* pulls: the manifest signature
    must validate before any digest in it is trusted, and encrypted
    layers require their KBS-released key.  ``publisher_key=None``
    means a normal (unsigned, plaintext) deployment.
    """

    strategy = "base"

    def __init__(self, registry: Registry, publisher_key=None) -> None:
        self.registry = registry
        self.publisher_key = publisher_key

    def _verify_manifest(self, manifest: ImageManifest,
                         signature: ImageSignature | None, ctx,
                         report: PullReport) -> None:
        if self.publisher_key is None:
            return
        before = ctx.ledger.total()
        verify_image_signature(manifest, signature, self.publisher_key,
                               ctx)
        report.signature_verified = True
        report.add_phase("signature_ns", ctx.ledger.total() - before)

    def _fetch_verified(self, chunk: ChunkRef, ctx,
                        report: PullReport) -> bytes:
        before = ctx.ledger.total()
        data = self.registry.fetch_chunk(chunk, ctx)
        report.chunks_fetched += 1
        report.bytes_pulled += chunk.size
        report.add_phase("pull_ns", ctx.ledger.total() - before)
        before = ctx.ledger.total()
        ctx.crypto(DIGEST_COST_PER_BYTE_NS * len(data))
        if sha256_digest(data) != chunk.digest:
            raise ImageVerificationError(
                f"chunk at offset {chunk.offset} hashes to "
                f"{sha256_digest(data)}, manifest says {chunk.digest}; "
                "aborting launch")
        report.add_phase("verify_ns", ctx.ledger.total() - before)
        return data

    def _layer_key(self, layer: LayerDescriptor,
                   keys: "dict[str, bytes] | None") -> bytes | None:
        if not layer.encrypted:
            return None
        if not keys or layer.key_id not in keys:
            raise SupplyChainError(
                f"layer {layer.index} is encrypted under "
                f"{layer.key_id!r} but no such key was released")
        return keys[layer.key_id]

    def _unseal(self, data: bytes, key: bytes | None, offset: int, ctx,
                report: PullReport) -> bytes:
        if key is None:
            return data
        before = ctx.ledger.total()
        ctx.crypto(SEAL_COST_PER_BYTE_NS * len(data))
        plaintext = keystream_xor(data, key, offset)
        report.add_phase("decrypt_ns", ctx.ledger.total() - before)
        return plaintext

    def _unpack(self, fs, manifest: ImageManifest,
                layer: LayerDescriptor, chunk: ChunkRef, data: bytes,
                ctx, report: PullReport) -> None:
        before = ctx.ledger.total()
        root = f"/images/{manifest.name}/{manifest.tag}"
        directory = f"{root}/layer-{layer.index}"
        if not fs.exists(directory):
            fs.makedirs(directory)
        path = f"{directory}/chunk-{chunk.offset}"
        if not fs.exists(path):
            fs.create(path)
        fs.write(path, data)
        ctx.disk_write(len(data))
        report.add_phase("unpack_ns", ctx.ledger.total() - before)


class EagerPull(_PullStrategy):
    """Fetch, verify, decrypt, and unpack every chunk at boot."""

    strategy = "eager"

    def pull(self, name: str, tag: str, fs, ctx,
             keys: "dict[str, bytes] | None" = None) -> PullReport:
        report = PullReport(strategy=self.strategy)
        manifest, signature = self.registry.fetch_manifest(name, tag, ctx)
        report.chunks_total = manifest.total_chunks
        self._verify_manifest(manifest, signature, ctx, report)
        for layer in manifest.layers:
            key = self._layer_key(layer, keys)
            for chunk in layer.chunks:
                data = self._fetch_verified(chunk, ctx, report)
                data = self._unseal(data, key, chunk.offset, ctx, report)
                self._unpack(fs, manifest, layer, chunk, data, ctx,
                             report)
            report.layers_unpacked += 1
        return report


class LazyImage:
    """A lazily-materialized image: bootstrap now, fault chunks later."""

    def __init__(self, strategy: "LazyPull", manifest: ImageManifest,
                 fs, keys: "dict[str, bytes] | None",
                 report: PullReport) -> None:
        self._strategy = strategy
        self.manifest = manifest
        self._fs = fs
        self._keys = keys
        self.report = report
        self._present: set[tuple[int, int]] = set()

    def mark_present(self, layer_index: int, chunk_index: int) -> None:
        self._present.add((layer_index, chunk_index))

    def access(self, layer_index: int, chunk_index: int, ctx) -> bool:
        """Touch one chunk; True if it faulted (fetched on demand)."""
        if (layer_index, chunk_index) in self._present:
            return False
        layer = self.manifest.layers[layer_index]
        chunk = layer.chunks[chunk_index]
        strategy = self._strategy
        key = strategy._layer_key(layer, self._keys)
        data = strategy._fetch_verified(chunk, ctx, self.report)
        data = strategy._unseal(data, key, chunk.offset, ctx,
                                self.report)
        strategy._unpack(self._fs, self.manifest, layer, chunk, data,
                         ctx, self.report)
        self._present.add((layer_index, chunk_index))
        self.report.chunk_faults += 1
        return True


class LazyPull(_PullStrategy):
    """Nydus-style chunk-on-demand: bootstrap at boot, fault the rest."""

    strategy = "lazy"

    def pull(self, name: str, tag: str, fs, ctx,
             keys: "dict[str, bytes] | None" = None) -> LazyImage:
        report = PullReport(strategy=self.strategy)
        manifest, signature = self.registry.fetch_manifest(name, tag, ctx)
        report.chunks_total = manifest.total_chunks
        self._verify_manifest(manifest, signature, ctx, report)
        image = LazyImage(self, manifest, fs, keys, report)
        for layer in manifest.layers:
            key = self._layer_key(layer, keys)  # fail fast, like eager
            if not layer.chunks:
                continue
            chunk = layer.chunks[0]
            data = self._fetch_verified(chunk, ctx, report)
            data = self._unseal(data, key, chunk.offset, ctx, report)
            self._unpack(fs, manifest, layer, chunk, data, ctx, report)
            image.mark_present(layer.index, 0)
            report.layers_unpacked += 1
        return image
