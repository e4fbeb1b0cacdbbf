"""The image model and both pull strategies.

Covers the content-addressing and sealing invariants (deterministic
builds, offset-addressable keystream, digests over sealed bytes), the
cosign-style signature discipline, the eager/lazy pull split, and the
tamper paths: a corrupted chunk or a forged manifest aborts with the
typed :class:`~repro.errors.ImageVerificationError` before anything
reaches the guest filesystem.
"""

import pytest

from repro.attest.crypto import derived_keypair
from repro.errors import ImageVerificationError, SupplyChainError
from repro.guestos.context import ExecContext
from repro.guestos.filesystem import InMemoryFileSystem
from repro.hw.machine import xeon_gold_5515
from repro.sim.rng import SimRng
from repro.supply import (
    CHUNK_BYTES,
    EagerPull,
    LazyPull,
    Registry,
    build_image,
    keystream_xor,
    sha256_digest,
    sign_image,
    verify_image_signature,
)


def make_ctx(seed=1):
    return ExecContext(machine=xeon_gold_5515(),
                       rng=SimRng(seed, "supply-ctx"))


def make_signed(seed=7, encrypted=True):
    rng = SimRng(seed, "supply-test")
    bundle = build_image("app", "v1", rng.child("image"),
                         encrypted=encrypted)
    publisher = derived_keypair(rng.child("publisher"), "publisher")
    sign_image(bundle, publisher)
    registry = Registry()
    registry.push(bundle)
    return bundle, publisher, registry


class TestImageModel:
    def test_build_is_deterministic(self):
        one = build_image("app", "v1", SimRng(3, "img"))
        two = build_image("app", "v1", SimRng(3, "img"))
        assert one.manifest.digest == two.manifest.digest
        assert one.blobs == two.blobs
        assert one.keys == two.keys

    def test_digests_cover_sealed_bytes(self):
        bundle = build_image("app", "v1", SimRng(4, "img"))
        for layer in bundle.manifest.layers:
            assert layer.encrypted and layer.key_id
            for chunk in layer.chunks:
                assert sha256_digest(bundle.blobs[chunk.digest]) == \
                    chunk.digest

    def test_keystream_is_offset_addressable(self):
        key = SimRng(5, "key").bytes(32)
        plaintext = SimRng(5, "data").bytes(3 * CHUNK_BYTES)
        sealed = keystream_xor(plaintext, key)
        # chunk 2 decrypts alone, without touching chunks 0-1
        offset = 2 * CHUNK_BYTES
        piece = keystream_xor(sealed[offset:], key, offset)
        assert piece == plaintext[offset:]

    def test_keystream_offset_must_be_aligned(self):
        with pytest.raises(SupplyChainError):
            keystream_xor(b"x" * 64, b"k" * 32, offset=7)

    def test_signature_roundtrip_and_forgery(self):
        bundle, publisher, _registry = make_signed()
        ctx = make_ctx()
        verify_image_signature(bundle.manifest, bundle.signature,
                               publisher.public, ctx)
        assert ctx.ledger.total() > 0.0
        stranger = derived_keypair(SimRng(9, "x"), "stranger")
        with pytest.raises(ImageVerificationError):
            verify_image_signature(bundle.manifest, bundle.signature,
                                   stranger.public, make_ctx())
        with pytest.raises(ImageVerificationError):
            verify_image_signature(bundle.manifest, None,
                                   publisher.public, make_ctx())


class TestPullStrategies:
    def test_eager_pull_fetches_everything(self):
        bundle, publisher, registry = make_signed()
        fs = InMemoryFileSystem()
        report = EagerPull(registry, publisher.public).pull(
            "app", "v1", fs, make_ctx(), keys=bundle.keys)
        assert report.signature_verified
        assert report.chunks_fetched == bundle.manifest.total_chunks
        assert report.chunk_faults == 0
        assert report.bytes_pulled == sum(
            layer.size for layer in bundle.manifest.layers)
        assert fs.total_files() == bundle.manifest.total_chunks
        # the registry log agrees: manifest + every chunk, no errors
        assert registry.clean_log_entries() == \
            1 + bundle.manifest.total_chunks

    def test_eager_unpack_restores_plaintext(self):
        bundle, publisher, registry = make_signed()
        fs = InMemoryFileSystem()
        EagerPull(registry, publisher.public).pull(
            "app", "v1", fs, make_ctx(), keys=bundle.keys)
        layer = bundle.manifest.layers[0]
        unpacked = fs.read("/images/app/v1/layer-0/chunk-0")
        sealed = bundle.blobs[layer.chunks[0].digest]
        key = bundle.keys[layer.key_id]
        assert unpacked == keystream_xor(sealed, key, 0)

    def test_lazy_pull_bootstraps_then_faults(self):
        bundle, publisher, registry = make_signed()
        fs = InMemoryFileSystem()
        ctx = make_ctx()
        image = LazyPull(registry, publisher.public).pull(
            "app", "v1", fs, ctx, keys=bundle.keys)
        layers = len(bundle.manifest.layers)
        assert image.report.chunks_fetched == layers  # first chunk each
        assert image.report.chunk_faults == 0
        # touching a bootstrapped chunk is a hit, not a fault
        assert image.access(0, 0, ctx) is False
        # a cold chunk faults exactly once
        assert image.access(0, 1, ctx) is True
        assert image.access(0, 1, ctx) is False
        assert image.report.chunk_faults == 1
        assert registry.clean_log_entries() == 1 + layers + 1

    def test_lazy_access_rejects_indices_outside_the_image(self):
        bundle, publisher, registry = make_signed()
        ctx = make_ctx()
        image = LazyPull(registry, publisher.public).pull(
            "app", "v1", InMemoryFileSystem(), ctx, keys=bundle.keys)
        assert len(bundle.manifest.layers) == 2
        assert image.access(1, 1, ctx) is True
        # -1 would wrap onto (1, 1) and fault the same chunk again
        for layer, chunk in ((-1, -1), (1, -1), (-1, 0), (2, 0), (0, 3)):
            with pytest.raises(SupplyChainError, match="has no chunk"):
                image.access(layer, chunk, ctx)
        assert image.access(1, 1, ctx) is False
        # chunk_faults counts distinct chunks: one fault, one fetch
        assert image.report.chunk_faults == 1
        assert registry.clean_log_entries() == 1 + 2 + 1

    def test_lazy_faults_are_deterministic(self):
        totals = []
        for _round in range(2):
            bundle, publisher, registry = make_signed()
            fs = InMemoryFileSystem()
            ctx = make_ctx(2)
            image = LazyPull(registry, publisher.public).pull(
                "app", "v1", fs, ctx, keys=bundle.keys)
            fault_rng = ctx.rng.child("faults")
            for _ in range(8):
                layer = fault_rng.randint(0,
                                          len(bundle.manifest.layers) - 1)
                chunk = fault_rng.randint(
                    0, len(bundle.manifest.layers[layer].chunks) - 1)
                image.access(layer, chunk, ctx)
            totals.append((image.report.chunk_faults,
                           image.report.bytes_pulled,
                           ctx.ledger.total()))
        assert totals[0] == totals[1]

    def test_missing_key_fails_fast(self):
        bundle, publisher, registry = make_signed()
        with pytest.raises(SupplyChainError, match="no such key"):
            EagerPull(registry, publisher.public).pull(
                "app", "v1", InMemoryFileSystem(), make_ctx(), keys={})

    def test_unsigned_pull_skips_signature(self):
        rng = SimRng(8, "plain")
        bundle = build_image("plain", "v1", rng, encrypted=False)
        registry = Registry()
        registry.push(bundle)
        report = EagerPull(registry).pull("plain", "v1",
                                          InMemoryFileSystem(), make_ctx())
        assert not report.signature_verified
        assert report.chunks_fetched == bundle.manifest.total_chunks


class TestTamper:
    def test_tampered_chunk_aborts_launch_with_typed_error(self):
        bundle, publisher, registry = make_signed()
        victim = bundle.manifest.layers[1].chunks[0]
        registry.tamper(victim.digest)
        fs = InMemoryFileSystem()
        with pytest.raises(ImageVerificationError,
                           match="aborting launch"):
            EagerPull(registry, publisher.public).pull(
                "app", "v1", fs, make_ctx(), keys=bundle.keys)
        # layer 0 unpacked before the abort, but the tampered layer
        # never reached the filesystem
        assert not fs.exists("/images/app/v1/layer-1/chunk-0")

    def test_tampered_lazy_fault_aborts(self):
        bundle, publisher, registry = make_signed()
        victim = bundle.manifest.layers[0].chunks[1]
        registry.tamper(victim.digest)
        ctx = make_ctx()
        image = LazyPull(registry, publisher.public).pull(
            "app", "v1", InMemoryFileSystem(), ctx, keys=bundle.keys)
        with pytest.raises(ImageVerificationError):
            image.access(0, 1, ctx)

    def test_tamper_unknown_blob_rejected(self):
        registry = Registry()
        with pytest.raises(SupplyChainError):
            registry.tamper("sha256:deadbeef")

    def test_manifest_miss_logs_error_entry(self):
        registry = Registry()
        with pytest.raises(SupplyChainError):
            registry.fetch_manifest("ghost", "v1", make_ctx())
        assert registry.clean_log_entries() == 0
        assert len(registry.request_log) == 1
