"""Property tests for the sealing keystream and lazy chunk faults.

The keystream is checked against a per-byte reference that XORs one
byte at a time, so any change to the whole-buffer XOR or the block
generator that moves a single sealed byte fails here.  One encrypted
bundle is also pinned by digest, so a keystream change shows up even
where no golden plan builds an image.

``keystream_xor`` memoizes unsealed chunks per process, and
``chunk_digest`` the digest of each fetched chunk.  The memos must
return what the unmemoized kernels would, and must not move the trust
boundary: with them warm, a tampered chunk still fails its digest
check before it is unsealed or unpacked, on encrypted and plaintext
images alike, and a denied key release unseals nothing.
"""

import contextlib
import hashlib
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attest import LaunchAttestor
from repro.attest.crypto import derived_keypair
from repro.errors import (
    ImageVerificationError,
    KeyReleaseDeniedError,
    SupplyChainError,
)
from repro.guestos.context import ExecContext
from repro.guestos.filesystem import InMemoryFileSystem
from repro.hw.machine import xeon_gold_5515
from repro.sim.rng import SimRng
from repro.supply import (
    CHUNK_BYTES,
    EagerPull,
    ImageBundle,
    KeyBrokerService,
    LaunchProvisioner,
    LazyPull,
    PullReport,
    Registry,
    build_image,
    keystream_xor,
    sha256_digest,
    sign_image,
)
from repro.supply import image as image_module
from repro.supply import registry as registry_module

BLOCK = 32


def reference_xor(data: bytes, key: bytes, offset: int = 0) -> bytes:
    """The per-byte keystream XOR: one generator step per byte."""
    first_block = offset // BLOCK
    blocks = []
    for index in range((len(data) + BLOCK - 1) // BLOCK):
        blocks.append(hashlib.sha256(
            key + (first_block + index).to_bytes(8, "big")).digest())
    stream = b"".join(blocks)[:len(data)]
    return bytes(a ^ b for a, b in zip(data, stream))


def _sized(size: int, seed: int) -> bytes:
    return random.Random(seed).randbytes(size)


#: short arbitrary payloads (zero bytes, odd lengths) plus seeded ones
#: up to a little over two chunks
payloads = st.one_of(
    st.binary(max_size=200),
    st.builds(_sized, st.integers(0, 2 * CHUNK_BYTES + 100),
              st.integers(0, 2**32)))
keys = st.binary(min_size=32, max_size=32)
aligned_offsets = st.integers(0, 2**32).map(lambda block: block * BLOCK)


@settings(max_examples=40, deadline=None)
@given(data=payloads, key=keys, offset=aligned_offsets)
@example(data=_sized(2 * CHUNK_BYTES + 45, 1), key=b"k" * 32, offset=0)
@example(data=_sized(CHUNK_BYTES + 1, 2), key=b"k" * 32,
         offset=3 * CHUNK_BYTES)
def test_matches_per_byte_reference(data, key, offset):
    assert keystream_xor(data, key, offset) == reference_xor(data, key,
                                                             offset)


@settings(max_examples=40, deadline=None)
@given(data=payloads, key=keys, offset=aligned_offsets)
def test_xor_is_an_involution(data, key, offset):
    assert keystream_xor(keystream_xor(data, key, offset), key,
                         offset) == data


@settings(max_examples=40, deadline=None)
@given(layer=payloads, key=keys, cut=st.floats(0.0, 1.0))
def test_any_aligned_split_unseals_independently(layer, key, cut):
    split = int(len(layer) * cut) // BLOCK * BLOCK
    sealed = keystream_xor(layer, key)
    assert keystream_xor(layer[split:], key, split) == sealed[split:]
    assert (keystream_xor(sealed[:split], key)
            + keystream_xor(sealed[split:], key, split)) == layer


@settings(max_examples=20, deadline=None)
@given(offset=st.integers(max_value=-1))
@example(offset=-BLOCK)
def test_negative_offsets_are_rejected(offset):
    with pytest.raises(SupplyChainError):
        keystream_xor(b"x" * 64, b"k" * 32, offset)


def test_sealed_bundle_bytes_are_pinned():
    """Every sealed byte of one bundle, odd-sized layers included."""
    bundle = build_image("pin", "v1", SimRng(2024, "supply-pin"),
                         layer_sizes=(2 * CHUNK_BYTES + 1007, 33,
                                      CHUNK_BYTES))
    stored = hashlib.sha256()
    for layer in bundle.manifest.layers:
        assert layer.encrypted
        for chunk in layer.chunks:
            stored.update(bundle.blobs[chunk.digest])
    assert stored.hexdigest() == (
        "72853303299cb9e3d755b9950f628b58f31247b031b797e066be637170e09603")
    assert bundle.manifest.digest == (
        "sha256:f0e51132571be5e230b10b1d26f967db06cf9ad1a4449f4dbc06cf6fa891da38")


_RNG = SimRng(7, "supply-property")
_BUNDLE = build_image("app", "v1", _RNG.child("image"))
_PUBLISHER = derived_keypair(_RNG.child("publisher"), "publisher")
sign_image(_BUNDLE, _PUBLISHER)

chunk_positions = st.sampled_from([
    (layer.index, chunk)
    for layer in _BUNDLE.manifest.layers
    for chunk in range(len(layer.chunks))])


@settings(max_examples=30, deadline=None)
@given(touches=st.lists(chunk_positions, max_size=12))
def test_chunk_faults_count_distinct_cold_chunks(touches):
    registry = Registry()
    registry.push(_BUNDLE)
    ctx = ExecContext(machine=xeon_gold_5515(), rng=SimRng(1, "faults"))
    image = LazyPull(registry, _PUBLISHER.public).pull(
        "app", "v1", InMemoryFileSystem(), ctx, keys=_BUNDLE.keys)
    faulted = [image.access(layer, chunk, ctx) for layer, chunk in touches]
    cold = {(layer, chunk) for layer, chunk in touches if chunk != 0}
    assert image.report.chunk_faults == sum(faulted) == len(cold)
    layers = len(_BUNDLE.manifest.layers)
    assert image.report.chunks_fetched == layers + len(cold)
    assert registry.clean_log_entries() == 1 + layers + len(cold)


def _ctx(seed: int = 1) -> ExecContext:
    return ExecContext(machine=xeon_gold_5515(), rng=SimRng(seed, "unseal"))


@settings(max_examples=25, deadline=None)
@given(data=payloads, key=keys, other_key=keys, offset=aligned_offsets,
       other_offset=aligned_offsets)
@example(data=_sized(CHUNK_BYTES, 3), key=b"a" * 32, other_key=b"b" * 32,
         offset=CHUNK_BYTES, other_offset=2 * CHUNK_BYTES)
def test_memoized_unseal_matches_keystream(data, key, other_key, offset,
                                           other_offset):
    """One ciphertext under two keys, and one key at two offsets: cold
    and from the memo, the plaintext is what the unmemoized kernel
    gives and the charge is the same."""
    strategy = EagerPull(Registry())
    keystream_xor.cache_clear()
    for unseal_key, unseal_offset in ((key, offset), (other_key, offset),
                                      (key, other_offset)):
        expected = image_module._seal(data, unseal_key, unseal_offset)
        ledgers = []
        for _ in range(2):          # cold, then from the memo
            ctx = _ctx()
            assert strategy._unseal(data, unseal_key, unseal_offset, ctx,
                                    PullReport()) == expected
            ledgers.append(ctx.ledger.total())
        assert ledgers[0] == ledgers[1]


@contextlib.contextmanager
def _recording():
    """Record the digest of every unsealed chunk and every unpack."""
    unsealed, unpacked = [], set()
    unseal, unpack = (registry_module._PullStrategy._unseal,
                      registry_module._PullStrategy._unpack)

    def recording_unseal(strategy, data, key, offset, ctx, report):
        unsealed.append(sha256_digest(data))
        return unseal(strategy, data, key, offset, ctx, report)

    def recording_unpack(strategy, fs, manifest, layer, chunk, data, ctx,
                         report):
        unpacked.add((layer.index, chunk.offset))
        return unpack(strategy, fs, manifest, layer, chunk, data, ctx,
                      report)

    with mock.patch.object(registry_module._PullStrategy, "_unseal",
                           recording_unseal), \
            mock.patch.object(registry_module._PullStrategy, "_unpack",
                              recording_unpack):
        yield unsealed, unpacked


@settings(max_examples=12, deadline=None)
@given(position=chunk_positions, strategy=st.sampled_from(["eager",
                                                           "lazy"]))
def test_tampered_chunk_fails_before_unseal_with_warm_memo(position,
                                                           strategy):
    layer_index, chunk_index = position
    chunk = _BUNDLE.manifest.layers[layer_index].chunks[chunk_index]
    registry = Registry()
    registry.push(_BUNDLE)
    # warm the memo with every chunk of the genuine image
    EagerPull(registry, _PUBLISHER.public).pull(
        "app", "v1", InMemoryFileSystem(), _ctx(), keys=_BUNDLE.keys)
    registry.tamper(chunk.digest)
    verified = {c.digest for layer in _BUNDLE.manifest.layers
                for c in layer.chunks}
    fs, ctx = InMemoryFileSystem(), _ctx(2)
    puller = (EagerPull if strategy == "eager" else LazyPull)(
        registry, _PUBLISHER.public)
    with _recording() as (unsealed, unpacked), \
            pytest.raises(ImageVerificationError):
        pulled = puller.pull("app", "v1", fs, ctx, keys=_BUNDLE.keys)
        pulled.access(layer_index, chunk_index, ctx)
    assert set(unsealed) <= verified
    assert (layer_index, chunk.offset) not in unpacked
    assert not fs.exists(
        f"/images/app/v1/layer-{layer_index}/chunk-{chunk.offset}")


_PLAIN = build_image("plain", "v1", _RNG.child("plain"), encrypted=False)

plain_positions = st.sampled_from([
    (layer.index, chunk)
    for layer in _PLAIN.manifest.layers
    for chunk in range(len(layer.chunks))])


@settings(max_examples=16, deadline=None)
@given(position=plain_positions, flip=st.integers(0, CHUNK_BYTES - 1),
       strategy=st.sampled_from(["eager", "lazy"]))
@example(position=(0, 0), flip=0, strategy="lazy")
@example(position=(1, 1), flip=CHUNK_BYTES - 1, strategy="eager")
def test_tampered_plaintext_chunk_fails_with_warm_digest_memo(
        position, flip, strategy):
    """An unsigned plaintext pull has only the digest check between a
    tampered blob and the guest.  The memo keys on content: a
    bytes-equal copy of a blob is served from it, a tampered blob under
    the same expected digest misses it and fails, and undoing the
    tamper is served from it again."""
    layer_index, chunk_index = position
    chunk = _PLAIN.manifest.layers[layer_index].chunks[chunk_index]
    path = f"/images/plain/v1/layer-{layer_index}/chunk-{chunk.offset}"
    registry = Registry()
    registry.push(_PLAIN)
    puller = (EagerPull if strategy == "eager" else LazyPull)(registry)

    def pull(fs):
        ctx = _ctx()
        pulled = puller.pull("plain", "v1", fs, ctx)
        if strategy == "lazy":
            pulled.access(layer_index, chunk_index, ctx)

    memo = image_module.chunk_digest
    memo.cache_clear()
    pull(InMemoryFileSystem())      # warm the memo with the genuine image
    misses = memo.cache_info().misses
    blob = _PLAIN.blobs[chunk.digest]
    copy = bytes(bytearray(blob))
    assert copy is not blob
    registry.push(ImageBundle(_PLAIN.manifest, blobs={chunk.digest: copy}))
    fs = InMemoryFileSystem()
    pull(fs)
    assert fs.exists(path) and memo.cache_info().misses == misses

    registry.tamper(chunk.digest, flip)
    fs = InMemoryFileSystem()
    with _recording() as (_, unpacked), \
            pytest.raises(ImageVerificationError, match="aborting launch"):
        pull(fs)
    assert (layer_index, chunk.offset) not in unpacked
    assert not fs.exists(path)
    assert memo.cache_info().misses == misses + 1

    registry.tamper(chunk.digest, flip)     # the same flip undoes it
    fs = InMemoryFileSystem()
    pull(fs)
    assert fs.exists(path) and memo.cache_info().misses == misses + 1


def _provisioner(registry, kbs, attestor, strategy, key_ids):
    return LaunchProvisioner(
        attestor, registry, kbs, ("app", "v1"),
        publisher_key=_PUBLISHER.public, strategy=strategy,
        key_ids=key_ids)


@settings(max_examples=8, deadline=None)
@given(cause=st.sampled_from(["unknown_key", "attestation"]),
       strategy=st.sampled_from(["eager", "lazy"]))
def test_denied_release_unseals_nothing_with_warm_memo(cause, strategy):
    registry = Registry()
    registry.push(_BUNDLE)
    attestor = LaunchAttestor("tdx", seed=7)
    kbs = KeyBrokerService(attestor.service)
    kbs.register_bundle(_BUNDLE)
    key_ids = _BUNDLE.manifest.key_ids
    # warm the memo through a granted launch of the same image
    _provisioner(registry, kbs, attestor, "eager", key_ids).provision(
        "vm-granted")
    denied = _provisioner(registry, kbs, attestor, strategy,
                          ("ghost",) if cause == "unknown_key"
                          else key_ids)
    make_job = attestor.make_job

    def forged_job(vm_id, ctx):
        job = make_job(vm_id, ctx)
        job.nonce = ctx.rng.child("tampered").bytes(16)
        return job

    with _recording() as (unsealed, unpacked), \
            mock.patch.object(attestor, "make_job",
                              forged_job if cause == "attestation"
                              else make_job), \
            pytest.raises(KeyReleaseDeniedError):
        denied.provision("vm-denied")
    assert unsealed == [] and not unpacked
    assert kbs.stats[f"denied.{cause}"] == 1
    assert denied.stats["aborted"] == 1
