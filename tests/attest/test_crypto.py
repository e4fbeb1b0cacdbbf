"""Tests for the RSA implementation and its exponentiation kernel."""

import contextlib
import dataclasses
import functools
import hashlib
import os
import random
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.attest import crypto
from repro.attest.crypto import (
    RsaKeyPair,
    RsaPublicKey,
    _is_probable_prime,
    _generate_prime,
    _pad_digest,
    _primes_below,
    derived_keypair,
    derived_signature,
    generate_keypair,
    powmod,
)
from repro.core.runner import BODY_CACHE_SIZE
from repro.errors import AttestationError
from repro.sim.rng import SimRng


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(SimRng(42, "crypto-tests"), bits=1024)


class TestPrimality:
    def test_known_primes(self):
        rng = SimRng(1)
        for p in (2, 3, 5, 7, 104729, 2**31 - 1):
            assert _is_probable_prime(p, rng), p

    def test_known_composites(self):
        rng = SimRng(1)
        for c in (0, 1, 4, 9, 561, 104730, 2**32):
            assert not _is_probable_prime(c, rng), c

    def test_carmichael_numbers_rejected(self):
        rng = SimRng(1)
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601):
            assert not _is_probable_prime(carmichael, rng), carmichael

    def test_generated_prime_has_exact_bits(self):
        prime = _generate_prime(128, SimRng(2))
        assert prime.bit_length() == 128
        assert prime % 2 == 1

    def test_tiny_prime_size_rejected(self):
        with pytest.raises(AttestationError):
            _generate_prime(4, SimRng(1))


def _oracle_is_probable_prime(n: int, rng: SimRng, rounds: int = 24) -> bool:
    """The Miller–Rabin test as it stood before the factor prefilter."""
    if n < 2:
        return False
    if n == 2:
        return True
    if n % 2 == 0:
        return False
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113):
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randint(2, n - 2)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


_SIEVED = _primes_below(1 << 16)
#: Primes the prefilter divides out: past the small-prime loop, to 2^14.
_FACTOR_PRIMES = [p for p in _SIEVED if 113 < p <= 1 << 14]
_LARGE_PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1, 2**127 - 1,
                 1_000_000_007, 998_244_353)
#: Chernick's (6k+1)(12k+1)(18k+1) is a Carmichael number whenever all
#: three factors are prime; many factors fall in the prefilter's range.
_CARMICHAELS = tuple(
    (6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in range(1, 2000)
    if all(_oracle_is_probable_prime(f, SimRng(0))
           for f in (6 * k + 1, 12 * k + 1, 18 * k + 1))
) + (561, 1105, 1729, 2465, 2821, 6601, 8911, 314821, 410041)
#: Strong pseudoprimes to base 2 (and, the last three, to many bases).
_STRONG_PSEUDOPRIMES = (
    2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633,
    65281, 74665, 80581, 85489, 88357, 90751, 3215031751,
    3825123056546413051, 318665857834031151167461)

#: p·q with p, q in 127..2^14 where round 1 passes for 3-13% of the
#: witnesses, often only at the last squaring: the mod-g round must
#: square exactly as often as the full one.
_LIAR_RICH = (49141, 81317, 88357, 104653, 118301, 226801, 250717, 302177)

_candidates = st.one_of(
    st.sampled_from(_LIAR_RICH),
    st.sampled_from(_SIEVED[-200:] + list(_LARGE_PRIMES)),
    st.builds(lambda p, m: p * m, st.sampled_from(_FACTOR_PRIMES),
              st.integers(2, 1 << 80)),
    st.sampled_from(_FACTOR_PRIMES + list(_LARGE_PRIMES)).map(
        lambda p: p * p),
    st.sampled_from(_CARMICHAELS),
    st.sampled_from(_STRONG_PSEUDOPRIMES),
    st.integers(0, 1 << 14),
)


class TestPrimalityPrefilter:
    @settings(max_examples=400, deadline=None)
    @given(n=_candidates, seed=st.integers(0, 1000),
           rounds=st.sampled_from((0, 1, 2, 24)))
    def test_same_verdict_and_draws_as_the_plain_test(self, n, seed,
                                                      rounds):
        expected_rng, rng = SimRng(seed, "mr"), SimRng(seed, "mr")
        expected = _oracle_is_probable_prime(n, expected_rng, rounds)
        assert _is_probable_prime(n, rng, rounds) == expected
        assert rng.raw_random().getstate() == \
            expected_rng.raw_random().getstate()


class TestKeyGeneration:
    def test_deterministic_for_seed(self):
        a = generate_keypair(SimRng(7, "x"), bits=768)
        b = generate_keypair(SimRng(7, "x"), bits=768)
        assert a.public.n == b.public.n
        assert a.d == b.d

    def test_different_seeds_different_keys(self):
        a = generate_keypair(SimRng(7, "x"), bits=768)
        b = generate_keypair(SimRng(8, "x"), bits=768)
        assert a.public.n != b.public.n

    def test_modulus_size(self, keypair):
        assert keypair.public.bits == 1024
        assert keypair.public.byte_length == 128

    def test_rejects_weak_keys(self):
        with pytest.raises(AttestationError):
            generate_keypair(SimRng(1), bits=256)

    def test_fingerprint_stable_and_distinct(self):
        a = generate_keypair(SimRng(1, "fp"), bits=768)
        b = generate_keypair(SimRng(2, "fp"), bits=768)
        assert a.public.fingerprint() == a.public.fingerprint()
        assert a.public.fingerprint() != b.public.fingerprint()


class TestSignatures:
    def test_sign_verify_round_trip(self, keypair):
        message = b"attestation evidence"
        signature = keypair.sign(message)
        assert keypair.public.verify(message, signature)

    def test_tampered_message_rejected(self, keypair):
        signature = keypair.sign(b"original")
        assert not keypair.public.verify(b"tampered", signature)

    def test_tampered_signature_rejected(self, keypair):
        signature = bytearray(keypair.sign(b"msg"))
        signature[10] ^= 0xFF
        assert not keypair.public.verify(b"msg", bytes(signature))

    def test_wrong_key_rejected(self, keypair):
        other = generate_keypair(SimRng(99, "other"), bits=1024)
        signature = keypair.sign(b"msg")
        assert not other.public.verify(b"msg", signature)

    def test_wrong_length_signature_rejected(self, keypair):
        assert not keypair.public.verify(b"msg", b"short")

    def test_signature_of_empty_message(self, keypair):
        signature = keypair.sign(b"")
        assert keypair.public.verify(b"", signature)

    def test_oversized_signature_int_rejected(self, keypair):
        too_big = (keypair.public.n + 1).to_bytes(
            keypair.public.byte_length + 1, "big"
        )[-keypair.public.byte_length:]
        # construct a value >= n of correct byte length
        value = keypair.public.n | (1 << (keypair.public.bits - 1))
        raw = value.to_bytes(keypair.public.byte_length, "big")
        assert not keypair.public.verify(b"msg", raw)
        assert not keypair.public.verify(b"msg", too_big)

    @settings(max_examples=15, deadline=None)
    @given(message=st.binary(max_size=200))
    def test_round_trip_property(self, keypair, message):
        """Property: every signed message verifies with the right key."""
        assert keypair.public.verify(message, keypair.sign(message))

    def test_signatures_differ_across_messages(self, keypair):
        assert keypair.sign(b"a") != keypair.sign(b"b")

    def test_public_key_equality(self):
        key = RsaPublicKey(n=91, e=5)
        assert key == RsaPublicKey(n=91, e=5)


@functools.lru_cache(maxsize=None)
def _sized_keypair(bits: int) -> RsaKeyPair:
    return generate_keypair(SimRng(5, f"crt/{bits}"), bits=bits)


def _textbook_sign(pair: RsaKeyPair, message: bytes) -> bytes:
    """The oracle: the full-modulus ``m^d mod n`` CRT signing must equal."""
    k = pair.public.byte_length
    padded = int.from_bytes(_pad_digest(message, k), "big")
    return pow(padded, pair.d, pair.public.n).to_bytes(k, "big")


#: Parent-computed identity of ``generate_keypair(SimRng(0, "pin"),
#: 1024)``: its fingerprint, and the sha256 over its signatures of
#: ``PIN_MESSAGES``.  Any change to keygen draws or to signature bytes
#: moves one of them.
PIN_FINGERPRINT = "4d81db7442e2f8ef9a87eff3"
PIN_SIGNATURES_SHA256 = (
    "60ef25575fb0bba34f9e9ebe426b8d3b3b9079993ba6b8f4be425b42ceac8caa")
PIN_MESSAGES = tuple(f"pin-message-{i}".encode() for i in range(32))


class TestDerivedSignature:
    @pytest.mark.parametrize("bits", [768, 769, 1024, 1025])
    def test_equals_sign_on_miss_and_hit(self, bits):
        pair = _sized_keypair(bits)
        for message in (b"", b"tbs", *PIN_MESSAGES[:4]):
            expected = pair.sign(message)
            assert derived_signature(pair, message) == expected
            assert derived_signature(pair, message) == expected

    def test_equal_keys_share_an_entry(self):
        pair = _sized_keypair(1024)
        message = b"static document"
        derived_signature(pair, message)
        hits = derived_signature.cache_info().hits
        assert derived_signature(dataclasses.replace(pair), message) == \
            pair.sign(message)
        assert derived_signature.cache_info().hits == hits + 1

    def test_memo_bound_is_the_body_cache_bound(self):
        assert derived_signature.cache_info().maxsize == BODY_CACHE_SIZE


class TestCrtSigning:
    # 769 and 1025 bits give p and q of different sizes
    @pytest.mark.parametrize("bits", [768, 769, 1024, 1025])
    @settings(max_examples=20, deadline=None)
    @given(message=st.binary(max_size=300))
    def test_sign_equals_textbook_exponentiation(self, bits, message):
        pair = _sized_keypair(bits)
        assert pair.public.bits == bits
        assert pair.sign(message) == _textbook_sign(pair, message)

    @pytest.mark.parametrize("bits", [769, 1025])
    def test_odd_sizes_have_unbalanced_primes(self, bits):
        pair = _sized_keypair(bits)
        assert pair.p.bit_length() != pair.q.bit_length()

    def test_keygen_and_signature_bytes_pinned(self):
        pair = generate_keypair(SimRng(0, "pin"), 1024)
        assert pair.public.fingerprint() == PIN_FINGERPRINT
        digest = hashlib.sha256()
        for message in PIN_MESSAGES:
            digest.update(pair.sign(message))
        assert digest.hexdigest() == PIN_SIGNATURES_SHA256

    @pytest.mark.parametrize("tamper", [
        lambda pair: {"p": pair.p + 2},
        lambda pair: {"q": pair.q + 2},
        lambda pair: {"d": pair.d + 2},
        lambda pair: {"dp": pair.dp + 1},
        lambda pair: {"dq": pair.dq + 1},
        lambda pair: {"qinv": pair.qinv + 1},
        lambda pair: {"p": pair.q, "q": pair.p},
    ], ids=["p", "q", "d", "dp", "dq", "qinv", "swapped-primes"])
    def test_inconsistent_crt_parts_rejected(self, keypair, tamper):
        with pytest.raises(AttestationError, match="CRT"):
            dataclasses.replace(keypair, **tamper(keypair))

    def test_repr_hides_crt_parts(self, keypair):
        text = repr(keypair)
        for secret in (keypair.d, keypair.p, keypair.q, keypair.dp,
                       keypair.dq, keypair.qinv):
            assert str(secret) not in text


def _builtin_kernel():
    """Force :func:`powmod` onto its builtin ``pow`` fallback."""
    return mock.patch.object(crypto, "_libcrypto", lambda: None)


def _libcrypto_kernel():
    if crypto._libcrypto() is None:
        pytest.skip("libcrypto does not load on this host")
    return contextlib.nullcontext()


KERNELS = {"libcrypto": _libcrypto_kernel, "builtin": _builtin_kernel}


@st.composite
def _operands(draw):
    """``(base, exp, mod)`` of 1 to 2048 bits; ``base`` may exceed
    ``mod``, and ``mod`` may be 1 or even."""
    bits = draw(st.integers(1, 2048))
    mod = draw(st.one_of(st.just(1), st.integers(1, (1 << bits) - 1)))
    base = draw(st.one_of(st.just(0), st.integers(0, (1 << (bits + 8)) - 1)))
    exp = draw(st.one_of(st.just(0), st.integers(0, (1 << bits) - 1)))
    return base, exp, mod


class TestPowmod:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @settings(max_examples=120, deadline=None)
    @given(operands=_operands())
    @example(operands=(5, 3, 1))
    @example(operands=(0, 0, 1))
    @example(operands=(7, 0, 13))
    @example(operands=(0, 9, 13))
    @example(operands=(1 << 1030, 65537, (1 << 1024) - 1))
    @example(operands=(3, (1 << 512) + 1, 1 << 512))
    def test_equals_builtin_pow(self, kernel, operands):
        with KERNELS[kernel]():
            assert powmod(*operands) == pow(*operands)

    @pytest.mark.parametrize("operands", [(2, 3, 0), (-2, 3, 7),
                                          (2, -3, 7)])
    def test_rejects_operands_outside_its_domain(self, operands):
        with pytest.raises(ValueError):
            powmod(*operands)

    def test_threads_get_correct_results(self):
        rng = random.Random(7)
        cases = [(rng.getrandbits(1024), rng.getrandbits(512),
                  rng.getrandbits(512) | 1) for _ in range(40)]
        expected = [pow(*case) for case in cases]
        wrong = []

        def worker(offset):
            for i in range(200):
                j = (i + offset) % len(cases)
                if powmod(*cases[j]) != expected[j]:
                    wrong.append(j)

        threads = [threading.Thread(target=worker, args=(k * 10,))
                   for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_builtin_fallback_gives_the_same_keys_and_signatures(
            self, monkeypatch):
        def digest():
            parent = SimRng(11, "kernel")
            h = hashlib.sha256()
            for label in ("a", "b", "c", "d"):
                pair = derived_keypair(parent, label)
                h.update(f"{pair.public.n:x}:{pair.d:x}".encode())
                for message in PIN_MESSAGES[:4]:
                    signature = pair.sign(message)
                    assert pair.public.verify(message, signature)
                    h.update(signature)
            return h.hexdigest()

        monkeypatch.setattr(crypto, "_KEYPAIR_CACHE", {})
        native = digest()
        monkeypatch.setattr(crypto, "_KEYPAIR_CACHE", {})
        with _builtin_kernel():
            assert digest() == native

    def test_ctypes_is_imported_on_the_first_call(self):
        """Binding is lazy: a process that imports the module but never
        exponentiates never imports :mod:`ctypes`."""
        code = ("import sys\n"
                "import repro.attest.crypto as crypto\n"
                "assert 'ctypes' not in sys.modules\n"
                "assert crypto.powmod(3, 5, 7) == 5\n"
                "assert 'ctypes' in sys.modules\n")
        src = Path(crypto.__file__).resolve().parents[2]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestExponentiationCounts:
    def test_sign_is_two_half_size_calls_and_verify_one(self, keypair,
                                                         monkeypatch):
        """CRT signing exponentiates modulo ``p`` and modulo ``q``, at
        half the modulus bits; textbook ``m^d mod n`` would make one
        full-size call.  Verifying makes one call with exponent e."""
        calls = []

        def recording(base, exp, mod):
            calls.append((exp, mod))
            return powmod(base, exp, mod)

        monkeypatch.setattr(crypto, "powmod", recording)
        half = keypair.public.bits // 2
        for message in PIN_MESSAGES[:8]:
            calls.clear()
            signature = keypair.sign(message)
            assert calls == [(keypair.dp, keypair.p), (keypair.dq, keypair.q)]
            assert [mod.bit_length() for _, mod in calls] == [half, half]
            calls.clear()
            assert keypair.public.verify(message, signature)
            assert calls == [(keypair.public.e, keypair.public.n)]
