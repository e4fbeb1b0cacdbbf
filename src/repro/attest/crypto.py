"""RSA with SHA-384 signatures: Python protocol logic over one kernel.

This is a *functional* implementation — keys are generated with
Miller–Rabin primality testing, signatures really are modular
exponentiations, and verification fails on tampered messages — sized
for simulation use (default 1024-bit keys keep tests fast; the
infrastructure supports larger).  It is **not** hardened production
cryptography (no blinding, no constant-time Python arithmetic); the
point is to exercise real signing/verification code paths in the
attestation protocols.

Everything but the big modular exponentiations is Python: the prime
search, the padding, Garner's recombination, and the certificate and
collateral logic built on top.  Those exponentiations go through one
kernel, :func:`powmod`, which runs libcrypto's ``BN_mod_exp`` through
:mod:`ctypes` (the OpenSSL that CPython's ``hashlib`` already loads)
and falls back to builtin ``pow`` where it cannot load.  Both give the
same integers, so keys and signatures do not depend on which ran.

The signature scheme follows the PKCS#1 v1.5 shape: the SHA-384
digest is wrapped in a DER-like prefix, padded with ``0x01 0xFF..FF
0x00``, and exponentiated with the private key.  Signing uses the
Chinese Remainder Theorem: two half-size exponentiations modulo the
primes ``p`` and ``q``, recombined with Garner's formula.  The result
is the same integer as ``m^d mod n``, so every signature is
byte-identical to the textbook computation.  A 1024-bit signature
takes about 0.25 ms, against 2.2 ms for CRT over builtin ``pow`` and
5.2 ms for textbook ``pow(m, d, n)`` (2-vCPU host, CPython 3.11).

Keys and the signatures over static documents are memoized per
process (:func:`derived_keypair`, :func:`derived_signature`): both are
pure functions of their inputs, so per-trial infrastructure rebuilds
reuse them.  :meth:`RsaKeyPair.sign` and :meth:`RsaPublicKey.verify`
themselves are never memoized.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import hashlib
import math

from repro.errors import AttestationError
from repro.sim.rng import SimRng

# DigestInfo-style prefix identifying SHA-384 (simplified DER header).
_SHA384_PREFIX = bytes.fromhex("3041300d060960864801650304020205000430")

_SMALL_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)

#: ``_FACTOR_PRODUCT`` holds the primes below this bound; a candidate
#: above it that shares a factor with the product is composite.
_FACTOR_LIMIT = 1 << 14


#: Sonames tried, in order, for OpenSSL's libcrypto: Linux (3.x, then
#: 1.1), macOS, Windows.  CPython's ``_hashlib`` links one of them, so
#: the library is usually mapped already and loading it maps nothing.
#: Never the unversioned name: macOS aborts a process that loads it.
_LIBCRYPTO_NAMES = (
    "libcrypto.so.3", "libcrypto.so.1.1",
    "libcrypto.3.dylib", "libcrypto.1.1.dylib",
    "libcrypto-3-x64.dll", "libcrypto-1_1-x64.dll",
)


# Process-level binding of a shared library: which library loads is
# fixed for the process and no spec can change it, so caching it never
# couples one trial to another.
@functools.lru_cache(maxsize=None)
def _libcrypto():  # confbench: allow[purity]
    """libcrypto's bignum entry points, or ``None`` if none loads.

    Bound on the first :func:`powmod` call, so a process that never
    exponentiates never imports :mod:`ctypes`.  Loads by soname only:
    ``ctypes.util.find_library`` would spawn ``ldconfig``.
    """
    import ctypes

    ptr, cint, buf = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p
    signatures = {    # name: (restype, argtypes)
        "BN_CTX_new": (ptr, []),
        "BN_CTX_free": (None, [ptr]),
        "BN_new": (ptr, []),
        "BN_clear_free": (None, [ptr]),
        "BN_bin2bn": (ptr, [buf, cint, ptr]),
        "BN_bn2binpad": (cint, [ptr, buf, cint]),
        "BN_mod_exp": (cint, [ptr] * 5),
    }
    for name in _LIBCRYPTO_NAMES:
        try:
            lib = ctypes.CDLL(name)
            for symbol, (restype, argtypes) in signatures.items():
                function = getattr(lib, symbol)
                function.restype, function.argtypes = restype, argtypes
        except (OSError, AttributeError):
            continue
        return lib
    return None


def _bn_mod_exp(lib, base: int, exp: int, mod: int) -> int:
    """``base ** exp % mod`` by libcrypto's ``BN_mod_exp``.

    Every ``BIGNUM`` and the ``BN_CTX`` belong to this call, so threads
    (ctypes releases the GIL) never share one; they are cleared and
    freed whatever happens.
    """
    import ctypes

    size = (mod.bit_length() + 7) // 8
    ctx = lib.BN_CTX_new()
    nums = []
    try:
        for value in (base, exp, mod):
            raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
            nums.append(lib.BN_bin2bn(raw, len(raw), None))
        nums.append(lib.BN_new())
        if not ctx or not all(nums):
            raise MemoryError("libcrypto could not allocate a BIGNUM")
        a, p, m, r = nums
        if lib.BN_mod_exp(r, a, p, m, ctx) != 1:
            raise ValueError("BN_mod_exp failed")
        out = ctypes.create_string_buffer(size)
        lib.BN_bn2binpad(r, out, size)
        return int.from_bytes(out.raw, "big")
    finally:
        for num in nums:
            if num:
                lib.BN_clear_free(num)
        lib.BN_CTX_free(ctx)


def powmod(base: int, exp: int, mod: int) -> int:
    """``pow(base, exp, mod)`` for ``base, exp >= 0`` and ``mod >= 1``.

    The one exponentiation kernel of this module: libcrypto's
    ``BN_mod_exp``, about ten times faster than builtin ``pow`` at 512
    bits and the same integer, or builtin ``pow`` where libcrypto does
    not load.  A call costs 15-20 us more than ``pow``, so only the
    full-size exponentiations use it.
    """
    if mod < 1 or base < 0 or exp < 0:
        raise ValueError("powmod needs base, exp >= 0 and mod >= 1")
    lib = _libcrypto()
    if lib is None:
        return pow(base, exp, mod)
    return _bn_mod_exp(lib, base, exp, mod)


def _primes_below(limit: int) -> list[int]:
    """The primes below ``limit`` (sieve of Eratosthenes)."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    return [i for i, is_prime in enumerate(sieve) if is_prime]


#: The product of the primes in 127..2^14, those past ``_SMALL_PRIMES``.
_FACTOR_PRODUCT = math.prod(p for p in _primes_below(_FACTOR_LIMIT)
                            if p > _SMALL_PRIMES[-1])


def _round_can_pass(a: int, d: int, r: int, m: int) -> bool:
    """Whether a Miller–Rabin round with witness ``a`` passes mod ``m``.

    For a factor ``m`` of ``n`` this is necessary for the round to pass
    mod ``n``: ``x = 1`` or ``x = n - 1`` implies ``x = 1`` or
    ``x = m - 1`` modulo ``m``, at every squaring.
    """
    x = pow(a, d, m)
    if x == 1 or x == m - 1:
        return True
    for _ in range(r - 1):
        x = x * x % m
        if x == m - 1:
            return True
    return False


def _is_probable_prime(n: int, rng: SimRng, rounds: int = 24) -> bool:
    """Miller–Rabin primality test.

    A candidate with a prime factor in 127..2^14 is decided by round
    1's witness modulo that factor part ``g``, a few-bit ``pow``
    instead of a full-size one.  Only a witness that passes mod ``g``
    goes on to the full round.  The verdict and the stream's draws are
    exactly those of the plain test, so every generated key is too.
    """
    if n < 2:
        return False
    if n == 2:
        return True
    if n % 2 == 0:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # write n - 1 = d * 2^r with d odd
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    g = math.gcd(n, _FACTOR_PRODUCT) if n > _FACTOR_LIMIT else 1
    for i in range(rounds):
        a = rng.randint(2, n - 2)
        if i == 0 and g > 1 and not _round_can_pass(a, d, r, g):
            return False
        x = powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits: int, rng: SimRng) -> int:
    """A random probable prime with exactly ``bits`` bits."""
    if bits < 8:
        raise AttestationError(f"prime size too small: {bits} bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1   # top bit + odd
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RsaPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def byte_length(self) -> int:
        return (self.bits + 7) // 8

    def fingerprint(self) -> str:
        """Stable hex identifier of this key."""
        material = f"{self.n:x}:{self.e:x}".encode()
        return hashlib.sha256(material).hexdigest()[:24]

    def verify(self, message: bytes, signature: bytes) -> bool:
        """True iff ``signature`` is a valid signature of ``message``."""
        if len(signature) != self.byte_length:
            return False
        sig_int = int.from_bytes(signature, "big")
        if sig_int >= self.n:
            return False
        recovered = powmod(sig_int, self.e, self.n)
        expected = int.from_bytes(_pad_digest(message, self.byte_length), "big")
        return recovered == expected


@dataclass(frozen=True, repr=False)
class RsaKeyPair:
    """An RSA key pair; keep the private half private.

    Besides the private exponent ``d`` the pair holds its CRT form:
    the primes ``p`` and ``q``, ``dp = d mod (p-1)``, ``dq = d mod
    (q-1)`` and ``qinv = q^-1 mod p``.  They are as secret as ``d``:
    either prime factors the modulus, and ``dp`` or ``dq`` yields one.
    """

    public: RsaPublicKey
    d: int
    p: int
    q: int
    dp: int
    dq: int
    qinv: int

    def __post_init__(self) -> None:
        # CRT parts that disagree with (n, d) would sign wrong bytes
        # that only a later verify notices; refuse them once, here
        if not (self.p * self.q == self.public.n
                and self.dp == self.d % (self.p - 1)
                and self.dq == self.d % (self.q - 1)
                and (self.qinv * self.q) % self.p == 1):
            raise AttestationError(
                "RSA key pair CRT parameters disagree with (n, d)")

    def __repr__(self) -> str:
        # never include d or the primes: a stray repr in a log line,
        # exception message, or journal record must not leak the
        # private half
        return (f"RsaKeyPair(fingerprint={self.public.fingerprint()}, "
                f"bits={self.public.bits})")

    def sign(self, message: bytes) -> bytes:
        """PKCS#1 v1.5-style SHA-384 signature of ``message``."""
        k = self.public.byte_length
        m = int.from_bytes(_pad_digest(message, k), "big")
        p, q = self.p, self.q
        mp = powmod(m % p, self.dp, p)
        mq = powmod(m % q, self.dq, q)
        # Garner recombination: the unique s < n with s = mp (mod p)
        # and s = mq (mod q), which is m^d mod n
        signature = mq + q * ((self.qinv * (mp - mq)) % p)
        return signature.to_bytes(k, "big")


def _pad_digest(message: bytes, k: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of the SHA-384 digest of ``message``."""
    digest = hashlib.sha384(message).digest()
    t = _SHA384_PREFIX + digest
    if k < len(t) + 11:
        raise AttestationError(
            f"modulus too small ({k} bytes) for SHA-384 signatures"
        )
    padding = b"\xff" * (k - len(t) - 3)
    return b"\x00\x01" + padding + b"\x00" + t


def generate_keypair(rng: SimRng, bits: int = 1024, e: int = 65537) -> RsaKeyPair:
    """Generate an RSA key pair from a deterministic stream.

    Parameters
    ----------
    rng:
        Seeded stream; the same stream state yields the same key.
    bits:
        Modulus size.  1024 keeps simulation tests fast; use 2048+
        where realism matters more than speed.
    e:
        Public exponent.
    """
    if bits < 768:
        # SHA-384 PKCS#1 v1.5 padding needs >= 78 modulus bytes
        raise AttestationError(f"refusing to generate {bits}-bit RSA keys (< 768)")
    half = bits // 2
    while True:
        p = _generate_prime(half, rng)
        q = _generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = pow(e, -1, phi)
        except ValueError:
            continue   # e not invertible mod phi; rare, retry
        return RsaKeyPair(public=RsaPublicKey(n=n, e=e), d=d, p=p, q=q,
                          dp=d % (p - 1), dq=d % (q - 1),
                          qinv=pow(q, -1, p))


#: Process-level cache for :func:`derived_keypair`.  Keyed by the
#: parent stream's (seed, label) plus the child label and key size —
#: which fully determine the generated key, because child streams are
#: label-derived (fresh state) rather than split off the parent's
#: consumed state.
_KEYPAIR_CACHE: dict[tuple[int, str, str, int], RsaKeyPair] = {}


def derived_keypair(parent: SimRng, label: str,
                    bits: int = 1024) -> RsaKeyPair:
    """``generate_keypair(parent.child(label), bits)``, memoized.

    Miller-Rabin prime generation in pure Python is the wall-clock
    hot spot of attestation infrastructure bring-up; since the result
    is a pure function of ``(parent.seed, parent.label, label, bits)``
    it is cached per process, so per-trial infrastructure rebuilds
    (the runner pipeline's purity requirement) stop paying for keygen.
    """
    key = (parent.seed, parent.label, label, bits)
    cached = _KEYPAIR_CACHE.get(key)
    if cached is None:
        cached = generate_keypair(parent.child(label), bits)
        # Pure-function memo: the key fully determines the value, so
        # hitting the cache never couples one trial to another.
        _KEYPAIR_CACHE[key] = cached  # confbench: allow[purity]
    return cached


#: Entries :func:`derived_signature` keeps, the runner's body-cache
#: bound.  A sweep signs a few dozen distinct static documents.
SIGNATURE_CACHE_SIZE = 1024


# Pure-function memo: (pair, message) fully determines the signature,
# so hitting the cache never couples one trial to another.
@functools.lru_cache(maxsize=SIGNATURE_CACHE_SIZE)
def derived_signature(pair: RsaKeyPair, message: bytes) -> bytes:  # confbench: allow[purity]
    """``pair.sign(message)``, memoized per process.

    For the static documents an attestation infrastructure signs at
    provisioning time: CA certificates, the QE attestation-key
    certificate, the PCS TCB info and QE identity.  Every rebuild of
    the infrastructure (one per trial) signs the same bytes with the
    same derived key again.  The signature is a pure function of
    ``(pair, message)``, and the key compares by value, so a hit
    returns exactly the bytes a fresh ``sign`` would.  Per-launch
    evidence, timestamped CRLs and image manifests sign on every call.
    """
    return pair.sign(message)


# Virtual-time cost constants for the attestation experiment.  Real
# hardware does RSA/ECDSA far faster than pure Python, so the bench
# charges these calibrated figures instead of wall-clock time.
SIGN_COST_NS = 1_350_000.0      # one signature (~1.35 ms, SW crypto)
VERIFY_COST_NS = 110_000.0      # one verification (~0.11 ms, e = 65537)
DIGEST_COST_PER_BYTE_NS = 3.1   # hashing throughput
