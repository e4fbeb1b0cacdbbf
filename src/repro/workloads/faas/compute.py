"""CPU-bound FaaS functions.

Includes the paper's named examples (``cpustress``, ``factors``,
``ack``) plus classic FaaSdom / Lua-Benchmarks / wasmi-benchmarks
kernels (fibonacci, primes, mandelbrot, n-body, spectral norm,
fannkuch, matrix multiply).  Each computes a real, testable result at
its configured size and charges compute units proportional to the
actual operation counts.

Where the real computation is plain host arithmetic it is a pure
``_<name>_kernel`` of the integer args, memoized per process; the body
charges the session from the kernel's counts on every trial.  The
``allow[purity]`` pragma on each kernel rests on that purity: its
``lru_cache`` key is its whole input.
"""

from __future__ import annotations

import functools
import math
from typing import Any

from repro.runtimes.base import RuntimeSession
from repro.workloads.base import KERNEL_CACHE_SIZE, FaasWorkload, WorkloadTrait


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _cpustress_kernel(iterations: int) -> float:  # confbench: allow[purity]
    """Sum of the loop's iterates."""
    accumulator = 0.0
    x = 0.5
    for i in range(iterations):
        x = math.sin(x) * math.cos(x) + math.sqrt(abs(x) + 1.0)
        accumulator += x * 1.0000001
    return accumulator


def cpustress(session: RuntimeSession, args: dict[str, Any]) -> dict[str, float]:
    """Intensive trigonometric + arithmetic loop (paper §IV-D)."""
    iterations = int(args["iterations"])
    accumulator = _cpustress_kernel(iterations)
    session.compute(iterations * 14)   # ~14 flops-equivalents per round
    return {"sum": accumulator, "iterations": iterations}


def factors(session: RuntimeSession, args: dict[str, Any]) -> list[int]:
    """Compute the factors of a number (paper §IV-D)."""
    n = int(args["n"])
    found = []
    i = 1
    steps = 0
    while i * i <= n:
        steps += 1
        if n % i == 0:
            found.append(i)
            if i != n // i:
                found.append(n // i)
        i += 1
    session.compute(steps * 6)
    return sorted(found)


def ackermann(session: RuntimeSession, args: dict[str, Any]) -> int:
    """The Ackermann function ('ack' in Fig. 6) — deep recursion."""
    m, n = int(args["m"]), int(args["n"])
    calls = 0

    def ack(m_: int, n_: int) -> int:
        nonlocal calls
        calls += 1
        if m_ == 0:
            return n_ + 1
        if n_ == 0:
            return ack(m_ - 1, 1)
        return ack(m_ - 1, ack(m_, n_ - 1))

    value = ack(m, n)
    session.compute(calls * 9)   # call overhead dominates
    return value


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _fibonacci_kernel(n: int) -> tuple[int, int]:  # confbench: allow[purity]
    """``(fib(n), calls)``."""
    calls = 0

    def fib(k: int) -> int:
        nonlocal calls
        calls += 1
        if k < 2:
            return k
        return fib(k - 1) + fib(k - 2)

    value = fib(n)
    return value, calls


def fibonacci(session: RuntimeSession, args: dict[str, Any]) -> int:
    """Naive recursive Fibonacci (wasmi-benchmarks staple)."""
    value, calls = _fibonacci_kernel(int(args["n"]))
    session.compute(calls * 7)
    return value


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _primes_kernel(limit: int) -> tuple[int, int]:  # confbench: allow[purity]
    """``(primes up to limit, sieve stores)``."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\0\0"
    ops = 0
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = 0
                ops += 1
    return sum(sieve), ops


def primes(session: RuntimeSession, args: dict[str, Any]) -> dict[str, int]:
    """Sieve of Eratosthenes (Lua-Benchmarks 'sieve')."""
    limit = int(args["limit"])
    count, ops = _primes_kernel(limit)
    session.allocate(limit + 1)
    session.compute(ops * 3 + limit)
    return {"limit": limit, "count": count}


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _mandelbrot_kernel(size: int, max_iter: int) -> tuple[int, int]:  # confbench: allow[purity]
    """``(points inside, total iterations)``."""
    inside = 0
    total_iters = 0
    for py in range(size):
        y0 = py * 2.0 / size - 1.0
        for px in range(size):
            x0 = px * 3.0 / size - 2.0
            x = y = 0.0
            i = 0
            while x * x + y * y <= 4.0 and i < max_iter:
                x, y = x * x - y * y + x0, 2.0 * x * y + y0
                i += 1
            total_iters += i
            if i == max_iter:
                inside += 1
    return inside, total_iters


def mandelbrot(session: RuntimeSession, args: dict[str, Any]) -> int:
    """Mandelbrot membership over a small grid (Lua-Benchmarks 'mandel')."""
    inside, total_iters = _mandelbrot_kernel(int(args["size"]),
                                             int(args["max_iter"]))
    session.compute(total_iters * 10)
    return inside


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _nbody_kernel(steps: int) -> tuple[float, int]:  # confbench: allow[purity]
    """``(kinetic energy, pair interactions)``."""
    bodies = [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4 * math.pi ** 2],     # sun
        [4.84, -1.16, -0.10, 0.606, 2.81, -0.02, 9.5e-4],      # jupiter-ish
        [8.34, 4.12, -0.40, -1.01, 1.82, 0.008, 2.8e-4],       # saturn-ish
    ]
    dt = 0.01
    interactions = 0
    for _ in range(steps):
        for i in range(len(bodies)):
            for j in range(i + 1, len(bodies)):
                interactions += 1
                bi, bj = bodies[i], bodies[j]
                dx, dy, dz = bi[0] - bj[0], bi[1] - bj[1], bi[2] - bj[2]
                dist_sq = dx * dx + dy * dy + dz * dz + 1e-9
                mag = dt / (dist_sq * math.sqrt(dist_sq))
                for axis, delta in enumerate((dx, dy, dz)):
                    bi[3 + axis] -= delta * bj[6] * mag
                    bj[3 + axis] += delta * bi[6] * mag
        for body in bodies:
            body[0] += dt * body[3]
            body[1] += dt * body[4]
            body[2] += dt * body[5]
    energy = 0.0
    for i in range(len(bodies)):
        bi = bodies[i]
        energy += 0.5 * bi[6] * (bi[3] ** 2 + bi[4] ** 2 + bi[5] ** 2)
    return energy, interactions


def nbody(session: RuntimeSession, args: dict[str, Any]) -> dict[str, float]:
    """Planetary n-body energy simulation (shootout/wasmi kernel)."""
    steps = int(args["steps"])
    energy, interactions = _nbody_kernel(steps)
    session.compute(interactions * 30 + steps * 12)
    return {"steps": steps, "energy": energy}


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _spectralnorm_kernel(n: int, iterations: int) -> tuple[float, int]:  # confbench: allow[purity]
    """``(spectral norm, matrix-element products)``."""

    def a(i: int, j: int) -> float:
        return 1.0 / ((i + j) * (i + j + 1) / 2 + i + 1)

    u = [1.0] * n
    v = [0.0] * n
    ops = 0
    for _ in range(iterations):
        for i in range(n):
            v[i] = sum(a(i, j) * u[j] for j in range(n))
            ops += n
        for i in range(n):
            u[i] = sum(a(j, i) * v[j] for j in range(n))
            ops += n
    vbv = sum(ui * vi for ui, vi in zip(u, v))
    vv = sum(vi * vi for vi in v)
    return math.sqrt(vbv / vv), ops


def spectralnorm(session: RuntimeSession, args: dict[str, Any]) -> float:
    """Spectral norm power iteration (shootout kernel)."""
    norm, ops = _spectralnorm_kernel(int(args["n"]), int(args["iterations"]))
    session.compute(ops * 8)
    return norm


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _fannkuch_kernel(n: int) -> tuple[int, int]:  # confbench: allow[purity]
    """``(max flips, total flips)``."""
    perm = list(range(n))
    count = [0] * n
    max_flips = 0
    total_flips = 0
    r = n
    while True:
        while r > 1:
            count[r - 1] = r
            r -= 1
        if perm[0] != 0:
            current = perm[:]
            flips = 0
            while current[0] != 0:
                k = current[0]
                current[: k + 1] = current[k::-1]
                flips += 1
            total_flips += flips
            max_flips = max(max_flips, flips)
        while True:
            if r == n:
                return max_flips, total_flips
            perm.insert(r, perm.pop(0))
            count[r] -= 1
            if count[r] > 0:
                break
            r += 1


def fannkuch(session: RuntimeSession, args: dict[str, Any]) -> int:
    """Fannkuch permutation flipping (shootout kernel), returns max flips."""
    max_flips, total_flips = _fannkuch_kernel(int(args["n"]))
    session.compute(total_flips * 12 + 50)
    return max_flips


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _matrix_kernel(n: int) -> float:  # confbench: allow[purity]
    """Trace of the product of the two generated ``n x n`` matrices."""
    a = [[(i * n + j) % 7 + 1.0 for j in range(n)] for i in range(n)]
    b = [[(i + j) % 5 + 1.0 for j in range(n)] for i in range(n)]
    c = [[0.0] * n for _ in range(n)]
    for i in range(n):
        row_a = a[i]
        row_c = c[i]
        for k in range(n):
            aik = row_a[k]
            row_b = b[k]
            for j in range(n):
                row_c[j] += aik * row_b[j]
    return sum(c[i][i] for i in range(n))


def matrix_multiply(session: RuntimeSession, args: dict[str, Any]) -> float:
    """Dense matrix multiplication; returns the result's trace."""
    n = int(args["n"])
    trace = _matrix_kernel(n)
    session.allocate(3 * n * n * 8)
    session.compute(n * n * n * 4, working_set_bytes=3 * n * n * 8)
    return trace


def juliaset(session: RuntimeSession, args: dict[str, Any]) -> int:
    """Julia set membership grid (Lua-Benchmarks kernel)."""
    size = int(args["size"])
    max_iter = int(args["max_iter"])
    c_re, c_im = -0.7, 0.27015
    inside = 0
    total = 0
    for py in range(size):
        for px in range(size):
            zx = 1.5 * (px - size / 2) / (0.5 * size)
            zy = (py - size / 2) / (0.5 * size)
            i = 0
            while zx * zx + zy * zy < 4.0 and i < max_iter:
                zx, zy = zx * zx - zy * zy + c_re, 2.0 * zx * zy + c_im
                i += 1
            total += i
            if i == max_iter:
                inside += 1
    session.compute(total * 10)
    return inside


COMPUTE_WORKLOADS = [
    FaasWorkload(
        name="cpustress",
        trait=WorkloadTrait.CPU,
        description="intensive trigonometric and arithmetic loop",
        fn=cpustress,
        default_args={"iterations": 6000},
        origin="paper §IV-D",
    ),
    FaasWorkload(
        name="factors",
        trait=WorkloadTrait.CPU,
        description="compute the factors of a number",
        fn=factors,
        default_args={"n": 1_234_567},
        origin="paper §IV-D",
    ),
    FaasWorkload(
        name="ack",
        trait=WorkloadTrait.CPU,
        description="Ackermann function (deep recursion)",
        fn=ackermann,
        default_args={"m": 2, "n": 4},
        origin="Lua-Benchmarks",
    ),
    FaasWorkload(
        name="fibonacci",
        trait=WorkloadTrait.CPU,
        description="naive recursive Fibonacci",
        fn=fibonacci,
        default_args={"n": 17},
        origin="wasmi-benchmarks",
    ),
    FaasWorkload(
        name="primes",
        trait=WorkloadTrait.CPU,
        description="sieve of Eratosthenes",
        fn=primes,
        default_args={"limit": 30_000},
        origin="Lua-Benchmarks (sieve)",
    ),
    FaasWorkload(
        name="mandelbrot",
        trait=WorkloadTrait.CPU,
        description="Mandelbrot membership grid",
        fn=mandelbrot,
        default_args={"size": 48, "max_iter": 40},
        origin="Lua-Benchmarks (mandel)",
    ),
    FaasWorkload(
        name="nbody",
        trait=WorkloadTrait.CPU,
        description="three-body gravitational simulation",
        fn=nbody,
        default_args={"steps": 900},
        origin="wasmi-benchmarks",
    ),
    FaasWorkload(
        name="spectralnorm",
        trait=WorkloadTrait.CPU,
        description="spectral norm power iteration",
        fn=spectralnorm,
        default_args={"n": 40, "iterations": 6},
        origin="FaaSBenchmark",
        min_args={"n": 1, "iterations": 1},
    ),
    FaasWorkload(
        name="fannkuch",
        trait=WorkloadTrait.CPU,
        description="fannkuch permutation flipping",
        fn=fannkuch,
        default_args={"n": 6},
        origin="Lua-Benchmarks",
        min_args={"n": 1},
    ),
    FaasWorkload(
        name="matrix",
        trait=WorkloadTrait.CPU,
        description="dense matrix multiplication",
        fn=matrix_multiply,
        default_args={"n": 28},
        origin="FaaSdom",
    ),
    FaasWorkload(
        name="juliaset",
        trait=WorkloadTrait.CPU,
        description="Julia set membership grid",
        fn=juliaset,
        default_args={"size": 40, "max_iter": 40},
        origin="Lua-Benchmarks",
    ),
]
