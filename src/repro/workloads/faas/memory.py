"""Memory-bound FaaS functions.

``memstress`` is the paper's named example (repeated 1 MB buffer
allocation).  The rest are allocation-heavy kernels from the public
suites: binary trees (GC stress), sorting, string building, word
counting and JSON round-trips.

Sorting, word counting and the JSON round-trips do their real work in
a pure ``_<name>_kernel`` of the integer args, memoized per process;
the body charges the session from the kernel's counts on every trial.
The ``allow[purity]`` pragma on each kernel rests on that purity: its
``lru_cache`` key is its whole input.
"""

from __future__ import annotations

import functools
import json
from typing import Any

from repro.runtimes.base import RuntimeSession
from repro.workloads.base import KERNEL_CACHE_SIZE, FaasWorkload, WorkloadTrait


def memstress(session: RuntimeSession, args: dict[str, Any]) -> dict[str, int]:
    """Repeatedly allocate 1 MB buffers (paper: covers half the RAM)."""
    buffer_bytes = int(args["buffer_bytes"])
    count = int(args["count"])
    checksum = 0
    batch = session.batch()
    for i in range(count):
        batch.allocate(buffer_bytes)
        # touch the buffer: one pass of writes
        batch.compute(buffer_bytes // 512,
                      working_set_bytes=buffer_bytes)
        checksum = (checksum + i * buffer_bytes) % (2 ** 31)
        batch.release(buffer_bytes)
    batch.commit()
    return {"allocated_mb": count * buffer_bytes // (1 << 20),
            "checksum": checksum}


def binarytrees(session: RuntimeSession, args: dict[str, Any]) -> dict[str, int]:
    """Allocate/walk binary trees (shootout GC stress kernel)."""
    depth = int(args["depth"])

    nodes_made = 0

    def make(d: int):
        nonlocal nodes_made
        nodes_made += 1
        if d == 0:
            return (None, None)
        return (make(d - 1), make(d - 1))

    def check(node) -> int:
        left, right = node
        if left is None:
            return 1
        return 1 + check(left) + check(right)

    tree = make(depth)
    total = check(tree)
    session.allocate(nodes_made * 48)        # node objects
    session.compute(nodes_made * 12, working_set_bytes=nodes_made * 48)
    session.release(nodes_made * 48)
    return {"depth": depth, "nodes": total}


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _sort_kernel(n: int) -> tuple[int, int, bool]:  # confbench: allow[purity]
    """``(min, max, sorted)`` of the generated array after sorting."""
    seed = 1234567
    values = []
    for _ in range(n):
        seed = (seed * 1103515245 + 12345) % (2 ** 31)
        values.append(seed)
    values.sort()
    return (values[0], values[-1],
            all(a <= b for a, b in zip(values, values[1:])))


def sort_numbers(session: RuntimeSession, args: dict[str, Any]) -> dict[str, Any]:
    """Sort a pseudo-random array; verifies order (FaaSdom kernel)."""
    n = int(args["n"])
    low, high, ordered = _sort_kernel(n)
    session.allocate(n * 28)
    # comparison sort: n log n comparisons
    log_n = max(1, n.bit_length())
    session.compute(n * log_n * 4, working_set_bytes=n * 28)
    session.release(n * 28)
    return {"n": n, "min": low, "max": high, "sorted": ordered}


def string_concat(session: RuntimeSession, args: dict[str, Any]) -> dict[str, int]:
    """Build a large string by repeated concatenation."""
    rounds = int(args["rounds"])
    piece = "confidential-computing-"
    parts = []
    total_len = 0
    batch = session.batch()
    for i in range(rounds):
        fragment = f"{piece}{i}"
        parts.append(fragment)
        total_len += len(fragment)
        batch.allocate(len(fragment) * 2)   # str object + copy
        batch.release(len(fragment))
    batch.commit()
    result = "".join(parts)
    session.compute(total_len // 4, working_set_bytes=total_len)
    return {"rounds": rounds, "length": len(result)}


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _wordcount_kernel(repeats: int) -> tuple[int, int, int]:  # confbench: allow[purity]
    """``(words, distinct words, count of 'the')``."""
    vocabulary = ("the quick brown fox jumps over the lazy dog while "
                  "secure enclaves measure attest and verify the code").split()
    counts: dict[str, int] = {}
    words = 0
    for _ in range(repeats):
        for word in vocabulary:
            counts[word] = counts.get(word, 0) + 1
            words += 1
    return words, len(counts), counts.get("the", 0)


def wordcount(session: RuntimeSession, args: dict[str, Any]) -> dict[str, int]:
    """Count word frequencies over generated text."""
    words, unique, the = _wordcount_kernel(int(args["repeats"]))
    session.allocate(unique * 64)
    session.compute(words * 10, working_set_bytes=unique * 64)
    return {"total_words": words, "unique": unique, "the": the}


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _jsonserde_kernel(rounds: int) -> int:  # confbench: allow[purity]
    """Bytes of the serialized document (0 when no round ran)."""
    document = {
        "id": 42,
        "tags": ["tee", "tdx", "sev-snp", "cca"],
        "nested": {"values": list(range(40)), "flag": True},
    }
    size = 0
    for _ in range(rounds):
        text = json.dumps(document)
        parsed = json.loads(text)
        size = len(text)
        if parsed["id"] != 42:
            raise AssertionError("round-trip corrupted the document")
    return size


def json_serde(session: RuntimeSession, args: dict[str, Any]) -> dict[str, int]:
    """Serialize and re-parse a nested document repeatedly."""
    rounds = int(args["rounds"])
    size = _jsonserde_kernel(rounds)
    batch = session.batch()
    for _ in range(rounds):
        batch.allocate(size * 3)     # text + token + object tree
        batch.compute(size * 6, working_set_bytes=size * 3)
        batch.release(size * 3)
    batch.commit()
    return {"rounds": rounds, "doc_bytes": size}


MEMORY_WORKLOADS = [
    FaasWorkload(
        name="memstress",
        trait=WorkloadTrait.MEMORY,
        description="repeated 1 MB buffer allocation",
        fn=memstress,
        default_args={"buffer_bytes": 1 << 20, "count": 24},
        origin="paper §IV-D",
    ),
    FaasWorkload(
        name="binarytrees",
        trait=WorkloadTrait.MEMORY,
        description="binary tree allocation / traversal (GC stress)",
        fn=binarytrees,
        default_args={"depth": 9},
        origin="Lua-Benchmarks (binary)",
    ),
    FaasWorkload(
        name="sort",
        trait=WorkloadTrait.MEMORY,
        description="sort a pseudo-random integer array",
        fn=sort_numbers,
        default_args={"n": 12_000},
        origin="FaaSdom",
        min_args={"n": 1},
    ),
    FaasWorkload(
        name="stringconcat",
        trait=WorkloadTrait.MEMORY,
        description="repeated string concatenation",
        fn=string_concat,
        default_args={"rounds": 2_500},
        origin="FaaSBenchmark",
    ),
    FaasWorkload(
        name="wordcount",
        trait=WorkloadTrait.MEMORY,
        description="word frequency counting",
        fn=wordcount,
        default_args={"repeats": 350},
        origin="FaaSdom",
    ),
    FaasWorkload(
        name="jsonserde",
        trait=WorkloadTrait.MEMORY,
        description="JSON serialize/parse round-trips",
        fn=json_serde,
        default_args={"rounds": 220},
        origin="FaaSdom",
    ),
]
