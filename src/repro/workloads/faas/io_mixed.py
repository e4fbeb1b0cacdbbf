"""I/O-bound and mixed FaaS functions.

Includes the paper's named examples — ``iostress`` (dd-style 1 MB
file writes), ``logging`` (3000 messages) and ``filesystem`` (nested
folders + a 1 MB file lifecycle) — plus mixed kernels: base64,
checksumming, run-length compression, hashing, BFS and a tiny
template renderer.

The mixed kernels do their real work in a pure ``_<name>_kernel`` of
the integer args, memoized per process; the body charges the session
from the kernel's counts on every trial.  The ``allow[purity]`` pragma
on each kernel rests on that purity: its ``lru_cache`` key is its
whole input.
"""

from __future__ import annotations

import base64 as b64
import functools
import hashlib
import zlib
from typing import Any

from repro.runtimes.base import RuntimeSession
from repro.workloads.base import KERNEL_CACHE_SIZE, FaasWorkload, WorkloadTrait


def iostress(session: RuntimeSession, args: dict[str, Any]) -> dict[str, int]:
    """dd-style: create and write large files (1 MB each)."""
    file_bytes = int(args["file_bytes"])
    files = int(args["files"])
    block = b"\x5a" * 65536
    full_blocks, tail = divmod(file_bytes, len(block))
    written = 0
    kernel = session.kernel
    for index in range(files):
        path = f"/iostress-{index}.bin"
        session.write_file(path, b"")   # creates the file
        # functional append once; charges batched per chunk below
        kernel.fs.write(path, block * full_blocks + block[:tail], None)
        written += file_bytes
        kb = kernel.batch()
        kb.repeat(kb.seq().write(len(block)), full_blocks)
        if tail:
            kb.repeat(kb.seq().write(tail))
        kb.commit()
        session.delete_file(path)
    return {"files": files, "bytes_written": written}


def logging_workload(session: RuntimeSession, args: dict[str, Any]) -> dict[str, int]:
    """Print a large number of messages (paper default: 3000)."""
    messages = int(args["messages"])
    batch = session.batch()
    for i in range(messages):
        batch.log(f"[{i:06d}] request handled status=200 latency_ms=1.5")
    batch.commit()
    return {"messages": messages, "stdout_lines": session.stdout_lines}


def filesystem(session: RuntimeSession, args: dict[str, Any]) -> dict[str, Any]:
    """Nested folders, a 1 MB file, write/read/cleanup (paper §IV-D)."""
    file_bytes = int(args["file_bytes"])
    session.mkdir("/outer")
    session.mkdir("/outer/inner")
    path = "/outer/inner/data.bin"
    payload = b"\xab" * file_bytes
    session.write_file(path, payload)
    read_back = session.read_file(path)
    ok = read_back == payload
    session.delete_file(path)
    session.rmdir("/outer/inner")
    session.rmdir("/outer")
    return {"bytes": file_bytes, "verified": ok}


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _base64_kernel(payload_bytes: int, rounds: int) -> int:  # confbench: allow[purity]
    """Encoded bytes (0 when no round ran); decoding restores the payload."""
    payload = bytes(range(256)) * (payload_bytes // 256 + 1)
    payload = payload[:payload_bytes]
    encoded = b""
    for _ in range(rounds):
        encoded = b64.b64encode(payload)
        decoded = b64.b64decode(encoded)
        if decoded != payload:
            raise AssertionError("base64 round-trip corrupted data")
    return len(encoded)


def base64_roundtrip(session: RuntimeSession, args: dict[str, Any]) -> dict[str, Any]:
    """Encode/decode a buffer through base64 repeatedly."""
    payload_bytes = int(args["payload_bytes"])
    rounds = int(args["rounds"])
    encoded_bytes = _base64_kernel(payload_bytes, rounds)
    for _ in range(rounds):
        session.allocate(encoded_bytes + payload_bytes)
        session.compute(payload_bytes * 3, working_set_bytes=encoded_bytes)
        session.release(encoded_bytes + payload_bytes)
    return {"rounds": rounds, "encoded_bytes": encoded_bytes}


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _checksum_kernel(blocks: int, block_bytes: int) -> int:  # confbench: allow[purity]
    """CRC32 over the generated blocks."""
    value = 0
    for index in range(blocks):
        data = bytes((index + j) % 256 for j in range(256)) * (block_bytes // 256)
        value = zlib.crc32(data, value)
    return value


def checksum(session: RuntimeSession, args: dict[str, Any]) -> dict[str, int]:
    """CRC32 over generated blocks, persisted to a result file."""
    blocks = int(args["blocks"])
    block_bytes = int(args["block_bytes"])
    value = _checksum_kernel(blocks, block_bytes)
    for _ in range(blocks):
        session.compute(block_bytes, working_set_bytes=block_bytes)
    session.write_file("/checksum.txt", f"{value:08x}".encode())
    session.delete_file("/checksum.txt")
    return {"blocks": blocks, "crc32": value}


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _compression_kernel(payload_bytes: int) -> int:  # confbench: allow[purity]
    """Runs in the buffer's run-length encoding."""
    data = (b"A" * 19 + b"B" * 7 + b"C" * 3) * (payload_bytes // 29 + 1)
    data = data[:payload_bytes]
    encoded: list[tuple[int, int]] = []
    previous = data[0]
    run = 1
    for byte in data[1:]:
        if byte == previous and run < 255:
            run += 1
        else:
            encoded.append((previous, run))
            previous, run = byte, 1
    encoded.append((previous, run))
    decoded = b"".join(bytes([b]) * r for b, r in encoded)
    if decoded != data:
        raise AssertionError("RLE round-trip corrupted data")
    return len(encoded)


def compression(session: RuntimeSession, args: dict[str, Any]) -> dict[str, int]:
    """Run-length encode a repetitive buffer and verify by decoding."""
    payload_bytes = int(args["payload_bytes"])
    runs = _compression_kernel(payload_bytes)
    session.allocate(runs * 2 + payload_bytes)
    session.compute(payload_bytes * 4, working_set_bytes=payload_bytes)
    session.release(runs * 2 + payload_bytes)
    return {"input_bytes": payload_bytes, "runs": runs}


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _shahash_kernel(payload_bytes: int, rounds: int) -> str:  # confbench: allow[purity]
    """Hex digest at the end of the SHA-256 chain."""
    payload = b"\x42" * payload_bytes
    digest = b""
    for _ in range(rounds):
        digest = hashlib.sha256(payload + digest).digest()
    return digest.hex()


def sha_hash(session: RuntimeSession, args: dict[str, Any]) -> dict[str, Any]:
    """SHA-256 a buffer repeatedly (tiny-keccak analogue)."""
    payload_bytes = int(args["payload_bytes"])
    rounds = int(args["rounds"])
    digest = _shahash_kernel(payload_bytes, rounds)
    for _ in range(rounds):
        session.compute(payload_bytes * 6, working_set_bytes=payload_bytes)
    return {"rounds": rounds, "digest": digest}


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _graphbfs_kernel(nodes: int, degree: int) -> tuple[int, int]:  # confbench: allow[purity]
    """``(nodes reached, edges walked)`` by BFS from node 0."""
    adjacency = [
        [((i * 7919 + k * 104729) % nodes) for k in range(degree)]
        for i in range(nodes)
    ]
    visited = [False] * nodes
    frontier = [0]
    visited[0] = True
    reached = 1
    edges_walked = 0
    while frontier:
        next_frontier = []
        for node in frontier:
            for neighbor in adjacency[node]:
                edges_walked += 1
                if not visited[neighbor]:
                    visited[neighbor] = True
                    reached += 1
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return reached, edges_walked


def graph_bfs(session: RuntimeSession, args: dict[str, Any]) -> dict[str, int]:
    """Breadth-first search over a deterministic random graph."""
    nodes = int(args["nodes"])
    degree = int(args["degree"])
    reached, edges_walked = _graphbfs_kernel(nodes, degree)
    session.allocate(nodes * degree * 8)
    session.compute(edges_walked * 6, working_set_bytes=nodes * degree * 8)
    session.release(nodes * degree * 8)
    return {"nodes": nodes, "reached": reached, "edges_walked": edges_walked}


def html_render(session: RuntimeSession, args: dict[str, Any]) -> dict[str, int]:
    """Render an HTML table from row data, write it out (FaaSdom-style)."""
    rows = int(args["rows"])
    cells = []
    for i in range(rows):
        cells.append(f"<tr><td>{i}</td><td>item-{i}</td><td>{i * 3.14:.2f}</td></tr>")
    session.compute_batch(60, rows)
    page = "<table>" + "".join(cells) + "</table>"
    session.allocate(len(page))
    session.write_file("/render.html", page.encode())
    size = session.kernel.sys_stat("/render.html")["size"]
    session.delete_file("/render.html")
    session.release(len(page))
    return {"rows": rows, "bytes": int(size)}


IO_MIXED_WORKLOADS = [
    FaasWorkload(
        name="iostress",
        trait=WorkloadTrait.IO,
        description="dd-style large-file writes (1 MB files)",
        fn=iostress,
        default_args={"file_bytes": 1 << 20, "files": 4},
        origin="paper §IV-D",
    ),
    FaasWorkload(
        name="logging",
        trait=WorkloadTrait.IO,
        description="print a large number of log messages",
        fn=logging_workload,
        default_args={"messages": 3000},
        origin="paper §IV-D",
    ),
    FaasWorkload(
        name="filesystem",
        trait=WorkloadTrait.IO,
        description="nested folders + 1 MB file lifecycle",
        fn=filesystem,
        default_args={"file_bytes": 1 << 20},
        origin="paper §IV-D",
    ),
    FaasWorkload(
        name="base64",
        trait=WorkloadTrait.MIXED,
        description="base64 encode/decode round-trips",
        fn=base64_roundtrip,
        default_args={"payload_bytes": 64 * 1024, "rounds": 10},
        origin="FaaSdom",
    ),
    FaasWorkload(
        name="checksum",
        trait=WorkloadTrait.MIXED,
        description="CRC32 over generated blocks",
        fn=checksum,
        default_args={"blocks": 24, "block_bytes": 32 * 1024},
        origin="FaaSBenchmark",
    ),
    FaasWorkload(
        name="compression",
        trait=WorkloadTrait.MIXED,
        description="run-length encoding with verification",
        fn=compression,
        default_args={"payload_bytes": 192 * 1024},
        origin="FaaSBenchmark",
        min_args={"payload_bytes": 1},
    ),
    FaasWorkload(
        name="shahash",
        trait=WorkloadTrait.MIXED,
        description="chained SHA-256 hashing",
        fn=sha_hash,
        default_args={"payload_bytes": 48 * 1024, "rounds": 12},
        origin="wasmi-benchmarks (tiny-keccak analogue)",
    ),
    FaasWorkload(
        name="graphbfs",
        trait=WorkloadTrait.MIXED,
        description="BFS over a deterministic random graph",
        fn=graph_bfs,
        default_args={"nodes": 4_000, "degree": 4},
        origin="FaaSBenchmark",
        min_args={"nodes": 1},
    ),
    FaasWorkload(
        name="htmlrender",
        trait=WorkloadTrait.MIXED,
        description="HTML table rendering written to disk",
        fn=html_render,
        default_args={"rows": 900},
        origin="FaaSdom",
    ),
]
