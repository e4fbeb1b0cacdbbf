"""Bounded pipes for inter-process communication.

UnixBench's pipe throughput and pipe-based context-switching tests
are the workloads the paper singles out as TEE-hostile: each blocking
read/write pair forces a sleep/wake cycle, which on a confidential VM
shows up as TDVMCALL (TDX) or VMEXIT (SEV-SNP) world switches.  The
kernel charges those costs; this module provides the buffer
semantics.
"""

from __future__ import annotations

from repro.errors import GuestOsError


class Pipe:
    """A byte pipe with a bounded kernel buffer."""

    DEFAULT_CAPACITY = 65536

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise GuestOsError(f"pipe capacity must be positive: {capacity}")
        self.capacity = capacity
        self._buffer = bytearray()
        self.total_written = 0
        self.total_read = 0

    def __repr__(self) -> str:
        # buffered bytes are guest data; expose counters, not content
        return (f"Pipe(capacity={self.capacity}, fill={self.fill}, "
                f"written={self.total_written}, read={self.total_read})")

    @property
    def fill(self) -> int:
        """Bytes currently buffered."""
        return len(self._buffer)

    @property
    def space(self) -> int:
        """Free space in the buffer."""
        return self.capacity - len(self._buffer)

    def write(self, data: bytes) -> int:
        """Write up to the available space; returns bytes accepted."""
        accepted = data[: self.space]
        self._buffer.extend(accepted)
        self.total_written += len(accepted)
        return len(accepted)

    def read(self, length: int) -> bytes:
        """Read up to ``length`` buffered bytes (may be empty)."""
        if length < 0:
            raise GuestOsError(f"negative read length: {length}")
        chunk = bytes(self._buffer[:length])
        del self._buffer[: len(chunk)]
        self.total_read += len(chunk)
        return chunk
