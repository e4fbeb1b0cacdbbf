"""Exception hierarchy for the ConfBench reproduction.

Every error raised by the library derives from :class:`ConfBenchError`,
so callers can catch one base type at the API boundary.  Sub-hierarchies
mirror the architectural layers described in ``DESIGN.md``.
"""

from __future__ import annotations


class ConfBenchError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ConfBenchError):
    """Errors from the simulation kernel (clock, ledger, events)."""


class ClockError(SimulationError):
    """Attempted to move a virtual clock backwards or misuse it."""


class HardwareError(ConfBenchError):
    """Errors from the simulated machine substrate."""


class GuestOsError(ConfBenchError):
    """Errors raised by the simulated guest operating system."""


class FileSystemError(GuestOsError):
    """In-memory filesystem errors (missing path, duplicate, etc.)."""


class ProcessError(GuestOsError):
    """Process table errors (bad pid, double wait, fork limits)."""


class SyscallError(GuestOsError):
    """Unknown or malformed syscall invocation."""


class TeeError(ConfBenchError):
    """Errors from TEE platform simulators."""


class VmError(TeeError):
    """VM lifecycle errors (not booted, double-destroy, bad state)."""


class VmCrashError(VmError):
    """The VM died mid-execution (injected TD-exit style crash).

    ``wasted_ns`` is the virtual time the dead attempt burned — the
    retry machinery charges it (plus backoff) to the surviving
    result's STARTUP bucket.
    """

    def __init__(self, message: str, wasted_ns: float = 0.0) -> None:
        super().__init__(message)
        self.wasted_ns = wasted_ns


class TrialBudgetError(VmError):
    """The watchdog killed a trial that exceeded its virtual-time budget.

    ``wasted_ns`` is the budget itself: the watchdog fires *at* the
    deadline, so that is exactly the virtual time the doomed attempt
    burned before being put down.
    """

    def __init__(self, message: str, wasted_ns: float = 0.0) -> None:
        super().__init__(message)
        self.wasted_ns = wasted_ns


class AttestationError(ConfBenchError):
    """Attestation protocol failures."""


class TransientAttestationError(AttestationError):
    """A verification attempt failed transiently; retrying may succeed."""


class CollateralTimeoutError(AttestationError):
    """A collateral fetch (e.g. from the Intel PCS) timed out."""


class QuoteVerificationError(AttestationError):
    """A quote or report failed cryptographic verification."""


class CertificateError(AttestationError):
    """Certificate chain construction or validation failure."""


class CrlError(CertificateError):
    """Certificate revocation list problems (revoked cert, stale CRL)."""


class RuntimeModelError(ConfBenchError):
    """Errors from language-runtime cost models."""


class UnknownRuntimeError(RuntimeModelError):
    """The requested language runtime is not registered."""


class WorkloadError(ConfBenchError):
    """Errors from workload implementations."""


class UnknownWorkloadError(WorkloadError):
    """The requested workload is not present in the registry."""


class DbmsError(WorkloadError):
    """Errors from the mini relational engine."""


class SqlSyntaxError(DbmsError):
    """The SQL tokenizer/parser rejected a statement."""


class SqlExecutionError(DbmsError):
    """A statement failed during planning or execution."""


class GatewayError(ConfBenchError):
    """Errors from the ConfBench gateway."""


class NoSuchFunctionError(GatewayError):
    """Invoked a function that was never uploaded."""


class NoSuchPlatformError(GatewayError):
    """Requested an execution platform not present in the config."""


class PoolExhaustedError(GatewayError):
    """A TEE pool has no VM able to take the request."""


class OverloadedError(GatewayError):
    """The gateway shed this request (brownout: backlog at capacity).

    ``retry_after_ns`` is the deterministic drain-time hint the shed
    record carries — the earliest virtual time a retry could be
    admitted rather than shed again.  The REST layer maps this to an
    HTTP 429 with a ``Retry-After`` header; clients honor the hint.
    """

    def __init__(self, message: str, retry_after_ns: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_ns = retry_after_ns


class RelayError(ConfBenchError):
    """Errors from the socat-style TCP relay."""


class MonitorError(ConfBenchError):
    """Errors from the perf-stat style monitoring integration."""


class SupplyChainError(ConfBenchError):
    """Errors from the confidential container supply chain."""


class ImageVerificationError(SupplyChainError):
    """An image failed signature or layer-digest verification.

    Raised when a manifest signature does not validate against the
    publisher key, or a pulled layer/chunk hashes to something other
    than its content-addressed digest — both abort the launch before
    any layer byte reaches the guest filesystem.
    """


class KeyReleaseDeniedError(SupplyChainError):
    """The Key Broker Service refused to release layer keys.

    Carries the broker's denial ``reason`` (failed attestation, stale
    collateral, unknown key id) so callers — and the REST envelope —
    can report *why* the launch was refused without parsing message
    text.
    """

    def __init__(self, message: str, reason: str = "attestation") -> None:
        super().__init__(message)
        self.reason = reason
