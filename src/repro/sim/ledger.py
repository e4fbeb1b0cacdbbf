"""Cost ledger: attributes virtual time to cost categories.

Every nanosecond a simulated operation takes is charged to a
:class:`CostCategory`.  Experiments use the ledger to explain *where*
TEE overhead comes from (e.g. the paper attributes TDX's iostress
penalty to bounce-buffer copies, and UnixBench slowdowns to frequent
TDVMCALL/VMEXIT events).
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Mapping

from repro.errors import SimulationError

_INF = float("inf")


class CostCategory(enum.Enum):
    """Where simulated time is spent.

    Members hash by identity (they are singletons and plain ``Enum``
    equality already is identity); the default ``Enum.__hash__`` is a
    Python-level call that dominates dict lookups on the charge path.
    """

    __hash__ = object.__hash__

    CPU = "cpu"                    # pure computation
    MEM_ALLOC = "mem_alloc"        # allocation (incl. GC pressure)
    MEM_ACCESS = "mem_access"      # loads/stores beyond cache
    IO_READ = "io_read"            # block-device reads
    IO_WRITE = "io_write"          # block-device writes
    SYSCALL = "syscall"            # guest kernel entry/exit
    VM_TRANSITION = "vm_transition"  # TDCALL/VMEXIT/RMM-call style world switches
    BOUNCE_BUFFER = "bounce_buffer"  # TDX shared-memory copy for DMA
    CRYPTO = "crypto"              # attestation crypto, memory-encryption extra work
    NETWORK = "network"            # simulated network latency (e.g. Intel PCS)
    STARTUP = "startup"            # runtime/VM bootstrap (excluded from ratios)
    SIMULATOR = "simulator"        # FVP simulation layer overhead (CCA only)
    OTHER = "other"


class CostLedger:
    """Accumulates per-category nanosecond charges.

    The ledger is additive and supports merging, making it easy to roll
    per-operation ledgers up into per-run and per-experiment totals.

    Examples
    --------
    >>> ledger = CostLedger()
    >>> ledger.charge(CostCategory.CPU, 100.0)
    >>> ledger.charge(CostCategory.CPU, 50.0)
    >>> ledger.total()
    150.0
    """

    __slots__ = ("_charges",)

    def __init__(self) -> None:
        self._charges: dict[CostCategory, float] = {}

    def charge(self, category: CostCategory, nanos: float) -> None:
        """Record ``nanos`` of time spent in ``category``.

        Raises
        ------
        SimulationError
            If ``nanos`` is negative or not finite.
        """
        if not 0.0 <= nanos < _INF:  # also rejects NaN
            raise SimulationError(f"cannot charge {nanos!r} ns to {category}")
        self._charges[category] = self._charges.get(category, 0.0) + float(nanos)

    def get(self, category: CostCategory) -> float:
        """Total nanoseconds charged to ``category`` (0.0 if none)."""
        return self._charges.get(category, 0.0)

    def total(self) -> float:
        """Total nanoseconds across all categories."""
        return sum(self._charges.values())

    def total_excluding(self, *categories: CostCategory) -> float:
        """Total nanoseconds across all categories except the given ones.

        Used to compute execution time net of runtime bootstrap, which
        the paper explicitly excludes from its measurements.
        """
        excluded = set(categories)
        return sum(
            nanos for cat, nanos in self._charges.items() if cat not in excluded
        )

    def apply_batch(self, items) -> None:
        """Overwrite per-category totals with batch-fold results.

        ``items`` is an ordered iterable of ``(category, new_total)``
        pairs as produced by :func:`repro.sim.opstream.accumulate`:
        each total is the left fold of that category's charges over the
        existing ledger value, so assignment (not addition) keeps the
        result bit-identical to charging per op.  Categories already
        present keep their dict position; new ones append in
        first-charge order — the same insertion order per-op charging
        would produce.  A negative or non-finite total raises before
        any category changes.

        Raises
        ------
        SimulationError
            If a total is negative or not finite.
        """
        items = list(items)
        for category, total in items:
            if not 0.0 <= total < _INF:
                raise SimulationError(
                    f"cannot set {total!r} ns for {category}")
        self._charges.update(items)

    def breakdown(self) -> Mapping[CostCategory, float]:
        """A read-only snapshot of per-category totals."""
        return dict(self._charges)

    def dominant(self) -> CostCategory | None:
        """The category with the largest charge, or None when empty."""
        if not self._charges:
            return None
        return max(self._charges, key=lambda cat: self._charges[cat])

    def emit(self, sink, prefix: str) -> None:
        """Add per-category totals to ``sink``'s ``<prefix>.<category>``
        counters.

        ``sink`` is a :class:`~repro.obs.metrics.MetricsRegistry`,
        passed in because this layer must not import upward.
        Categories are emitted sorted by name so the set of charged
        categories — not charge order — determines the emission
        sequence, in one ``count_many`` call.
        """
        sink.count_many([
            (f"{prefix}.{category.value}", self._charges[category])
            for category in sorted(self._charges, key=lambda cat: cat.value)
        ])

    def copy(self) -> "CostLedger":
        """An independent copy of this ledger."""
        clone = CostLedger()
        clone._charges = dict(self._charges)
        return clone

    def __iter__(self) -> Iterator[tuple[CostCategory, float]]:
        return iter(self._charges.items())

    def __len__(self) -> int:
        return len(self._charges)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{cat.value}={nanos:.0f}" for cat, nanos in sorted(
                self._charges.items(), key=lambda item: -item[1]
            )
        )
        return f"CostLedger({parts})"
