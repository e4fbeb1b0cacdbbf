"""The one counter fold every scenario body returns its stats through."""

from __future__ import annotations

from typing import Iterable, Mapping


def fold_counters(
    sources: Iterable[tuple[str, Mapping[str, int]]],
    reconciliations: Iterable[tuple[int, int]],
) -> tuple[dict[str, int], bool]:
    """Fold component ``stats`` dicts into one sorted counter dict.

    ``sources`` holds ``(prefix, stats)`` pairs; each stat lands under
    ``<prefix>.<name>``.  ``reconciliations`` holds ``(counter, clean
    log entries)`` pairs, each a counter that must equal the clean
    entries of the request log it claims to count.  Returns the
    counters and whether every pair reconciled.
    """
    counters = {f"{prefix}.{name}": value
                for prefix, stats in sources
                for name, value in stats.items()}
    reconciled = all(counter == clean for counter, clean in reconciliations)
    return dict(sorted(counters.items())), reconciled
