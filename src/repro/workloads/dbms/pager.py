"""Page accounting layer.

SQLite's costs are dominated by page traffic (btree page reads,
journal + page writes on commit); this pager mirrors that accounting
so the cost hooks can charge the VM for realistic I/O volumes without
actually serialising pages.  Functional state stays in the B+trees;
the pager tracks how many pages the workload *would have* touched.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DbmsError

PAGE_SIZE = 4096


@dataclass
class PagerStats:
    """Page traffic counters."""

    reads: int = 0
    writes: int = 0
    journal_writes: int = 0
    cache_hits: int = 0


class Pager:
    """Tracks page reads/writes with a simple hot-set cache model.

    Parameters
    ----------
    cache_pages:
        Pages the cache holds; reads within the hot set are hits.
    """

    def __init__(self, cache_pages: int = 2000) -> None:
        if cache_pages < 1:
            raise DbmsError(f"cache must hold at least one page: {cache_pages}")
        self.cache_pages = cache_pages
        self.stats = PagerStats()
        self._hot: dict[int, int] = {}    # page id -> last access tick
        self._tick = 0
        self._dirty: set[int] = set()

    def _touch(self, page_id: int) -> bool:
        """Record an access; returns True on cache hit."""
        self._tick += 1
        hit = page_id in self._hot
        self._hot[page_id] = self._tick
        if len(self._hot) > self.cache_pages:
            coldest = min(self._hot, key=self._hot.__getitem__)
            del self._hot[coldest]
        return hit

    def read(self, page_id: int) -> bool:
        """A page read; returns True when served from cache."""
        if self._touch(page_id):
            self.stats.cache_hits += 1
            return True
        self.stats.reads += 1
        return False

    def write(self, page_id: int) -> None:
        """Mark a page dirty (flushed at commit)."""
        self._touch(page_id)
        self._dirty.add(page_id)

    def commit(self) -> int:
        """Flush dirty pages (journal write + page write each).

        Returns the number of pages flushed.
        """
        flushed = len(self._dirty)
        self.stats.journal_writes += flushed
        self.stats.writes += flushed
        self._dirty.clear()
        return flushed

    def rollback(self) -> int:
        """Discard dirty pages; returns how many were discarded."""
        discarded = len(self._dirty)
        self._dirty.clear()
        return discarded
