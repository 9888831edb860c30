"""LRU buffer pool over a :class:`~repro.storage.pages.PageStore`.

The paper's experiments explicitly *disable* buffering and caching "for
fairness" (Sec. 5, Evaluation Metrics).  The buffer pool here therefore
supports ``capacity=0`` — every read goes to the store — as well as a normal
LRU mode used by the buffering ablation bench to quantify what caching hides.
:class:`TraceCache` is the same LRU for structures that keep no pages at all
(the packed RDB-trees): it replays their synthetic page trace.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.storage.pages import PageStore


class BufferPool:
    """Write-through LRU page cache.

    Parameters
    ----------
    store:
        The underlying page store.
    capacity:
        Maximum number of cached pages.  ``0`` disables caching entirely,
        matching the paper's measurement methodology.
    """

    def __init__(self, store: PageStore, capacity: int = 0) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.store = store
        self.capacity = capacity
        self._cache: OrderedDict[int, bytes] = OrderedDict()

    # -- page interface -----------------------------------------------------

    def allocate(self) -> int:
        """Allocate a page in the underlying store."""
        return self.store.allocate()

    def read(self, page_id: int) -> bytes:
        """Read a page, serving from cache when possible."""
        if page_id in self._cache:
            self._cache.move_to_end(page_id)
            self.store.stats.record_cache_hit()
            return self._cache[page_id]
        data = self.store.read(page_id)
        self._insert(page_id, data)
        return data

    def write(self, page_id: int, data: bytes) -> None:
        """Write-through: update the store and refresh the cached copy."""
        self.store.write(page_id, data)
        if len(data) < self.store.page_size:
            data = bytes(data) + bytes(self.store.page_size - len(data))
        if self.capacity > 0:
            self._insert(page_id, bytes(data))

    def clear(self) -> None:
        """Drop all cached pages (e.g. between build and query phases)."""
        self._cache.clear()

    # -- informational ----------------------------------------------------

    @property
    def page_size(self) -> int:
        return self.store.page_size

    @property
    def stats(self):
        return self.store.stats

    def cached_pages(self) -> int:
        """Number of pages currently resident in the pool."""
        return len(self._cache)

    def memory_bytes(self) -> int:
        """RAM held by the pool — feeds the memory-accounting substitution."""
        return len(self._cache) * self.store.page_size

    # -- internals ------------------------------------------------------

    def _insert(self, page_id: int, data: bytes) -> None:
        if self.capacity == 0:
            return
        self._cache[page_id] = data
        self._cache.move_to_end(page_id)
        while len(self._cache) > self.capacity:
            self._cache.popitem(last=False)


class TraceCache:
    """LRU over page *ids*: replays a synthetic page trace (the packed
    RDB-trees hold no pages) exactly as a write-through
    :class:`BufferPool` of ``capacity`` pages would see it — a resident
    id is a cache hit, anything else a physical access in ``stats``."""

    def __init__(self, stats, capacity: int) -> None:
        self.stats = stats
        self.capacity = capacity
        self._resident: OrderedDict[int, None] = OrderedDict()

    def record_read_many(self, page_ids) -> None:
        for page_id in np.asarray(page_ids).tolist():
            if page_id in self._resident:
                self.stats.record_cache_hit()
            else:
                self.stats.record_read(page_id)
            self._touch(page_id)

    def record_write(self, page_id: int) -> None:
        self.stats.record_write(page_id)
        self._touch(page_id)

    def clear(self) -> None:
        """Drop every resident id (e.g. between build and query phases)."""
        self._resident.clear()

    def cached_pages(self) -> int:
        return len(self._resident)

    def _touch(self, page_id: int) -> None:
        self._resident[page_id] = None
        self._resident.move_to_end(page_id)
        if len(self._resident) > self.capacity:
            self._resident.popitem(last=False)
