"""Runtime invariant sanitizer (``REPRO_SANITIZE=1``).

The static rules in :mod:`repro.devtools.lint` catch *shapes* of bugs;
this module catches *behaviours*.  :func:`install` monkey-wraps the
storage and tree layers with cross-checking shims:

* **IOStats balance** — after every recorded access,
  ``page_reads == random_reads + sequential_reads`` (same for writes)
  and no counter is negative.  A drifting split silently corrupts the
  paper's random-access cost model.
* **BufferPool accounting** — the cache never exceeds ``capacity``,
  ``capacity=0`` keeps it empty (the paper's no-caching methodology),
  and every resident page is exactly ``page_size`` bytes.
* **Zero-copy write protection** —
  :meth:`~repro.storage.pages.MmapPageStore.page_matrix` returns
  read-only views, so an accidental in-place write through the gather
  fast path raises instead of corrupting the snapshot on disk.
* **Packed-vs-node trace parity** — every
  :meth:`~repro.core.rdbtree.RDBTree.candidates` call is re-run against
  the node B+-tree :func:`~repro.core.rdbtree.node_oracle` bulk-loads
  from the same segment, into sandboxed
  :class:`~repro.storage.stats.IOStats`; the two answers must be
  byte-identical and the two I/O traces (totals *and* random/sequential
  split) must agree, query by query.  The packed segment stands for a
  disk-resident B+-tree — enforced at runtime rather than by a handful
  of parity tests.  (With ``cache_pages > 0`` only the answers are
  compared: the oracle has no warm cache.)

Activate with ``REPRO_SANITIZE=1`` in the environment (checked at
``import repro`` time) or explicitly::

    from repro.devtools import sanitize
    sanitize.install()
    ...
    sanitize.uninstall()

Violations raise :class:`SanitizerError`.  The shims are global (class-
level patches) and are NOT thread-safe during install/uninstall; flip
them before starting worker threads.  Cross-checking roughly doubles
query-path page walks — this is a testing mode, not a serving mode.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Any, Callable

#: (class, attribute) -> original function, for uninstall().
_ORIGINALS: dict[tuple[type, str], Callable[..., Any]] = {}

#: Serialises sanitized tree reads.  The cross-check diffs the tree's
#: live IOStats around one call; a concurrent reader of the same tree
#: (the serve tier's worker thread vs. a caller thread) would otherwise
#: record into that window and fake a trace divergence.
_TREE_LOCK = threading.RLock()

#: Node oracles per packed segment, built on first use.
_ORACLES: "weakref.WeakKeyDictionary[Any, Any]" = weakref.WeakKeyDictionary()


class SanitizerError(AssertionError):
    """A runtime invariant the sanitizer enforces was violated."""


def installed() -> bool:
    """Whether the sanitizer shims are currently active."""
    return bool(_ORIGINALS)


def _patch(cls: type, name: str,
           wrap: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
    original = cls.__dict__[name]
    _ORIGINALS[(cls, name)] = original
    wrapper = wrap(original)
    wrapper.__name__ = getattr(original, "__name__", name)
    wrapper.__doc__ = getattr(original, "__doc__", None)
    setattr(cls, name, wrapper)


# -- IOStats ----------------------------------------------------------------


def _check_stats_balance(stats: Any) -> None:
    if stats.page_reads != stats.random_reads + stats.sequential_reads:
        raise SanitizerError(
            f"IOStats read split out of balance: page_reads="
            f"{stats.page_reads} != random {stats.random_reads} + "
            f"sequential {stats.sequential_reads}")
    if stats.page_writes != stats.random_writes + stats.sequential_writes:
        raise SanitizerError(
            f"IOStats write split out of balance: page_writes="
            f"{stats.page_writes} != random {stats.random_writes} + "
            f"sequential {stats.sequential_writes}")
    for field in ("page_reads", "page_writes", "random_reads",
                  "sequential_reads", "random_writes", "sequential_writes",
                  "cache_hits"):
        if getattr(stats, field) < 0:
            raise SanitizerError(
                f"IOStats.{field} went negative: {getattr(stats, field)}")


def _install_iostats() -> None:
    from repro.storage.stats import IOStats

    def checked(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            result = original(self, *args, **kwargs)
            _check_stats_balance(self)
            return result
        return wrapper

    for name in ("record_read", "record_write", "record_read_many",
                 "record_cache_hit", "reset", "__add__"):
        _patch(IOStats, name, checked)


# -- BufferPool -------------------------------------------------------------


def _check_pool(pool: Any) -> None:
    resident = len(pool._cache)
    if pool.capacity == 0 and resident:
        raise SanitizerError(
            f"BufferPool(capacity=0) holds {resident} page(s); the "
            f"no-caching methodology is being violated")
    if resident > pool.capacity:
        raise SanitizerError(
            f"BufferPool eviction failed: {resident} resident pages "
            f"exceed capacity {pool.capacity}")
    page_size = pool.store.page_size
    for page_id, data in pool._cache.items():
        if len(data) != page_size:
            raise SanitizerError(
                f"BufferPool page {page_id} cached with {len(data)} bytes "
                f"(page_size is {page_size})")
    if pool.memory_bytes() != resident * page_size:
        raise SanitizerError(
            f"BufferPool memory accounting drifted: memory_bytes()="
            f"{pool.memory_bytes()} != {resident} pages * {page_size}")


def _install_bufferpool() -> None:
    from repro.storage.buffer import BufferPool

    def checked(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            result = original(self, *args, **kwargs)
            _check_pool(self)
            return result
        return wrapper

    for name in ("read", "write", "clear", "_insert"):
        _patch(BufferPool, name, checked)


# -- mmap zero-copy views ---------------------------------------------------


def _install_mmap_guard() -> None:
    from repro.storage.pages import MmapPageStore

    def guarded(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any) -> Any:
            matrix = original(self)
            view = matrix.view()
            view.flags.writeable = False
            return view
        return wrapper

    _patch(MmapPageStore, "page_matrix", guarded)


# -- packed-vs-node cross-check ---------------------------------------------

_TRACE_FIELDS = ("page_reads", "random_reads", "sequential_reads")


def _trace(stats: Any) -> tuple[int, ...]:
    return tuple(getattr(stats, field) for field in _TRACE_FIELDS)


def _cross_check(tree: Any, packed: Any, query_key: Any, alpha: int,
                 answer: tuple[Any, Any], last_read_page: int,
                 trace: tuple[int, ...] | None) -> None:
    """Re-run one ``candidates`` call on the segment's node oracle and
    compare the answer and (when given) the page-read trace."""
    import numpy as np

    from repro.core.rdbtree import node_oracle
    from repro.storage.stats import IOStats

    oracle = _ORACLES.get(packed)
    if oracle is None:
        oracle = _ORACLES[packed] = node_oracle(tree)
    sandbox = IOStats()
    sandbox._last_read_page = last_read_page
    oracle._store.stats = sandbox
    entries = oracle.nearest(tree._raw_key(query_key), alpha)
    records = np.frombuffer(b"".join(bytes(value) for _, value in entries),
                            dtype=tree.record_dtype, count=len(entries))
    ids, references = answer
    if not (np.array_equal(ids, records["id"].astype(np.int64))
            and np.array_equal(references,
                               records["ref"].astype(np.float64))):
        raise SanitizerError(
            f"packed/node answer divergence for alpha={alpha}: packed "
            f"returned {ids.shape[0]} entr(ies), node path "
            f"{len(entries)}; first mismatch at index "
            f"{_first_mismatch(ids.tolist(), records['id'].tolist())}")
    if trace is not None and trace != _trace(sandbox):
        raise SanitizerError(
            f"packed/node I/O trace divergence for alpha={alpha}: packed "
            f"recorded {dict(zip(_TRACE_FIELDS, trace))}, node path "
            f"{dict(zip(_TRACE_FIELDS, _trace(sandbox)))}")


def _first_mismatch(left: list, right: list) -> int | str:
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return index
    return "length" if len(left) != len(right) else -1


def _install_tree_crosscheck() -> None:
    from repro.core.rdbtree import RDBTree

    def checked(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any, query_key: Any, alpha: int) -> Any:
            with _TREE_LOCK:
                packed, stats = self.packed, self.stats
                last_read_page, before = stats._last_read_page, _trace(stats)
                answer = original(self, query_key, alpha)
                trace = None
                if self.cache is None:
                    trace = tuple(after - start for after, start
                                  in zip(_trace(stats), before))
                _cross_check(self, packed, query_key, alpha, answer,
                             last_read_page, trace)
                return answer
        return wrapper

    _patch(RDBTree, "candidates", checked)


# -- public API -------------------------------------------------------------


def install() -> None:
    """Activate every sanitizer shim (idempotent)."""
    if installed():
        return
    _install_iostats()
    _install_bufferpool()
    _install_mmap_guard()
    _install_tree_crosscheck()


def uninstall() -> None:
    """Restore the original, unchecked implementations (idempotent)."""
    while _ORIGINALS:
        (cls, name), original = _ORIGINALS.popitem()
        setattr(cls, name, original)
    _ORACLES.clear()


def install_from_env(env_var: str = "REPRO_SANITIZE") -> bool:
    """Install when the environment asks for it; returns whether active."""
    value = os.environ.get(env_var, "").strip().lower()
    if value in ("1", "true", "yes", "on"):
        install()
    return installed()
