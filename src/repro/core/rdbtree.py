"""RDB-tree: the Reference Distance B+-tree of paper Sec. 3.2.

An RDB-tree is a B+-tree keyed by Hilbert keys whose *leaves* are modified to
store, per object: the Hilbert key, an 8-byte pointer to the complete
descriptor, and the distances to the m reference objects as float32.  This
is the paper's core structural novelty — candidates can be filtered with the
Eq. (5)/(6) lower bounds using only the leaf bytes already in memory, and
only the final κ survivors cost a random descriptor fetch.

The leaf order Ω follows Eq. (4) exactly (see
:func:`repro.core.params.rdb_leaf_order`).

Each tree is one immutable packed segment
(:class:`~repro.btree.packed.PackedTree`): :meth:`RDBTree.bulk_build`
sorts the entries once and lays out the leaf and internal pages a
bulk-loaded B+-tree would write; :meth:`RDBTree.insert` merges a batch of
new entries into a fresh segment.  No node pages are ever written.
Queries slice the arrays and account the page trace of the node layout
(through an LRU of page ids when ``cache_pages > 0``), and
:func:`node_oracle` rebuilds that node B+-tree for cross-checks.
"""

from __future__ import annotations

import numpy as np

from repro.btree.node import internal_capacity, leaf_capacity
from repro.btree.packed import PackedTree
from repro.btree.tree import BPlusTree
from repro.core.params import rdb_leaf_order
from repro.hilbert.butz import HilbertCurve
from repro.storage.buffer import TraceCache
from repro.storage.codecs import BytesCodec, Codec, UIntCodec
from repro.storage.pages import DEFAULT_PAGE_SIZE
from repro.storage.stats import IOStats


class RDBTree:
    """One RDB-tree covering one dimension partition.

    Parameters
    ----------
    curve:
        The partition's Hilbert curve (fixes key width η·ω bits).
    num_references:
        m — reference distances stored per leaf entry.
    cache_pages:
        Buffer-pool capacity in pages (0 = caching off, the paper's
        methodology).
    page_size:
        Page size of the node layout (fixes Ω and the fan-out).
    """

    def __init__(self, curve: HilbertCurve, num_references: int,
                 cache_pages: int = 0,
                 page_size: int = DEFAULT_PAGE_SIZE) -> None:
        self.curve = curve
        self.num_references = num_references
        self.page_size = page_size
        self.leaf_order = rdb_leaf_order(
            curve.dim, curve.order, num_references, page_size)
        self._key_codec = UIntCodec(curve.key_bytes)
        #: Leaf record layout: the descriptor pointer, then the m
        #: reference distances.
        self.record_dtype = np.dtype(
            [("id", ">u8"), ("ref", ">f4", (num_references,))])
        key_width = curve.key_bytes
        value_width = self.record_dtype.itemsize
        self.leaf_capacity = min(self.leaf_order, leaf_capacity(
            page_size, key_width, value_width))
        self._fanout = internal_capacity(page_size, key_width) + 1
        if self.leaf_capacity < 1 or self._fanout < 3:
            raise ValueError(
                f"page size {page_size} cannot hold a "
                f"({key_width}+{value_width})-byte entry or an internal "
                f"node")
        self.stats = IOStats()
        #: LRU of page ids the read trace replays through (``None`` when
        #: caching is off).
        self.cache = (TraceCache(self.stats, cache_pages)
                      if cache_pages > 0 else None)
        self._sink = self.stats if self.cache is None else self.cache
        #: The current segment; replaced whole (never mutated), so a
        #: concurrent reader sees either the old tree or the new one.
        self.packed = bulk_layout(
            self._key_codec, np.empty((0, key_width), dtype=np.uint8),
            np.empty((0, value_width), dtype=np.uint8), self.leaf_capacity,
            self._fanout)

    # -- construction ------------------------------------------------------

    def bulk_build(self, keys: np.ndarray, object_ids: np.ndarray,
                   reference_distances: np.ndarray) -> None:
        """Bulk-load from parallel arrays (Algo. 1 lines 8–10).

        ``keys`` are Hilbert keys — either Python ints or, from
        :meth:`HilbertCurve.encode_batch_bytes`, an already-encoded
        ``(n, key_bytes)`` uint8 matrix.  ``object_ids`` are the pointers
        into the descriptor heap, ``reference_distances`` the (n, m)
        matrix restricted to these objects.  Entries are sorted by key
        here (stable, so equal keys keep input order).
        """
        if len(self):
            raise RuntimeError("bulk_build requires an empty tree")
        raw_keys, values = self._entries(keys, object_ids,
                                         reference_distances)
        self._publish(raw_keys, values)

    def insert(self, keys, object_ids, reference_distances) -> None:
        """Merge new entries into the tree (Sec. 3.6 updates).

        Takes one entry (a key, an id, an ``(m,)`` distance row) or a
        batch in :meth:`bulk_build`'s form, and replaces the segment with
        a freshly laid-out one.  The sort is stable with the new entries
        after the existing ones, so each lands after every equal key
        already present, in input order — the order one-at-a-time
        B+-tree inserts give.
        """
        packed = self.packed
        raw_keys, values = self._entries(
            keys, np.atleast_1d(object_ids),
            np.atleast_2d(np.asarray(reference_distances)))
        self._publish(np.concatenate([packed.keys_raw, raw_keys]),
                      np.concatenate([packed.values_raw, values]))

    def _entries(self, keys, object_ids,
                 reference_distances) -> tuple[np.ndarray, np.ndarray]:
        """Validated ``(n, key_bytes)`` key bytes and ``(n, record)``
        leaf-record bytes, in input order."""
        raw_keys = self._raw_keys(keys)
        object_ids = np.asarray(object_ids, dtype=np.int64)
        reference_distances = np.asarray(reference_distances,
                                         dtype=np.float32)
        n = raw_keys.shape[0]
        if object_ids.shape[0] != n or reference_distances.shape[0] != n:
            raise ValueError("keys, ids and distances must align")
        if (reference_distances.ndim != 2
                or reference_distances.shape[1] != self.num_references):
            raise ValueError(
                f"expected {self.num_references} reference distances, got "
                f"{reference_distances.shape[1:]}")
        records = np.empty(n, dtype=self.record_dtype)
        records["id"] = object_ids
        records["ref"] = reference_distances
        return raw_keys, records.view(np.uint8).reshape(
            n, self.record_dtype.itemsize)

    def _raw_keys(self, keys) -> np.ndarray:
        width = self._key_codec.width
        if not (isinstance(keys, np.ndarray) and keys.dtype == np.uint8):
            encode = self._key_codec.encode
            raw = b"".join(encode(int(key)) for key in
                           np.atleast_1d(np.asarray(keys, dtype=object)))
            keys = np.frombuffer(raw, dtype=np.uint8).reshape(-1, width)
        if keys.ndim != 2 or keys.shape[1] != width:
            raise ValueError(
                f"raw keys must be {width} bytes wide, got {keys.shape}")
        return np.ascontiguousarray(keys)

    def _publish(self, raw_keys: np.ndarray, values: np.ndarray) -> None:
        """Sort entries by key into a new segment and account the writes
        of bulk-loading it: each leaf, then each leaf again when its
        sibling links are set (after reading it back), then the internal
        levels bottom-up."""
        # Big-endian fixed-width keys: bytewise order == numeric order.
        order = np.argsort(raw_keys.view(f"S{raw_keys.shape[1]}").ravel(),
                           kind="stable")
        packed = bulk_layout(self._key_codec, raw_keys[order],
                             values[order], self.leaf_capacity,
                             self._fanout)
        self.packed = packed
        sink = self._sink
        for page_id in packed.leaf_pages.tolist():
            sink.record_write(page_id)
        sink.record_read_many(packed.leaf_pages)
        for page_id in np.concatenate(
                [packed.leaf_pages] + packed.level_pages[::-1]).tolist():
            sink.record_write(page_id)

    # -- persistence -------------------------------------------------------

    def state(self) -> dict:
        """Serializable state: curve geometry + entry count."""
        return {"dim": self.curve.dim, "order": self.curve.order,
                "num_references": self.num_references, "count": len(self)}

    @classmethod
    def from_arrays(cls, state: dict, arrays: dict[str, np.ndarray],
                    cache_pages: int = 0,
                    page_size: int = DEFAULT_PAGE_SIZE) -> "RDBTree":
        """Reopen a tree from :meth:`state` and its segment's
        ``PackedTree.to_arrays()`` (views stay zero-copy; no page is
        read).  Also accepts format-1 state, which nests the count under
        ``"tree"``.

        Raises:
            ValueError: If the arrays do not form a tree of the state's
                geometry and entry count.
        """
        curve = HilbertCurve(int(state["dim"]), int(state["order"]))
        tree = cls(curve, int(state["num_references"]),
                   cache_pages=cache_pages, page_size=page_size)
        count = int(state["count"] if "count" in state
                    else state["tree"]["count"])
        packed = PackedTree.from_arrays(tree._key_codec, arrays)
        expected = ((count, tree._key_codec.width),
                    (count, tree.record_dtype.itemsize))
        found = (packed.keys_raw.shape, packed.values_raw.shape)
        if found != expected or int(packed.leaf_starts[-1]) != count:
            raise ValueError(
                f"entry arrays {found} (leaves ending at "
                f"{int(packed.leaf_starts[-1])}) do not match {expected}")
        tree.packed = packed
        return tree

    # -- querying -----------------------------------------------------------

    def candidates(self, query_key,
                   alpha: int) -> tuple[np.ndarray, np.ndarray]:
        """α nearest entries by Hilbert key (Algo. 2 line 4).

        ``query_key`` is a Hilbert key as a Python int or as its
        ``key_bytes``-wide big-endian encoding (the batched encoder's
        native output).  Returns (object_ids, reference_distances) with
        shapes (α',) and (α', m), α' ≤ α when the tree is small.
        """
        packed = self.packed
        positions = packed.nearest_positions(self._raw_key(query_key),
                                             alpha, self._sink)
        records = packed.values_raw.reshape(-1).view(self.record_dtype)
        return (records["id"][positions].astype(np.int64),
                records["ref"][positions].astype(np.float64))

    def _raw_key(self, query_key) -> bytes:
        if isinstance(query_key, (bytes, bytearray, np.bytes_)):
            return bytes(query_key)
        return self._key_codec.encode(int(query_key))

    # -- accounting -------------------------------------------------------

    def __len__(self) -> int:
        return self.packed.count

    @property
    def height(self) -> int:
        packed = self.packed
        return len(packed.level_pages) + 1 if packed.count else 0

    @property
    def num_pages(self) -> int:
        """Pages of the node layout the segment stands for."""
        packed = self.packed
        return sum(pages.shape[0]
                   for pages in [packed.leaf_pages, *packed.level_pages])

    def size_bytes(self) -> int:
        """On-disk footprint of the node layout (Table 5's index size)."""
        return self.num_pages * self.page_size

    def memory_bytes(self) -> int:
        """Resident RAM the page cache models (0 with caching off)."""
        return 0 if self.cache is None else (
            self.cache.cached_pages() * self.page_size)


def bulk_layout(key_codec: Codec, keys_raw: np.ndarray,
                values_raw: np.ndarray, per_leaf: int,
                fanout: int) -> PackedTree:
    """Lay key-sorted entries out exactly as :meth:`BPlusTree.bulk_load`
    pages them on a fresh store: full leaves of ``per_leaf`` entries (the
    last one partial) on pages ``0 .. L-1``, then each internal level,
    bottom-up, grouping ``fanout`` children per node on the next free
    pages."""
    count = int(keys_raw.shape[0])
    nodes = -(-count // per_leaf)
    leaf_starts = np.minimum(
        np.arange(nodes + 1, dtype=np.int64) * per_leaf, count)
    leaf_pages = np.arange(nodes, dtype=np.int64)
    level_pages: list[np.ndarray] = []
    level_starts: list[np.ndarray] = []
    next_page = nodes
    while nodes > 1:
        groups = -(-nodes // fanout)
        level_pages.insert(0, np.arange(next_page, next_page + groups,
                                        dtype=np.int64))
        level_starts.insert(0, np.minimum(
            np.arange(groups + 1, dtype=np.int64) * fanout, nodes))
        next_page += groups
        nodes = groups
    return PackedTree(key_codec, keys_raw, values_raw, leaf_starts,
                      leaf_pages, level_pages, level_starts)


def node_oracle(tree: RDBTree) -> BPlusTree:
    """A node :class:`~repro.btree.tree.BPlusTree` bulk-loaded from an
    RDB-tree's packed entries, with the same leaf order Ω and page size.

    It has the same pages, page ids, answers and read traces as the
    segment, but reads real serialized node pages: its own packed copy
    is dropped, so every ``nearest`` walks nodes.  The test oracle for
    the packed read path (the sanitizer, ``bench_hotpath`` parity and the
    geometry tests).
    """
    packed = tree.packed
    oracle = BPlusTree(tree._key_codec,
                       BytesCodec(tree.record_dtype.itemsize),
                       leaf_capacity_override=tree.leaf_order,
                       page_size=tree.page_size)
    keys_raw, values_raw = packed.keys_raw, packed.values_raw
    oracle.bulk_load((keys_raw[position].tobytes(),
                      values_raw[position].tobytes())
                     for position in range(packed.count))
    oracle._packed = None
    return oracle
