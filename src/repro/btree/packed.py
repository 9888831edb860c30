"""Packed-array B+-tree layout: the RDB-tree's one storage form.

The node-based B+-tree (:mod:`repro.btree.tree`) materialises a
``LeafNode``/``InternalNode`` object per visited page and walks Python
generators entry by entry.  A :class:`PackedTree` holds the same tree as
contiguous arrays instead: every key and value in one sorted array, plus
the leaf/internal page geometry, so

* descent is ``np.searchsorted`` over the per-leaf minimum keys,
* :meth:`BPlusTree.nearest`'s bidirectional merge is a rank computation
  over two sorted distance windows, and
* range scans slice the arrays directly.

Every RDB-tree *is* one immutable packed segment
(:mod:`repro.core.rdbtree`), persisted as one ``tree_<i>.packed`` file
via :func:`repro.storage.codecs.pack_arrays`; an mmap reopen maps it
zero-copy, so a process pool shares one physical copy.  Node B+-trees
(the baselines, the test oracle) capture a packed copy while bulk
loading and use it as a read accelerator.

The I/O accounting is *synthesised*: :meth:`nearest_positions` and
:meth:`range_entries` replay, against :class:`~repro.storage.stats.IOStats`
(or any sink with ``record_read_many``), precisely the page-read
sequence the node layout would have issued, so the paper's I/O figures
are those of the disk-resident tree.  Answers and traces are
byte-identical to a node B+-tree bulk-loaded from the same entries
(:func:`repro.core.rdbtree.node_oracle`).
"""

from __future__ import annotations

import numpy as np

from repro.storage.codecs import Codec, Float64Codec, UInt64Codec, UIntCodec

_WORD_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)


def key_kind(codec: Codec) -> str | None:
    """``'uint'``/``'float'`` when the codec's keys admit vectorised
    distance arithmetic, else ``None`` (packing disabled)."""
    if isinstance(codec, Float64Codec):
        return "float"
    if isinstance(codec, (UIntCodec, UInt64Codec)):
        return "uint"
    return None


def supports_packing(codec: Codec) -> bool:
    """Whether a tree keyed by this codec can carry a packed layout."""
    return key_kind(codec) is not None


class PackedTree:
    """One B+-tree as contiguous arrays.

    Parameters
    ----------
    key_codec:
        The tree's key codec (must satisfy :func:`supports_packing`).
    keys_raw / values_raw:
        ``(n, key_width)`` / ``(n, value_width)`` uint8 arrays holding every
        entry in global key order — the exact bytes stored in the leaves.
        May be read-only views over an mmap'd tree file.
    leaf_starts:
        ``(L + 1,)`` prefix array: leaf ``l`` holds entries
        ``[leaf_starts[l], leaf_starts[l + 1])``.
    leaf_pages:
        ``(L,)`` page ids of the leaves, left to right.
    level_pages / level_starts:
        Per internal level (root level first): the level's node page ids and
        the prefix array of its nodes' child counts.  Used only to synthesise
        the descent portion of the I/O trace.
    """

    def __init__(self, key_codec: Codec, keys_raw: np.ndarray,
                 values_raw: np.ndarray, leaf_starts: np.ndarray,
                 leaf_pages: np.ndarray, level_pages: list[np.ndarray],
                 level_starts: list[np.ndarray]) -> None:
        kind = key_kind(key_codec)
        if kind is None:
            raise ValueError(
                f"cannot pack keys of {type(key_codec).__name__}")
        self._kind = kind
        self._key_codec = key_codec
        self.key_width = key_codec.width
        self.keys_raw = np.ascontiguousarray(keys_raw, dtype=np.uint8)
        self.values_raw = np.ascontiguousarray(values_raw, dtype=np.uint8)
        self.count = int(self.keys_raw.shape[0])
        self.value_width = int(self.values_raw.shape[1])
        self.leaf_starts = np.asarray(leaf_starts, dtype=np.int64)
        self.leaf_pages = np.asarray(leaf_pages, dtype=np.int64)
        self.level_pages = [np.asarray(p, dtype=np.int64)
                            for p in level_pages]
        self.level_starts = [np.asarray(s, dtype=np.int64)
                             for s in level_starts]
        #: Words per key for the multiword (> 8-byte) distance kernel.
        self._words = -(-self.key_width // 8)
        # Codecs guarantee bytewise order == numeric order, so every binary
        # search runs on a zero-copy 'S' view of the raw key bytes.
        self.key_S = self.keys_raw.view(f"S{self.key_width}").ravel()
        self.min_key_S = self.key_S[self.leaf_starts[:-1]]

    # -- searches ---------------------------------------------------------

    def nearest_positions(self, key: bytes, count: int,
                          stats=None) -> np.ndarray:
        """Global entry positions of the ``count`` nearest-by-key entries,
        in exactly the order the node path's bidirectional merge emits them
        (forward wins distance ties; within a direction, key order).

        When ``stats`` is given, the page-read sequence the node path would
        have issued for the same call is replayed into it.
        """
        n = self.count
        if count <= 0 or n == 0:
            return np.empty(0, dtype=np.int64)
        scalar = self._scalar(key)
        gbl = int(np.searchsorted(self.key_S, scalar, side="left"))
        leaf = max(0, int(np.searchsorted(self.min_key_S, scalar,
                                          side="right")) - 1)
        split = max(gbl, int(self.leaf_starts[leaf]))
        forward_take = min(count, n - split)
        backward_take = min(count, split)
        dist_f, dist_b = self._window_distances(key, split, forward_take,
                                                backward_take)
        rank_f = (np.arange(forward_take, dtype=np.int64)
                  + np.searchsorted(dist_b, dist_f, side="left"))
        rank_b = (np.arange(backward_take, dtype=np.int64)
                  + np.searchsorted(dist_f, dist_b, side="right"))
        total = min(count, n)
        picked_f = np.flatnonzero(rank_f < total)
        picked_b = np.flatnonzero(rank_b < total)
        out = np.empty(total, dtype=np.int64)
        out[rank_f[picked_f]] = split + picked_f
        out[rank_b[picked_b]] = split - 1 - picked_b
        if stats is not None:
            stats.record_read_many(self._nearest_trace(
                leaf, split, rank_f, rank_b, picked_f.size, picked_b.size))
        return out

    def entries(self, positions: np.ndarray) -> list[tuple[bytes, bytes]]:
        """Materialise ``(key, value)`` byte pairs for global positions."""
        keys_raw, values_raw = self.keys_raw, self.values_raw
        return [(keys_raw[p].tobytes(), values_raw[p].tobytes())
                for p in positions]

    def range_entries(self, low: bytes, high: bytes, stats=None):
        """Yield ``(key, value)`` pairs with ``low <= key <= high``.

        A generator, like the node path: nothing happens until first
        consumption, and leaf-boundary page reads are replayed into
        ``stats`` at the same points of the iteration where the node path
        would issue them.
        """
        n = self.count
        if n == 0 or low > high:
            return
        low_s, high_s = self._scalar(low), self._scalar(high)
        leaf = max(0, int(np.searchsorted(self.min_key_S, low_s,
                                          side="left")) - 1)
        start = int(np.searchsorted(self.key_S, low_s, side="left"))
        end = int(np.searchsorted(self.key_S, high_s, side="right"))
        starts, pages = self.leaf_starts, self.leaf_pages
        trace = self._descent_pages(leaf)
        trace.append(int(pages[leaf]))
        if start < n and start == int(starts[leaf + 1]):
            # The landing leaf has no in-range entry: the node path walks
            # one sibling right before it can decide anything.
            leaf += 1
            trace.append(int(pages[leaf]))
        if stats is not None:
            stats.record_read_many(np.asarray(trace, dtype=np.int64))
        keys_raw, values_raw = self.keys_raw, self.values_raw
        position = start
        while position < end:
            yield keys_raw[position].tobytes(), values_raw[position].tobytes()
            position += 1
            if position < n and position == int(starts[leaf + 1]):
                leaf += 1
                if stats is not None:
                    stats.record_read(int(pages[leaf]))

    # -- distance kernels -------------------------------------------------

    def _scalar(self, key: bytes):
        return np.frombuffer(key, dtype=f"S{self.key_width}", count=1)[0]

    def _window_distances(self, key: bytes, split: int, forward_take: int,
                          backward_take: int) -> tuple[np.ndarray, np.ndarray]:
        """Ascending |key distance| arrays for the forward window
        ``[split, split + forward_take)`` and the backward window
        ``[split - backward_take, split)`` (nearest first).  Comparable
        across the two arrays: numeric dtype for <= 8-byte keys, big-endian
        difference bytes (lexicographic == numeric) for wider keys."""
        if self._kind == "uint" and self.key_width > 8:
            target = self._target_words(key)
            fwd = self._word_window(split, split + forward_take)
            bwd = self._word_window(split - backward_take, split)[::-1]
            return (_words_to_sortable(_subtract_words(fwd, target[None, :])),
                    _words_to_sortable(_subtract_words(
                        np.broadcast_to(target, bwd.shape), bwd)))
        target = self._key_codec.decode(key)
        fwd = self._numeric_window(split, split + forward_take)
        bwd = self._numeric_window(split - backward_take, split)[::-1]
        if self._kind == "uint":
            target = np.uint64(target)
        else:
            target = np.float64(target)
        # Windows lie on the proper side of the split, so both differences
        # are non-negative and need no abs().
        return fwd - target, target - bwd

    def _numeric_window(self, lo: int, hi: int) -> np.ndarray:
        raw = self.keys_raw[lo:hi]
        if self._kind == "float":
            bits = raw.view(">u8").ravel().astype(np.uint64)
            sign = np.uint64(1) << np.uint64(63)
            decoded = np.where(bits & sign != 0, bits & ~sign, ~bits)
            return decoded.view(np.float64)
        width = self.key_width
        padded = np.zeros((hi - lo, 8), dtype=np.uint8)
        padded[:, 8 - width:] = raw
        return padded.view(">u8").ravel().astype(np.uint64)

    def _word_window(self, lo: int, hi: int) -> np.ndarray:
        padded = np.zeros((hi - lo, 8 * self._words), dtype=np.uint8)
        padded[:, 8 * self._words - self.key_width:] = self.keys_raw[lo:hi]
        return padded.view(">u8").astype(np.uint64)

    def _target_words(self, key: bytes) -> np.ndarray:
        padded = bytes(8 * self._words - self.key_width) + key
        return np.frombuffer(padded, dtype=">u8").astype(np.uint64)

    # -- synthetic I/O traces ---------------------------------------------

    def _descent_pages(self, leaf_index: int) -> list[int]:
        """Root-first internal pages a descent to this leaf reads (its
        ancestor chain — the same pages whichever bisect variant routed
        there)."""
        pages: list[int] = []
        index = leaf_index
        for level in range(len(self.level_pages) - 1, -1, -1):
            index = int(np.searchsorted(self.level_starts[level], index,
                                        side="right")) - 1
            pages.append(int(self.level_pages[level][index]))
        pages.reverse()
        return pages

    def _nearest_trace(self, leaf: int, split: int, rank_f: np.ndarray,
                       rank_b: np.ndarray, forward_picks: int,
                       backward_picks: int) -> np.ndarray:
        """The node path's exact read sequence for one ``nearest`` call.

        Both scan generators descend (the internal chain appears twice) and
        read the landing leaf; each may read one sibling before producing
        its first entry.  After that, a stream reads its next leaf on the
        lookahead ``next()`` that follows each pick, so every later read is
        keyed to the merge rank of the pick that triggered it.
        """
        n = self.count
        starts, pages = self.leaf_starts, self.leaf_pages
        trace = self._descent_pages(leaf)
        trace.append(int(pages[leaf]))
        if split < n and split == int(starts[leaf + 1]):
            trace.append(int(pages[leaf + 1]))
        trace += self._descent_pages(leaf)
        trace.append(int(pages[leaf]))
        if 0 < split == int(starts[leaf]):
            trace.append(int(pages[leaf - 1]))
        events: list[tuple[int, int]] = []
        # Forward: entry i (position split + i) is consumed by the call
        # after forward pick #i, and reads a page iff it opens a new leaf.
        limit = min(forward_picks, n - split - 1)
        if limit >= 1:
            lo = int(np.searchsorted(starts, split + 1, side="left"))
            hi = int(np.searchsorted(starts, split + limit, side="right"))
            for index in range(lo, hi):
                entry = int(starts[index]) - split
                events.append((int(rank_f[entry - 1]), int(pages[index])))
        # Backward: entry t (position split - 1 - t) reads its leaf's left
        # sibling iff it closes the current leaf.
        limit = min(backward_picks, split - 1)
        if limit >= 1:
            lo = int(np.searchsorted(starts, split - limit, side="left"))
            hi = int(np.searchsorted(starts, split - 1, side="right"))
            for index in range(lo, hi):
                entry = split - int(starts[index])
                events.append((int(rank_b[entry - 1]), int(pages[index - 1])))
        events.sort()
        trace.extend(page for _, page in events)
        return np.asarray(trace, dtype=np.int64)

    # -- serialisation ----------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flat named-array form for :func:`repro.storage.codecs.pack_arrays`."""
        arrays = {
            "keys": self.keys_raw,
            "values": self.values_raw,
            "leaf_starts": self.leaf_starts,
            "leaf_pages": self.leaf_pages,
            "num_levels": np.asarray([len(self.level_pages)],
                                     dtype=np.int64),
        }
        for level, (page_ids, child_starts) in enumerate(
                zip(self.level_pages, self.level_starts)):
            arrays[f"level_{level}_pages"] = page_ids
            arrays[f"level_{level}_starts"] = child_starts
        return arrays

    @classmethod
    def from_arrays(cls, key_codec: Codec,
                    arrays: dict[str, np.ndarray]) -> "PackedTree":
        """Rebuild from :meth:`to_arrays` output (views stay zero-copy)."""
        num_levels = int(arrays["num_levels"][0])
        return cls(
            key_codec, arrays["keys"], arrays["values"],
            arrays["leaf_starts"], arrays["leaf_pages"],
            [arrays[f"level_{level}_pages"] for level in range(num_levels)],
            [arrays[f"level_{level}_starts"] for level in range(num_levels)])


def _subtract_words(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiword big-endian ``a - b`` over ``(k, W)`` uint64 matrices
    (word 0 most significant; ``a >= b`` numerically row-wise)."""
    a, b = np.broadcast_arrays(a, b)
    out = np.empty(a.shape, dtype=np.uint64)
    borrow = np.zeros(a.shape[0], dtype=bool)
    # a.shape[1] is the per-key word count (key_width/8, a small build-time
    # constant), not the entry count; each iteration is a full-width
    # vectorised column operation.
    for word in range(a.shape[1] - 1, -1, -1):  # lint: disable=HK101
        a_w, b_w = a[:, word], b[:, word]
        subtrahend = b_w + borrow.astype(np.uint64)
        wraps = borrow & (b_w == _WORD_MAX)
        out[:, word] = a_w - subtrahend
        borrow = wraps | (a_w < subtrahend)
    return out


def _words_to_sortable(words: np.ndarray) -> np.ndarray:
    """Big-endian byte strings of multiword values: lexicographic order on
    the result equals numeric order on the inputs."""
    raw = np.ascontiguousarray(words.astype(">u8"))
    return raw.view(f"S{8 * words.shape[1]}").ravel()
