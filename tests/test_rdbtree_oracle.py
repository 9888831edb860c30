"""Packed RDB-tree segments vs the node B+-tree oracle.

An RDB-tree is one packed segment laid out as ``BPlusTree.bulk_load``
would page it; :func:`repro.core.rdbtree.node_oracle` bulk-loads that
node tree from the segment's entries.  These tests walk the oracle's
serialized nodes and require the segment to match them byte for byte
(keys, leaf records, leaf and internal page ids, child ranges) at the
edge sizes of the layout, require identical answers and I/O accounting
call by call, and check that a fold (``RDBTree.insert``) orders entries
exactly as one-at-a-time node inserts do.
"""

import numpy as np
import pytest

from repro.btree.node import InternalNode
from repro.core.rdbtree import RDBTree, node_oracle
from repro.hilbert import HilbertCurve
from repro.storage.buffer import BufferPool

#: 64-d partitions at order 8 with m=10: leaf capacity 36, fan-out 57.
CURVE = HilbertCurve(64, 8)
M = 10
#: Around one leaf, one full root (56 leaves), a root at full fan-out
#: (57 leaves) and a second internal level.
SIZES = (1, 2, 35, 36, 37, 500, 2016, 2017, 2052, 2053, 8000, 20000)


def entries(n, seed=0):
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, 256, size=(n, CURVE.dim))
    keys = CURVE.encode_batch_bytes(coords)
    references = rng.uniform(0.0, 100.0, size=(n, M))
    return keys, references


def build(n, seed=0):
    keys, references = entries(n, seed)
    tree = RDBTree(CURVE, M)
    tree.bulk_build(keys, np.arange(n), references)
    return tree


def node_layout(oracle):
    """The oracle's layout read back from its serialized nodes: root-first
    internal levels (page ids, child prefix sums), leaf page ids, leaf
    prefix sums, and every entry's key and value bytes in leaf order."""
    level = [oracle._root]
    level_pages, level_starts = [], []
    for _ in range(oracle.height - 1):
        children, starts = [], [0]
        for page_id in level:
            node = oracle._read_node(page_id)
            assert isinstance(node, InternalNode)
            children.extend(node.children)
            starts.append(len(children))
        level_pages.append(level)
        level_starts.append(starts)
        level = children
    keys, values, leaf_starts = [], [], [0]
    for page_id in level:
        node = oracle._read_leaf(page_id)
        keys.extend(bytes(key) for key in node.keys)
        values.extend(bytes(value) for value in node.values)
        leaf_starts.append(len(keys))
    return level_pages, level_starts, level, leaf_starts, keys, values


def assert_same_layout(tree):
    packed = tree.packed
    (level_pages, level_starts, leaf_pages, leaf_starts, keys,
     values) = node_layout(node_oracle(tree))
    assert [p.tolist() for p in packed.level_pages] == level_pages
    assert [s.tolist() for s in packed.level_starts] == level_starts
    assert packed.leaf_pages.tolist() == leaf_pages
    assert packed.leaf_starts.tolist() == leaf_starts
    assert b"".join(keys) == packed.keys_raw.tobytes()
    assert b"".join(values) == packed.values_raw.tobytes()


class TestGeometryParity:
    @pytest.mark.parametrize("n", SIZES)
    def test_bulk_build_matches_node_pages(self, n):
        tree = build(n)
        assert tree.leaf_capacity == 36 and tree._fanout == 57
        assert_same_layout(tree)
        oracle = node_oracle(tree)
        assert tree.height == oracle.height
        assert tree.size_bytes() == oracle.size_bytes()

    def test_fold_matches_node_pages(self):
        tree = build(2016)
        keys, references = entries(40, seed=1)
        tree.insert(keys, np.arange(2016, 2056), references)
        assert len(tree) == 2056
        assert_same_layout(tree)


class TestReadParity:
    @pytest.mark.parametrize("n", (37, 2017, 8000))
    def test_answers_and_io_match_call_by_call(self, n):
        tree = build(n)
        oracle = node_oracle(tree)
        keys, _ = entries(12, seed=2)
        assert tree.stats.snapshot() == oracle.stats.snapshot()
        for key, alpha in zip(keys, (1, 7, 36, 37, 100, 500, n, n + 9)
                              * 2):
            ids, references = tree.candidates(key.tobytes(), alpha)
            nearest = oracle.nearest(key.tobytes(), alpha)
            records = np.frombuffer(b"".join(v for _, v in nearest),
                                    dtype=tree.record_dtype)
            np.testing.assert_array_equal(ids, records["id"])
            np.testing.assert_array_equal(
                references, records["ref"].astype(np.float64))
            # Totals and the random/sequential split, reads and writes.
            assert tree.stats.snapshot() == oracle.stats.snapshot()


class TestFoldOrder:
    def test_fold_equals_one_at_a_time_node_inserts(self):
        base_keys, base_refs = entries(300, seed=3)
        tree = RDBTree(CURVE, M)
        tree.bulk_build(base_keys, np.arange(300), base_refs)
        oracle = node_oracle(tree)
        new_keys, new_refs = entries(60, seed=4)
        # Duplicate keys, both against the base and among the new entries.
        new_keys[:10] = base_keys[[5, 5, 17, 17, 17, 250, 0, 299, 5, 42]]
        new_keys[10:14] = new_keys[20]
        new_ids = np.arange(300, 360)
        for key, object_id, row in zip(new_keys, new_ids, new_refs):
            record = np.empty(1, dtype=tree.record_dtype)
            record["id"], record["ref"] = object_id, row
            oracle.insert(key.tobytes(), record.tobytes())
        tree.insert(new_keys, new_ids, new_refs)
        packed = tree.packed
        assert [(bytes(k), bytes(v)) for k, v in oracle.items()] == [
            (packed.keys_raw[i].tobytes(), packed.values_raw[i].tobytes())
            for i in range(packed.count)]

    def test_single_entry_insert_form(self):
        tree = build(50)
        tree.insert(12345, 999, np.linspace(0, 1, M))
        batch = build(50)
        batch.insert(np.asarray([12345], dtype=object), np.asarray([999]),
                     np.linspace(0, 1, M)[None, :])
        assert tree.packed.keys_raw.tobytes() == \
            batch.packed.keys_raw.tobytes()
        assert tree.packed.values_raw.tobytes() == \
            batch.packed.values_raw.tobytes()


class TestCachedReads:
    def test_lru_replay_matches_node_buffer_pool(self):
        tree = RDBTree(CURVE, M, cache_pages=16)
        keys, references = entries(4000, seed=5)
        tree.bulk_build(keys, np.arange(4000), references)
        oracle = node_oracle(tree)
        oracle.pool = BufferPool(oracle._store, capacity=16)
        tree.cache.clear()
        probes, _ = entries(20, seed=6)
        before = tree.stats.snapshot(), oracle.stats.snapshot()
        for key in np.concatenate([probes, probes[:5]]):
            tree.candidates(key.tobytes(), 120)
            oracle.nearest(key.tobytes(), 120)
        after = tree.stats.snapshot(), oracle.stats.snapshot()
        tree_delta, node_delta = ({field: end[field] - start[field]
                                   for field in start}
                                  for start, end in zip(before, after))
        assert tree_delta["cache_hits"] > 0
        assert tree_delta == node_delta
        assert tree.memory_bytes() == oracle.pool.memory_bytes()
