"""One mutation path and one fold for every index.

Every insert lands in the delta segment (exact until folded), whether or
not a write-ahead log is attached.  ``compact()`` folds it on every
index — in place without a log, into a published generation with one —
and ``save_index`` folds a log-less index before writing.  All three
produce the same trees: the same entry order and float32 reference
distances, hence the same answers.
"""

import numpy as np
import pytest

import repro
from repro import Execution, HDIndexParams, IndexSpec, Topology
from repro.core import HDIndex, load_index, save_index
from repro.core.persistence import PersistenceError

N = 300
DIM = 10


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(23)
    return (rng.uniform(0.0, 100.0, size=(N, DIM)),
            rng.uniform(0.0, 100.0, size=(16, DIM)))


def _params(**overrides):
    values = dict(num_trees=3, num_references=4, alpha=48, gamma=12,
                  domain=(0.0, 100.0), seed=5)
    values.update(overrides)
    return HDIndexParams(**values)


def _answers(index, queries):
    return [index.query(query, 5) for query in queries]


def _assert_same(got, want):
    for (ids, dists), (want_ids, want_dists) in zip(got, want):
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(dists, want_dists)


def _segments(index):
    return [(tree.packed.keys_raw.tobytes(), tree.packed.values_raw.tobytes())
            for tree in index.trees]


class TestInsertWithoutLog:
    def test_insert_is_an_exact_delta_row(self, data):
        base, extra = data
        index = HDIndex(_params())
        index.build(base)
        new_id = index.insert(extra[0])
        assert new_id == N
        assert len(index._delta) == 1
        assert all(len(tree) == N for tree in index.trees)
        ids, dists = index.query(extra[0], 1)
        # Exact up to the float32 heap representation.
        assert int(ids[0]) == new_id and float(dists[0]) < 1e-4
        index.close()


class TestOneFold:
    def test_compact_without_log_folds_in_place(self, data):
        base, extra = data
        index = HDIndex(_params())
        index.build(base)
        for vector in extra:
            index.insert(vector)
        index.delete(3)
        assert index.compact() == 0
        assert index._delta is None
        assert len(index.heap) == index.count == N + len(extra)
        assert all(len(tree) == N + len(extra) for tree in index.trees)
        assert index.compact() == 0  # nothing pending: a no-op
        index.close()

    def test_all_folds_build_identical_trees(self, data, tmp_path):
        base, extra = data
        queries = np.vstack([extra + 0.5, base[:4]])

        in_place = HDIndex(_params())
        in_place.build(base)
        saved = HDIndex(_params())
        saved.build(base)
        logged = repro.build(
            IndexSpec(params=_params(), execution=Execution(wal=True)),
            base, storage_dir=str(tmp_path / "wal"))
        for vector in extra:
            for index in (in_place, saved, logged):
                index.insert(vector)
        in_place.compact()
        save_index(saved, tmp_path / "saved")
        assert logged.compact() == 1

        reopened = load_index(tmp_path / "saved")
        expected = _segments(in_place)
        for other in (saved, logged, reopened):
            assert _segments(other) == expected
        want = _answers(in_place, queries)
        for other in (saved, logged, reopened):
            _assert_same(_answers(other, queries), want)
        for index in (in_place, saved, logged, reopened):
            index.close()

    def test_wal_backed_save_still_refuses_pending_inserts(self, data,
                                                           tmp_path):
        base, extra = data
        index = repro.build(
            IndexSpec(params=_params(), execution=Execution(wal=True)),
            base, storage_dir=str(tmp_path / "wal"))
        index.insert(extra[0])
        with pytest.raises(PersistenceError, match="compact"):
            save_index(index, tmp_path / "elsewhere")
        index.close()


class TestRouterAndProcess:
    def test_router_compact_without_log(self, data, tmp_path):
        base, extra = data
        spec = IndexSpec(params=_params(), topology=Topology(shards=2))
        router = repro.build(spec, base)
        logged = repro.build(
            IndexSpec(params=_params(), topology=Topology(shards=2),
                      execution=Execution(wal=True)),
            base, storage_dir=str(tmp_path / "wal"))
        for vector in extra:
            router.insert(vector)
            logged.insert(vector)
        router.compact()
        logged.compact()
        assert all(shard._delta is None for shard in router.shards)
        queries = extra + 0.5
        _assert_same(_answers(router, queries), _answers(logged, queries))
        router.close()
        logged.close()

    def test_process_index_without_log(self, data, tmp_path):
        base, extra = data
        spec = IndexSpec(params=_params(),
                         execution=Execution(kind="process", workers=2,
                                             wal=False))
        index = repro.build(spec, base, storage_dir=str(tmp_path / "proc"))
        oracle = HDIndex(_params())
        oracle.build(base)
        try:
            for vector in extra[:6]:
                index.insert(vector)
                oracle.insert(vector)
            # Workers scan the unchanged snapshot; the parent searches the
            # delta, so the answers already include the inserts.
            queries = extra[:6] + 0.25
            _assert_same(_answers(index, queries), _answers(oracle, queries))
            index.compact()
            oracle.compact()
            _assert_same(_answers(index, queries), _answers(oracle, queries))
            with load_index(tmp_path / "proc", wal=False) as reopened:
                assert reopened.count == N + 6
        finally:
            index.close()
            oracle.close()
