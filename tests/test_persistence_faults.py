"""Fault injection on snapshot tree files, and format compatibility.

Each RDB-tree is persisted as one ``tree_<i>.packed`` file.  A missing,
truncated or corrupt file — or one whose entry count disagrees with
``meta.json`` — must fail the load with a typed
:class:`~repro.core.persistence.PersistenceError` naming the file, on
every backend, never a raw decode error and never a silent fallback.
Format-1 snapshots (node pages beside the packed files) still open.
"""

import json
import os

import numpy as np
import pytest

from repro.core import HDIndex, HDIndexParams, load_index, save_index
from repro.core.persistence import PersistenceError

BACKENDS = ("memory", "file", "mmap")


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(17)
    return rng.uniform(0.0, 100.0, size=(400, 12))


def _params():
    return HDIndexParams(num_trees=3, num_references=4, alpha=64, gamma=16,
                         domain=(0.0, 100.0), seed=2)


@pytest.fixture()
def snapshot(data, tmp_path):
    index = HDIndex(_params())
    index.build(data)
    directory = tmp_path / "snap"
    save_index(index, directory)
    index.close()
    return directory


def _answers(index, queries):
    return [index.query(query, 5) for query in queries]


def _truncate(path):
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(size // 2)


def _flip(offset, mask):
    def fault(path):
        raw = bytearray(path.read_bytes())
        raw[offset] ^= mask
        path.write_bytes(bytes(raw))
    return fault


FAULTS = {
    "truncated": _truncate,
    "empty": lambda path: path.write_bytes(b""),
    "magic-bit": _flip(0, 0x01),
    "header-length-bit": _flip(6, 0x01),
    "header-json-bit": _flip(10, 0x01),
    "header-utf8-bit": _flip(11, 0x80),
}


class TestTreeFileFaults:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_corrupt_tree_file_raises_typed_error(self, snapshot, backend,
                                                  fault):
        FAULTS[fault](snapshot / "tree_1.packed")
        with pytest.raises(PersistenceError, match="tree_1.packed"):
            load_index(snapshot, backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_missing_tree_file_raises_typed_error(self, snapshot, backend):
        os.remove(snapshot / "tree_2.packed")
        with pytest.raises(PersistenceError, match="tree_2.packed.*missing"):
            load_index(snapshot, backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_count_mismatch_with_meta_raises(self, snapshot, backend):
        meta_path = snapshot / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["trees"][0]["count"] += 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(PersistenceError, match="tree_0.packed"):
            load_index(snapshot, backend=backend)


class TestSnapshotFormat:
    def test_snapshot_holds_one_file_per_tree(self, snapshot):
        names = sorted(os.listdir(snapshot))
        assert [n for n in names if n.startswith("tree_")] == [
            "tree_0.packed", "tree_1.packed", "tree_2.packed"]
        meta = json.loads((snapshot / "meta.json").read_text())
        assert meta["format_version"] == 2

    def _downgrade_to_format_1(self, snapshot):
        """Rewrite a snapshot into the format-1 shape: node page files
        beside the packed files and the nested per-tree state."""
        meta_path = snapshot / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 1
        for tree_index, state in enumerate(meta["trees"]):
            count = state.pop("count")
            state["tree"] = {"root": 0, "height": 1, "count": count,
                             "leaf_capacity": 1}
            (snapshot / f"tree_{tree_index}.pages").write_bytes(
                bytes(4096))
        meta_path.write_text(json.dumps(meta))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_format_1_snapshot_opens(self, data, snapshot, backend):
        queries = data[:6] + 0.5
        with load_index(snapshot) as index:
            expected = _answers(index, queries)
        self._downgrade_to_format_1(snapshot)
        with load_index(snapshot, backend=backend) as index:
            for (ids, dists), (want_ids, want_dists) in zip(
                    _answers(index, queries), expected):
                np.testing.assert_array_equal(ids, want_ids)
                np.testing.assert_array_equal(dists, want_dists)

    def test_format_1_resave_drops_node_pages(self, snapshot, tmp_path):
        self._downgrade_to_format_1(snapshot)
        with load_index(snapshot) as index:
            save_index(index, snapshot)
        assert not any(name.endswith(".pages") and name.startswith("tree_")
                       for name in os.listdir(snapshot))
        with load_index(snapshot) as index:
            assert len(index.trees) == 3

    def test_format_1_without_packed_file_raises(self, snapshot):
        self._downgrade_to_format_1(snapshot)
        os.remove(snapshot / "tree_0.packed")
        with pytest.raises(PersistenceError, match="tree_0.packed"):
            load_index(snapshot)
