"""The ``ingest-mixed`` workload: writes beside reads on one index.

A ``sift1m`` base of 10,000 rows is built with a write-ahead log
(``Execution(kind="sequential", wal=True)``, a ``storage_dir``, the
default fsync policy ``always``).  One writer thread inserts rows from
the same generator, deletes one live id per nine inserts, and calls
``compact()`` every :data:`COMPACT_EVERY` writes; one reader thread runs
closed-loop distinct ``query`` calls the whole time.  Writes are due at
a fixed rate, so compaction takes a steady share of each cycle (a
writer that falls behind catches up back to back).  Afterwards the
storage root is reopened from disk: every acknowledged insert must be
found at distance 0 by a self-query, and no deleted id may appear.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

import repro
from benchmarks.common import hd_params
from hdbench import trace
from hdbench.common import (
    K,
    dir_bytes,
    latency_ms,
    mean,
    median,
    peak_rss_mb,
    recall,
    remove,
    work_dir,
)
from repro import Execution, IndexSpec, exact_knn, make_dataset
from repro.wal.manager import read_current, wal_path

N = 10_000
#: Rows available to insert; far more than a run can write.
MAX_INSERTS = 6_000
DELETE_EVERY = 9
#: Writes per compaction cycle and the rate writes are due at: a 5 s
#: cycle, so several compactions complete in every run, each folding
#: ~45 rows through the node tree (~1 s on a 2-core host) and leaving
#: most of the cycle to reads without a compaction.
COMPACT_EVERY = 50
WRITE_QPS = 10.0
SETUP_REPEATS = 5
RECALL_QUERIES = 256


class Ingest:
    """One writer and one reader over one WAL-mode index."""

    def __init__(self, index, root, inserts, reads, seed):
        self.index, self.root = index, root
        self.inserts, self.reads = inserts, reads
        self.rng = np.random.default_rng([seed, 1])
        self.stop = threading.Event()
        self.live = list(range(N))
        self.acked: list[tuple[int, int]] = []   # (object id, insert row)
        self.deleted: list[int] = []
        self.write_latency: list[float] = []
        self.compact_s: list[float] = []
        self.generation_bytes: list[int] = []
        self.wal_bytes = 0
        self.read_latency: list[float] = []
        self.errors = 0
        self.write_s = self.read_s = 0.0

    def _writer(self) -> None:
        started = time.perf_counter()
        try:
            row = 0
            while not self.stop.is_set() and row < len(self.inserts):
                due = started + len(self.write_latency) / WRITE_QPS
                if self.stop.wait(max(0.0, due - time.perf_counter())):
                    break
                began = time.perf_counter()
                if (len(self.write_latency) + 1) % (DELETE_EVERY + 1) == 0:
                    victim = self.live.pop(
                        int(self.rng.integers(len(self.live))))
                    self.index.delete(victim)
                    self.deleted.append(victim)
                else:
                    object_id = self.index.insert(self.inserts[row])
                    self.acked.append((object_id, row))
                    self.live.append(object_id)
                    row += 1
                self.write_latency.append(time.perf_counter() - began)
                if len(self.write_latency) % COMPACT_EVERY == 0:
                    self.wal_bytes += os.path.getsize(wal_path(self.root))
                    began = time.perf_counter()
                    self.index.compact()
                    self.compact_s.append(time.perf_counter() - began)
                    self.generation_bytes.append(dir_bytes(
                        os.path.join(self.root, read_current(self.root))))
        except Exception:
            self.errors += 1
            raise
        finally:
            self.write_s = time.perf_counter() - started

    def _reader(self, traced: bool) -> None:
        started = time.perf_counter()
        try:
            for request, point in enumerate(self.reads):
                if self.stop.is_set():
                    break
                if traced:
                    trace.REQUEST.set(request)
                began = time.perf_counter()
                self.index.query(point, K)
                self.read_latency.append(time.perf_counter() - began)
        except Exception:
            self.errors += 1
            raise
        finally:
            self.read_s = time.perf_counter() - started

    def run(self, seconds: float, traced: bool) -> None:
        threads = [threading.Thread(target=self._writer),
                   threading.Thread(target=self._reader, args=(traced,))]
        for thread in threads:
            thread.start()
        time.sleep(seconds)
        self.stop.set()
        for thread in threads:
            thread.join(timeout=120)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("ingest threads did not stop")
        self.wal_bytes += os.path.getsize(wal_path(self.root))


def _check(run: Ingest, base, queries):
    """Reopen from disk; count acknowledged inserts not found at distance
    0 by a self-query and deleted ids that surface; recall of reader
    queries against the final live set."""
    deleted = set(run.deleted)
    kept = [(object_id, row) for object_id, row in run.acked
            if object_id not in deleted]
    vectors = {object_id: run.inserts[row] for object_id, row in run.acked}
    failed = 0
    with repro.open(run.root) as index:
        if kept:
            ids, dists = index.query_batch(
                np.asarray([run.inserts[row] for _, row in kept]), K)
            for (object_id, _), got, dist in zip(kept, ids, dists):
                at = np.flatnonzero(got == object_id)
                failed += not (at.size and dist[at[0]] == 0.0)
                failed += bool(deleted.intersection(got.tolist()))
        if deleted:
            probes = np.asarray([vectors[i] if i >= N else base[i]
                                 for i in sorted(deleted)])
            ids, _ = index.query_batch(probes, K)
            failed += int(np.isin(ids, sorted(deleted)).any(axis=1).sum())
        live_ids = np.asarray(sorted(run.live), dtype=np.int64)
        live = np.asarray([vectors[i] if i >= N else base[i]
                           for i in live_ids])
        found, _ = index.query_batch(queries, K)
    exact, _ = exact_knn(live, queries, K)
    return failed, recall(found, live_ids[exact])


def ingest_mixed(seed: int, seconds: float, tracing: bool) -> dict:
    reads = int(seconds * 400)
    data = make_dataset("sift1m", n=N + MAX_INSERTS,
                        num_queries=reads + RECALL_QUERIES, seed=seed)
    base, inserts = data.data[:N], data.data[N:]
    queries = data.queries[:reads]
    spec = IndexSpec(params=hd_params(data.spec, N), backend="mmap",
                     execution=Execution(kind="sequential", wal=True))
    top = work_dir("ingest-")
    setup, indexes = [], []
    keep = 2 if tracing else 1  # a traced run uses the last two
    try:
        for repeat in range(SETUP_REPEATS):
            root = os.path.join(top, f"index-{repeat}")
            started = time.perf_counter()
            indexes.append((repro.build(spec, base, storage_dir=root), root))
            setup.append(time.perf_counter() - started)
            for index, _ in indexes[:-keep]:
                index.close()
        runs = [Ingest(index, root, inserts, queries, seed)
                for index, root in indexes[-keep:]]
        layers = None
        if tracing:
            plain, run = runs
            plain.run(seconds / 2, False)
            plain.index.close()
            tracer = trace.Tracer()
            trace.install(tracer)
            try:
                run.run(seconds / 2, True)
            finally:
                tracer.uninstall()
            layers = trace.summarize(tracer.spans, len(run.read_latency))
            layers.update(trace.write_figures(tracer.spans))
            common = min(len(plain.read_latency), len(run.read_latency))
            layers.update({
                "compaction.bytes_written": mean(run.generation_bytes),
                "setup.build_s": median(setup),
                "trace.overhead_pct": 100.0 * (
                    sum(run.read_latency[:common])
                    / sum(plain.read_latency[:common]) - 1.0),
                "trace.spans_per_row": len(tracer.spans) / max(
                    1, len(run.read_latency)),
            })
        else:
            run, = runs
            run.run(seconds, False)
        run.index.close()
        rss = peak_rss_mb()
        disk = dir_bytes(run.root)
        failed, score = _check(run, base,
                               data.queries[reads:reads + RECALL_QUERIES])
    finally:
        for index, _ in indexes:
            index.close()
        remove(top)

    row_bytes = base.shape[1] * 8
    inserted = len(run.acked)
    writes = len(run.write_latency)
    reading = latency_ms(run.read_latency)
    writing = latency_ms(run.write_latency)
    result = {
        "correct": failed == 0 and run.errors == 0 and bool(run.compact_s),
        "attempted": writes + len(run.read_latency),
        "failed": failed + run.errors,
        "metrics": {
            "setup_s": (median(setup), "s"),
            "peak_rss_mb": (rss, "MiB"),
            "qps": (len(run.read_latency) / run.read_s, "1/s"),
            "p50_ms": (reading["p50_ms"], "ms"),
            "p90_ms": (reading["p90_ms"], "ms"),
            "p99_ms": (reading["p99_ms"], "ms"),
            "recall_at_10": (score, "ratio"),
            "write_ops_per_s": (writes / run.write_s, "1/s"),
            "write_p99_ms": (writing["p99_ms"], "ms"),
            "compact_s": (median(run.compact_s) if run.compact_s else 0.0,
                          "s"),
            "disk_bytes_per_user_byte": (
                disk / (len(run.live) * row_bytes), "ratio"),
            "write_amp": ((run.wal_bytes + sum(run.generation_bytes))
                          / max(1, inserted * row_bytes), "ratio"),
        },
        "notes": {
            "latency_samples": reading["samples"],
            "beyond_p99": reading["beyond_p99"],
            "write_samples": writing["samples"],
            "compactions": len(run.compact_s),
            "fsync": "always",
            "setup_runs_s": setup,
        },
    }
    if layers is not None:
        result["layers"] = layers
    return result
