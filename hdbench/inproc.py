"""The two in-process query workloads.

``point-query`` is the single-row path: one caller, closed loop, one
distinct ``HDIndex.query`` per call on an in-memory index, so Hilbert
encoding and the per-record heap gather carry their full weight.

``batch-query`` is the amortised path at high dimension: ``query_batch``
with Q=256 over a reopened mmap snapshot with the Ptolemaic filter on,
where the tree descent and the filter kernels dominate.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from benchmarks.bench_hotpath import scalar_oracle_ids
from benchmarks.common import hd_params
from hdbench import trace
from hdbench.common import (
    K,
    latency_ms,
    median,
    peak_rss_mb,
    recall,
    remove,
    work_dir,
)
from repro import IndexSpec, exact_knn, make_dataset
from repro.core import load_index, save_index

SETUP_REPEATS = 5
#: Rows checked against the scalar oracle, and rows whose recall is
#: measured against exact neighbours, per run.
ORACLE_ROWS = 16
RECALL_ROWS = 512
#: Requests whose integer layer counts are reported (fixed, so the
#: counts cover the same inputs however long the run was).
COUNT_QUERIES = 200
COUNT_BATCHES = 2

POINT = {"dataset": "sift1m", "n": 20_000, "recall_floor": 0.9}
BATCH = {"dataset": "sun", "n": 8_000, "batch": 256, "recall_floor": 0.7,
         "row_checks": 32}


def _timed_loop(call, items, seconds):
    """Call ``call(item)`` on successive items until ``seconds`` pass;
    returns (latencies, answers)."""
    latencies, answers = [], []
    deadline = time.perf_counter() + seconds
    for item in items:
        if latencies and time.perf_counter() >= deadline:
            break
        started = time.perf_counter()
        answers.append(call(item))
        latencies.append(time.perf_counter() - started)
    return latencies, answers


def _traced_loop(call, items, seconds, block, count_items):
    """Run blocks of ``block`` items twice each, traced and untraced,
    alternating which goes first, until ``seconds`` pass.  Returns the
    traced latencies and answers plus the per-layer figures; the
    tracing overhead compares the two passes over the same items.
    Everything before the deadline is a fixed sequence of calls, so the
    counts over the first ``count_items`` requests repeat exactly."""
    tracer = trace.Tracer()
    traced, plain, answers = [], [], []
    deadline = time.perf_counter() + seconds
    for first in range(0, len(items), block):
        if traced and time.perf_counter() >= deadline:
            break
        chunk = range(first, min(first + block, len(items)))
        for tracing in ((True, False) if first // block % 2 == 0
                        else (False, True)):
            if tracing:
                trace.install(tracer)
            try:
                for request in chunk:
                    trace.REQUEST.set(request if tracing else None)
                    started = time.perf_counter()
                    answer = call(items[request])
                    elapsed = time.perf_counter() - started
                    if tracing:
                        traced.append(elapsed)
                        answers.append(answer)
                    else:
                        plain.append(elapsed)
            finally:
                tracer.uninstall()
    rows = len(traced) * _rows_per(items[0])
    layers = trace.summarize(tracer.spans, rows, set(range(count_items)))
    layers["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(plain) - 1.0)
    layers["trace.spans_per_row"] = len(tracer.spans) / rows
    return traced, answers, layers


def _rows_per(item) -> int:
    return 1 if item.ndim == 1 else item.shape[0]


def _oracle_failures(index, queries, ids):
    oracle = scalar_oracle_ids(index, queries, K)
    return sum(not np.array_equal(np.asarray(got[got >= 0]), want)
               for got, want in zip(ids, oracle))


def point_query(seed: int, seconds: float, tracing: bool) -> dict:
    pool = int(seconds * 400) + 8
    data = make_dataset(POINT["dataset"], n=POINT["n"], num_queries=pool,
                        seed=seed)
    params = hd_params(data.spec, POINT["n"])
    builds = []
    index = None
    for _ in range(SETUP_REPEATS):
        if index is not None:  # one index alive at a time (peak_rss_mb)
            index.close()
            index = None
        started = time.perf_counter()
        index = repro.build(IndexSpec(params=params), data.data)
        builds.append(time.perf_counter() - started)
    queries = data.queries
    for point in queries[-8:]:
        index.query(point, K)

    call = lambda point: index.query(point, K)[0]  # noqa: E731
    if tracing:
        latencies, answers, layers = _traced_loop(
            call, queries[:-8], seconds, 25, COUNT_QUERIES)
    else:
        (latencies, answers), layers = _timed_loop(
            call, queries[:-8], seconds), None
    done = len(answers)
    ids = [np.asarray(a) for a in answers]
    checked = min(done, RECALL_ROWS)
    truth, _ = exact_knn(data.data, queries[:checked], K)
    found = np.full((checked, K), -1, dtype=np.int64)
    for row, got in enumerate(ids[:checked]):
        found[row, :got.shape[0]] = got
    score = recall(found, truth)
    failed = _oracle_failures(index, queries[:ORACLE_ROWS],
                              ids[:ORACLE_ROWS])
    rss = peak_rss_mb()
    index.close()
    timing = latency_ms(latencies)
    result = {
        "correct": failed == 0 and score >= POINT["recall_floor"],
        "attempted": done, "failed": failed,
        "metrics": {
            "setup_s": (median(builds), "s"),
            "peak_rss_mb": (rss, "MiB"),
            "qps": (done / sum(latencies), "1/s"),
            "p50_ms": (timing["p50_ms"], "ms"),
            "p90_ms": (timing["p90_ms"], "ms"),
            "p99_ms": (timing["p99_ms"], "ms"),
            "recall_at_10": (score, "ratio"),
        },
        "notes": {"latency_samples": timing["samples"],
                  "beyond_p99": timing["beyond_p99"],
                  "recall_rows": checked, "oracle_rows": ORACLE_ROWS,
                  "setup_runs_s": builds},
    }
    if layers is not None:
        layers.update({"setup.build_s": median(builds),
                       "setup.save_s": 0.0, "setup.open_s": 0.0})
        result["layers"] = layers
    return result


def batch_query(seed: int, seconds: float, tracing: bool) -> dict:
    size = BATCH["batch"]
    calls = int(seconds * 2) + 1
    data = make_dataset(BATCH["dataset"], n=BATCH["n"],
                        num_queries=size * (calls + 1), seed=seed)
    params = hd_params(data.spec, BATCH["n"], use_ptolemaic=True)
    setup, build_s, save_s, open_s = [], [], [], []
    index = None
    roots = []
    for _ in range(SETUP_REPEATS):
        if index is not None:
            index.close()
        root = work_dir("batch-")
        roots.append(root)
        started = time.perf_counter()
        built = repro.build(IndexSpec(params=params), data.data)
        built_at = time.perf_counter()
        save_index(built, root)
        saved_at = time.perf_counter()
        built.close()
        index = load_index(root, backend="mmap")
        opened_at = time.perf_counter()
        build_s.append(built_at - started)
        save_s.append(saved_at - built_at)
        open_s.append(opened_at - saved_at)
        setup.append(opened_at - started)
    try:
        queries = data.queries
        batches = [queries[i * size:(i + 1) * size] for i in range(calls)]
        index.query_batch(queries[-size:], K)

        call = lambda rows: index.query_batch(rows, K)  # noqa: E731
        if tracing:
            latencies, answers, layers = _traced_loop(
                call, batches, seconds, 1, COUNT_BATCHES)
        else:
            (latencies, answers), layers = _timed_loop(
                call, batches, seconds), None
        ids = np.concatenate([a[0] for a in answers])
        dists = np.concatenate([a[1] for a in answers])
        done = ids.shape[0]
        checked = min(done, RECALL_ROWS)
        truth, _ = exact_knn(data.data, queries[:checked], K)
        score = recall(ids[:checked], truth)
        failed = 0
        for row in range(BATCH["row_checks"]):
            got_ids, got_dists = index.query(queries[row], K)
            width = got_ids.shape[0]
            failed += not (np.array_equal(got_ids, ids[row, :width])
                           and np.array_equal(got_dists,
                                              dists[row, :width]))
        failed += _oracle_failures(index, queries[:ORACLE_ROWS],
                                   ids[:ORACLE_ROWS])
        rss = peak_rss_mb()
    finally:
        index.close()
        for root in roots:
            remove(root)
    timing = latency_ms(latencies)
    result = {
        "correct": failed == 0 and score >= BATCH["recall_floor"],
        "attempted": done, "failed": failed,
        "metrics": {
            "setup_s": (median(setup), "s"),
            "peak_rss_mb": (rss, "MiB"),
            "qps": (done / sum(latencies), "1/s"),
            "p50_ms": (timing["p50_ms"], "ms"),
            "p90_ms": (timing["p90_ms"], "ms"),
            "p99_ms": (timing["p99_ms"], "ms"),
            "recall_at_10": (score, "ratio"),
        },
        "notes": {"calls": len(latencies), "rows_per_call": size,
                  "recall_rows": checked,
                  "row_checks": BATCH["row_checks"],
                  "oracle_rows": ORACLE_ROWS, "setup_runs_s": setup},
    }
    if layers is not None:
        layers.update({"setup.build_s": median(build_s),
                       "setup.save_s": median(save_s),
                       "setup.open_s": median(open_s)})
        result["layers"] = layers
    return result
