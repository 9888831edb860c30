"""HD-Index benchmark: one command, four workloads.

    python3 hdbench/run.py --workload point-query --seed 1 --seconds 15 \
        --trace 0

Builds the program from the checkout's ``src/``, generates the
workload's inputs from ``--seed``, measures for ``--seconds``, checks the
answers, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the gated end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it carries the other metrics the workload measured, by name with
their units (``also``: tail percentiles, and the metrics of one
workload only), and its sample counts.  Exits 1 when a
correctness check fails, 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

WORKLOADS = ("point-query", "batch-query", "serve-open", "ingest-mixed")

#: The end-to-end metrics every workload reports and BENCHMARK.json
#: bounds.  The others a workload measures (tail percentiles, and the
#: metrics of one workload only) go on the line before the result.
GATED = ("setup_s", "peak_rss_mb", "qps", "p50_ms", "recall_at_10")

#: Per-layer metrics and their units, in the order they are printed.
LAYER_UNITS = {
    "hilbert.encode_us": "us", "hilbert.quantize_us": "us",
    "reference.dist_us": "us",
    "btree.descent_us": "us", "btree.calls": "count",
    "btree.entries": "count", "btree.page_reads": "count",
    "filters.tri_us": "us", "filters.ptol_us": "us",
    "filters.select_us": "us", "filters.in": "count",
    "filters.out": "count", "filters.keep_ratio": "ratio",
    "meta.mask_us": "us", "meta.selectivity": "ratio",
    "engine.self_us": "us",
    "storage.gather_us": "us", "storage.rows_gathered": "count",
    "storage.random_reads": "count", "storage.sequential_reads": "count",
    "distance.rerank_us": "us", "distance.computations": "count",
    "serve.decode_us": "us", "serve.encode_us": "us",
    "serve.service_ms": "ms", "serve.batch_exec_ms": "ms",
    "serve.queue_wait_ms": "ms", "serve.rows_per_batch": "count",
    "serve.net_ms": "ms", "serve.cache_hit_ratio": "ratio",
    "serve.shed": "count", "serve.expired": "count",
    "wal.append_us": "us", "wal.fsyncs_per_write": "count",
    "wal.log_bytes_per_write": "bytes", "delta.rows": "count",
    "delta.gather_us": "us",
    "compaction.fold_s": "s", "compaction.tree_insert_ms": "ms",
    "compaction.save_s": "s", "compaction.bytes_written": "bytes",
    "compaction.cycles": "count",
    "setup.build_s": "s", "setup.save_s": "s", "setup.open_s": "s",
    "trace.overhead_pct": "%", "trace.spans_per_row": "count",
}


def _workload(name):
    from hdbench import ingest, inproc, serve_open
    return {"point-query": inproc.point_query,
            "batch-query": inproc.batch_query,
            "serve-open": serve_open.serve_open,
            "ingest-mixed": ingest.ingest_mixed}[name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from hdbench.common import host_probe_ms
    probe = host_probe_ms()
    result = _workload(args.workload)(args.seed, args.seconds,
                                      bool(args.trace))
    result["notes"]["host_probe_ms"] = [probe, host_probe_ms()]
    measured = {name: {"value": float(value), "unit": unit}
                for name, (value, unit) in result["metrics"].items()}
    if args.trace:
        layers = result["layers"]
        metrics = {name: {"value": float(layers.get(name, 0.0)),
                          "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: measured.pop(name) for name in GATED}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = bool(result["correct"]) and finite
    print(json.dumps({"workload": args.workload, "also": measured,
                      **result["notes"]}))
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
