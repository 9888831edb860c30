"""Helpers shared by the workloads: paths, inputs, latency figures,
memory and disk measurements."""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

#: The checkout root (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for snapshots, logs and span files; removed per run.
WORK = ROOT / ".hdbench_work"
K = 10


def work_dir(prefix: str) -> str:
    WORK.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK)


def remove(path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    """Arithmetic mean; 0 for no values (a layer the run did not load)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def latency_ms(samples_s) -> dict:
    """Median, p90 and p99 of latencies given in seconds, with the
    sample count and how many samples lie beyond the p99."""
    values = np.asarray(samples_s, dtype=np.float64) * 1e3
    if not values.size:
        return {"p50_ms": 0.0, "p90_ms": 0.0, "p99_ms": 0.0, "samples": 0,
                "beyond_p99": 0}
    p50, p90, p99 = (float(v) for v in np.percentile(values, [50, 90, 99]))
    return {"p50_ms": p50, "p90_ms": p90, "p99_ms": p99,
            "samples": int(values.size),
            "beyond_p99": int((values > p99).sum())}


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def dir_bytes(path) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(folder, name))
            except OSError:
                pass  # removed between listing and stat (pruned gen)
    return total


def recall(found: np.ndarray, truth: np.ndarray) -> float:
    """Mean share of the true k neighbours found, over rows."""
    hits = sum(len(np.intersect1d(f[f >= 0], t)) for f, t in
               zip(found, truth))
    return hits / float(truth.size)


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop.  A shared VM's speed
    drifts from minute to minute; this says how fast the host ran."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value
        times.append(time.perf_counter() - started)
    return median(times) * 1e3
