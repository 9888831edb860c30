"""Checks of the benchmark itself.

``BENCHMARK.json`` names exactly the metrics ``run.py`` prints.  Two
same-seed traced runs of ``point-query`` and ``batch-query`` must
report identical counts (tree descents, page reads, filter in/out, rows
gathered, the random/sequential split, distance computations), and a
second seed must run clean.  Run explicitly (the file name keeps it out
of the default test collection, since each case runs the benchmark)::

    python3 -m pytest hdbench/check_counts.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "hdbench"))

from run import GATED, LAYER_UNITS, WORKLOADS  # noqa: E402

SECONDS = "6"
COUNTS = ("btree.calls", "btree.page_reads", "filters.in", "filters.out",
          "storage.rows_gathered", "storage.random_reads",
          "storage.sequential_reads", "distance.computations")


def run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "hdbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-4000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return result


@pytest.mark.parametrize("workload", ["point-query", "batch-query"])
def test_counts_repeat_and_second_seed_runs_clean(workload):
    first, second = run(workload, 7), run(workload, 7)
    for name in COUNTS:
        value = first["metrics"][name]["value"]
        assert value > 0, name
        assert value == second["metrics"][name]["value"], name
    run(workload, 8)


def test_benchmark_json_lists_what_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(GATED)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
