"""HD-Index reproduction (VLDB 2018).

A from-scratch Python implementation of *HD-Index: Pushing the
Scalability-Accuracy Boundary for Approximate kNN Search in
High-Dimensional Spaces* (Arora, Sinha, Kumar & Bhattacharya, PVLDB 11(8)),
including its disk substrate, all seven comparison baselines, the quality
metrics, and an experiment harness that regenerates every table and figure
of the paper's evaluation.

Quickstart::

    import numpy as np
    import repro
    from repro import HDIndexParams, IndexSpec, make_dataset

    ds = make_dataset("sift10k", n=5000, num_queries=20)
    index = repro.build(
        IndexSpec(params=HDIndexParams(num_trees=8, alpha=512, gamma=128,
                                       domain=ds.spec.domain)),
        ds.data)
    ids, dists = index.query(ds.queries[0], k=10)

Every deployment shape — plain or sharded topology, sequential / thread /
process execution, memory / file / mmap storage — is one declarative
:class:`IndexSpec` handed to :func:`repro.build`, and :func:`repro.open`
reconstructs it from a persisted snapshot.
"""

from repro.baselines import (
    C2LSH,
    E2LSH,
    HNSW,
    IDistance,
    LinearScan,
    Multicurves,
    OPQIndex,
    PQIndex,
    QALSH,
    SRS,
    VAFile,
)
from repro.core import (
    Execution,
    HDIndex,
    HDIndexParams,
    IndexSpec,
    KNNIndex,
    ParallelHDIndex,
    ProcessPoolHDIndex,
    QueryStats,
    ShardRouter,
    ShardedHDIndex,
    Topology,
    WorkerCrashed,
    WorkerTimeout,
    build,
    create_index,
    load_index,
    rdb_leaf_order,
    recommended_params,
    save_index,
)
from repro.core import open_index
from repro.core import open_index as open  # noqa: A001 - repro.open API
from repro.datasets import (
    DATASET_CATALOG,
    Dataset,
    DatasetSpec,
    iter_hdf5_chunks,
    make_dataset,
)
from repro.distance import normalize_rows
from repro.meta import (
    And,
    Eq,
    In,
    MetadataStore,
    Not,
    Or,
    Predicate,
    Range,
    predicate_from_dict,
)
from repro.serve import QueryService, ServiceConfig, ServiceStats
from repro.eval import (
    GroundTruth,
    approximation_ratio,
    average_precision,
    evaluate_index,
    evaluate_spec,
    exact_knn,
    format_table,
    mean_average_precision,
    recall_at_k,
    run_comparison,
)

__version__ = "1.0.0"

__all__ = [
    "And",
    "C2LSH",
    "DATASET_CATALOG",
    "Dataset",
    "DatasetSpec",
    "E2LSH",
    "Eq",
    "Execution",
    "GroundTruth",
    "HDIndex",
    "HDIndexParams",
    "HNSW",
    "IDistance",
    "In",
    "IndexSpec",
    "KNNIndex",
    "LinearScan",
    "MetadataStore",
    "Multicurves",
    "Not",
    "OPQIndex",
    "Or",
    "PQIndex",
    "ParallelHDIndex",
    "Predicate",
    "ProcessPoolHDIndex",
    "QALSH",
    "QueryService",
    "QueryStats",
    "Range",
    "SRS",
    "ServiceConfig",
    "ServiceStats",
    "ShardRouter",
    "ShardedHDIndex",
    "Topology",
    "VAFile",
    "WorkerCrashed",
    "WorkerTimeout",
    "approximation_ratio",
    "average_precision",
    "build",
    "create_index",
    "evaluate_index",
    "evaluate_spec",
    "exact_knn",
    "format_table",
    "iter_hdf5_chunks",
    "load_index",
    "make_dataset",
    "mean_average_precision",
    "normalize_rows",
    "open",
    "open_index",
    "predicate_from_dict",
    "rdb_leaf_order",
    "recall_at_k",
    "recommended_params",
    "run_comparison",
    "save_index",
    "__version__",
]

# Opt-in runtime invariant sanitizer (REPRO_SANITIZE=1): cross-checks
# the packed RDB-trees against a node B+-tree oracle, IOStats balance,
# buffer-pool eviction accounting, and write-protects zero-copy mmap
# views.  The env guard keeps repro.devtools entirely unimported on the
# normal path.
import os as _os

if _os.environ.get("REPRO_SANITIZE"):
    from repro.devtools.sanitize import install_from_env as _sanitize_hook

    _sanitize_hook()
del _os
