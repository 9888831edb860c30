"""Span tracing from outside the program: wrappers around the public
callables of each layer, installed by patching them at run time.

A span records its name, start, end, parent span and the id of the
request it served (the query row, the batch call or the wire request
``id``), plus counts taken at the same boundary (page-read deltas, rows
gathered, entries returned).  Spans stay in memory and are written out
when the run ends.  A layer's self time is its span's duration minus the
time of the wrapped calls it made (children run on the caller's thread,
nested, so their durations add up without overlap).

Nothing under ``src/`` is edited: :func:`install` rebinds module and
class attributes and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np

from hdbench.common import mean

#: The request a span belongs to; workload loops set it per call, the
#: server sets it from the decoded wire frame (asyncio copies it into the
#: task that serves the frame).
REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "hdbench_request", default=None)


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "request",
                 "child", "counts")

    def __init__(self, sid, name, start, parent, request):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.child = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request, "self": self.self_time,
                "counts": self.counts}


class Tracer:
    """In-memory span recorder plus the patch table to undo."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].sid if stack else None
        span = Span(next(self._ids), name, time.perf_counter(), parent,
                    REQUEST.get())
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += span.end - span.start

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``measure(span, call, args, kwargs)`` (optional) makes the call
        itself, so it can read counters before and after it at the layer
        boundary and store them in ``span.counts``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                if measure is None:
                    return original(*args, **kwargs)
                return measure(span, original, args, kwargs)
            finally:
                tracer.close(span)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w") as handle:
            for span in list(self.spans):
                handle.write(json.dumps(span.as_dict()) + "\n")


# -- what each layer's wrapper counts ---------------------------------------

def _descent(span, call, args, kwargs):
    stats = args[0].stats
    before = stats.page_reads
    result = call(*args, **kwargs)
    span.counts = {"entries": int(result[0].shape[0]),
                   "page_reads": stats.page_reads - before}
    return result


def _gather(span, call, args, kwargs):
    stats = args[0].stats
    random_before, sequential_before = (stats.random_reads,
                                        stats.sequential_reads)
    result = call(*args, **kwargs)
    span.counts = {"rows": int(result.shape[0]),
                   "random_reads": stats.random_reads - random_before,
                   "sequential_reads": (stats.sequential_reads
                                        - sequential_before)}
    return result


def _mask(span, call, args, kwargs):
    result = call(*args, **kwargs)
    span.counts = {"selectivity": float(result.mean())
                   if result.shape[0] else 0.0}
    return result


def _query_call(span, call, args, kwargs):
    """The public ``query``/``query_batch`` span: its QueryStats and the
    WAL delta size the call saw, read at the same boundary."""
    index = args[0]
    delta = getattr(index, "_delta", None)
    delta_rows = len(delta) if delta is not None else 0
    result = call(*args, **kwargs)
    stats = index.last_query_stats()
    points = args[1]
    rows = 1 if getattr(points, "ndim", 1) == 1 else int(points.shape[0])
    span.counts = {"rows": rows, "candidates": stats.candidates,
                   "distance_computations": stats.distance_computations,
                   "delta_rows": delta_rows * rows}
    return result


def _wal_append(span, call, args, kwargs):
    log = args[0]
    before = log.size_bytes()
    result = call(*args, **kwargs)
    span.counts = dict(span.counts or {}, bytes=log.size_bytes() - before)
    return result


def install(tracer: Tracer, batch_measure=_query_call) -> None:
    """Wrap the public callables of every layer Algorithm 2 and the
    write path run through.  Names imported into ``repro.core.engine``
    are patched there, where the engine looks them up."""
    from repro.core import engine, hdindex, persistence
    from repro.core.rdbtree import RDBTree
    from repro.core.reference import ReferenceSet
    from repro.hilbert.quantize import GridQuantizer
    from repro.meta import predicates
    from repro.storage.vectors import VectorHeapFile
    from repro.wal import manager
    from repro.wal.delta import DeltaSegment
    from repro.wal.log import WriteAheadLog

    wrap = tracer.wrap
    wrap(hdindex.HDIndex, "query", "engine.query", _query_call)
    wrap(hdindex.HDIndex, "query_batch", "engine.query", batch_measure)
    wrap(GridQuantizer, "quantize", "hilbert.quantize")
    wrap(engine, "encode_for_curves", "hilbert.encode")
    wrap(ReferenceSet, "distances_from", "reference.dist")
    wrap(RDBTree, "candidates", "btree.descent", _descent)
    wrap(engine, "triangular_lower_bounds_many", "filters.tri")
    wrap(engine, "ptolemaic_lower_bounds_many", "filters.ptol")
    wrap(engine, "filter_candidates", "filters.select")
    for cls in vars(predicates).values():
        if (isinstance(cls, type) and issubclass(cls, predicates.Predicate)
                and "mask" in cls.__dict__ and cls is not
                predicates.Predicate):
            wrap(cls, "mask", "meta.mask", _mask)
    wrap(VectorHeapFile, "gather", "storage.gather", _gather)
    wrap(engine, "euclidean_to_many", "distance.rerank")
    wrap(WriteAheadLog, "append_insert", "wal.append", _wal_append)
    wrap(WriteAheadLog, "append_delete", "wal.append", _wal_append)
    wrap(DeltaSegment, "gather", "delta.gather")
    wrap(manager, "fold_generation", "compaction.fold")
    wrap(RDBTree, "insert", "compaction.tree_insert")
    wrap(persistence, "save_index", "compaction.save")

    # fsync is counted, not timed: its time stays in the WAL append
    # that waits for it.
    fsync = os.fsync

    def counted_fsync(fd):
        stack = tracer._stack()
        if stack:
            span = stack[-1]
            span.counts = dict(span.counts or {})
            span.counts["fsyncs"] = span.counts.get("fsyncs", 0) + 1
        return fsync(fd)

    os.fsync = counted_fsync
    tracer._undo.append((os, "fsync", fsync))


def install_serve(tracer: Tracer) -> None:
    """Server-side wrappers on top of :func:`install`: the wire codec,
    the service's submit-to-done span, and the request ids each
    micro-batch served.

    The rows of a micro-batch are matched back to the requests that
    queued them by their point bytes: the service stacks the submitted
    points unchanged into the ``query_batch`` call.
    """
    from repro.serve import protocol
    from repro.serve.service import QueryService

    queued: dict[bytes, list] = defaultdict(list)
    lock = threading.Lock()

    def batch_measure(span, call, args, kwargs):
        taken: dict[bytes, int] = defaultdict(int)
        served = []
        with lock:
            for row in args[1]:
                key = row.tobytes()
                waiting = queued.get(key, ())
                served.append(waiting[taken[key]]
                              if taken[key] < len(waiting) else None)
                taken[key] += 1
        result = _query_call(span, call, args, kwargs)
        span.counts["requests"] = served
        return result

    install(tracer, batch_measure)

    def decode(span, call, args, kwargs):
        message = call(*args, **kwargs)
        if isinstance(message, dict):
            span.request = message.get("id")
            # asyncio copies this into the task that serves the frame.
            REQUEST.set(span.request)
        return message

    tracer.wrap(protocol, "decode_body", "serve.decode", decode)
    tracer.wrap(protocol, "encode_frame", "serve.encode")

    submit = QueryService.__dict__["submit"]

    @functools.wraps(submit)
    def traced_submit(self, point, *args, **kwargs):
        # Submit -> future done is asynchronous, so this span is never
        # pushed as a parent; its end is set by the future's callback.
        span = Span(next(tracer._ids), "serve.service", time.perf_counter(),
                    None, REQUEST.get())
        tracer.spans.append(span)
        key = np.asarray(point, dtype=np.float64).ravel().tobytes()
        with lock:
            queued[key].append(span.request)
        future = submit(self, point, *args, **kwargs)

        def done(_future):
            span.end = time.perf_counter()
            with lock:
                waiting = queued.get(key)
                if waiting and span.request in waiting:
                    waiting.remove(span.request)
                    if not waiting:
                        del queued[key]

        future.add_done_callback(done)
        return future

    QueryService.submit = traced_submit
    tracer._undo.append((QueryService, "submit", submit))


# -- aggregation --------------------------------------------------------------

def load(path) -> list[Span]:
    """Spans written by :meth:`Tracer.dump` (a traced server's)."""
    spans = []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            span = Span(record["id"], record["name"], record["start"],
                        record["parent"], record["request"])
            span.end = record["end"]
            span.child = span.end - span.start - record["self"]
            span.counts = record["counts"]
            spans.append(span)
    return spans


def under(spans, root: str) -> list[Span]:
    """The spans whose outermost wrapped caller is named ``root`` (a
    compaction's quantize calls are not a query's)."""
    by_id = {span.sid: span for span in spans}
    roots: dict[int, str] = {}

    def root_name(span):
        chain = []
        while span.sid not in roots and span.parent in by_id:
            chain.append(span)
            span = by_id[span.parent]
        name = roots.get(span.sid, span.name)
        for member in chain + [span]:
            roots[member.sid] = name
        return name

    return [span for span in spans if root_name(span) == root]


def summarize(spans, rows: int, count_requests=None) -> dict:
    """Per-layer figures of Algorithm 2 from the spans of query calls.

    ``rows`` is the number of query rows the timed spans served; times
    are self times per row in microseconds.  ``count_requests``, when
    given, restricts the integer counts to spans of those requests, so
    the counts cover a fixed set of inputs however long the run was.
    """
    spans = under(spans, "engine.query")
    self_time: dict[str, float] = defaultdict(float)
    for span in spans:
        self_time[span.name] += span.end - span.start - span.child

    def per_row_us(name):
        return self_time.get(name, 0.0) / rows * 1e6 if rows else 0.0

    def counted(name):
        return [s for s in spans if s.name == name and (
            count_requests is None or s.request in count_requests)]

    def total(name, key):
        return sum((s.counts or {}).get(key, 0) for s in counted(name))

    counted_rows = sum((s.counts or {}).get("rows", 0)
                       for s in counted("engine.query"))

    def per(value):
        return value / counted_rows if counted_rows else 0.0

    descents = counted("btree.descent")
    masks = [s for s in spans if s.name == "meta.mask"]
    filters_in = total("btree.descent", "entries")
    filters_out = total("engine.query", "candidates")
    return {
        "hilbert.encode_us": per_row_us("hilbert.encode"),
        "hilbert.quantize_us": per_row_us("hilbert.quantize"),
        "reference.dist_us": per_row_us("reference.dist"),
        "btree.descent_us": per_row_us("btree.descent"),
        "btree.calls": per(len(descents)),
        "btree.entries": (filters_in / len(descents)) if descents else 0.0,
        "btree.page_reads": per(total("btree.descent", "page_reads")),
        "filters.tri_us": per_row_us("filters.tri"),
        "filters.ptol_us": per_row_us("filters.ptol"),
        "filters.select_us": per_row_us("filters.select"),
        "filters.in": per(filters_in),
        "filters.out": per(filters_out),
        "filters.keep_ratio": (filters_out / filters_in
                               if filters_in else 0.0),
        "meta.mask_us": per_row_us("meta.mask"),
        "meta.selectivity": (
            sum(s.counts["selectivity"] for s in masks) / len(masks)
            if masks else 0.0),
        "engine.self_us": per_row_us("engine.query"),
        "storage.gather_us": per_row_us("storage.gather"),
        "storage.rows_gathered": per(total("storage.gather", "rows")),
        "storage.random_reads": per(total("storage.gather",
                                          "random_reads")),
        "storage.sequential_reads": per(total("storage.gather",
                                              "sequential_reads")),
        "distance.rerank_us": per_row_us("distance.rerank"),
        "distance.computations": per(total("engine.query",
                                           "distance_computations")),
        "delta.rows": per(total("engine.query", "delta_rows")),
        "delta.gather_us": per_row_us("delta.gather"),
    }


def write_figures(spans) -> dict:
    """WAL and compaction figures (per write / per compaction cycle)."""
    appends = [s for s in spans if s.name == "wal.append"]
    folds = [s for s in spans if s.name == "compaction.fold"]
    inserts = [s for s in spans if s.name == "compaction.tree_insert"]
    saves = [s for s in spans if s.name == "compaction.save"]
    writes = len(appends)
    return {
        "wal.append_us": mean(s.self_time * 1e6 for s in appends),
        "wal.fsyncs_per_write": (
            sum((s.counts or {}).get("fsyncs", 0) for s in appends) / writes
            if writes else 0.0),
        "wal.log_bytes_per_write": (
            sum((s.counts or {}).get("bytes", 0) for s in appends) / writes
            if writes else 0.0),
        "compaction.fold_s": mean(s.duration for s in folds),
        "compaction.tree_insert_ms": mean(s.self_time * 1e3
                                          for s in inserts),
        "compaction.save_s": mean(s.self_time for s in saves),
        "compaction.cycles": float(len(folds)),
    }
