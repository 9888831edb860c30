"""The ``serve-open`` workload: open-loop traffic against a served
snapshot.

A ``python -m repro.serve.server`` subprocess serves a ``sift1m``
snapshot (mmap, with a result cache) over TCP.  One asyncio process sends
Poisson arrivals over two ``AsyncServeClient`` connections, so requests
go out on schedule whether or not earlier ones have answered; latency is
timed from each request's due time.  Query points are drawn with Zipf
skew from a pool several times larger than the cache, and about a fifth
of the requests carry a 10%-selective ``Eq(label, c)`` predicate.

The run offers two fixed rates, ``light`` and ``high`` (constants from a
one-time calibration; never recalibrated per run), then saturates the
server: each connection keeps :data:`IN_FLIGHT` requests outstanding
(closed loop), and the rate answered there is the server's throughput.
A run whose generator fell behind its schedule by more than
:data:`MAX_LATENESS_MS` at p99 is marked invalid.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import select
import signal
import subprocess
import sys
import time

import numpy as np

import repro
from benchmarks.common import hd_params
from hdbench import trace
from hdbench.common import (
    K,
    ROOT,
    latency_ms,
    mean,
    median,
    peak_rss_mb,
    recall,
    remove,
    work_dir,
)
from repro import Eq, IndexSpec, exact_knn, make_dataset
from repro.core import load_index, save_index
from repro.serve import AsyncServeClient

N = 20_000
#: Distinct query points; Zipf-skewed draws over them.
POOL = 2_000
ZIPF_EXPONENT = 0.8
#: Server result-cache entries: the pool is ~16x larger, and the hit
#: ratio stays well below one half, so the median is a computed answer.
CACHE = 128
LABELS = 10
FILTERED_SHARE = 0.2
CONNECTIONS = 2
#: Offered rates (queries/s): 1/4 and 3/4 of the rate where the p99 from
#: due time crossed 100 ms in one calibration with two connections,
#: taken while the 2-core host ran at its slower speed (about 55 q/s;
#: ~90 q/s at its faster speed).  A filtered query alone takes ~30-40 ms
#: (its candidate budgets grow 10x), and the service runs each
#: predicate's group of a micro-batch in turn.  Never recalibrated per
#: run.
LIGHT_QPS = 14.0
HIGH_QPS = 40.0
#: Requests each connection keeps outstanding in the saturation phase:
#: enough to fill a micro-batch while earlier ones are answered.
IN_FLIGHT = 8
#: Draws prepared for the saturation phase, more than it can send.
MAX_FEED = 2_000
DEADLINE_MS = 2_000.0
#: A run is invalid when the generator sends later than this at p99.
MAX_LATENESS_MS = 10.0
SETUP_REPEATS = 5
CHECK_SAMPLE = 64
READY_TIMEOUT_S = 60.0


class Server:
    """One server subprocess, started until its READY line."""

    def __init__(self, snapshot: str, logs: str, spans: str | None = None):
        args = ["--snapshot", snapshot, "--port", "0", "--backend", "mmap",
                "--cache-size", str(CACHE)]
        if spans is None:
            command = [sys.executable, "-m", "repro.serve.server", *args]
        else:
            command = [sys.executable,
                       str(ROOT / "hdbench" / "serve_launcher.py"), spans,
                       "--", *args]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT), str(ROOT / "src")]))
        self._log = open(os.path.join(logs, "server.log"), "ab")
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("REPRO-SERVE READY"):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("port=")[1].split()[0])

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait for it to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Request:
    __slots__ = ("rid", "point", "label", "due", "sent", "done", "ok",
                 "ids", "dists")

    def __init__(self, rid, point, label, due):
        self.rid, self.point, self.label, self.due = rid, point, label, due
        self.sent = self.done = 0.0
        self.ok = False
        self.ids = self.dists = None


def schedule(seed: int, phase: int, rate: float, seconds: float,
             order: np.ndarray):
    """(offset, pool index, label or -1) per arrival of one phase.

    Arrivals are a Poisson process given its count: ``rate * seconds``
    uniform instants, sorted, so every run offers the same load."""
    rng = np.random.default_rng([seed, phase])
    offsets = np.sort(rng.uniform(0.0, seconds, round(rate * seconds)))
    picks = zipf_picks(rng, offsets.size, order)
    filtered = rng.random(offsets.size) < FILTERED_SHARE
    labels = np.where(filtered, rng.integers(0, LABELS, offsets.size), -1)
    return list(zip(offsets, picks, labels))


def feed(seed: int, count: int, order: np.ndarray):
    """(pool index, label or -1) per request of the saturation phase:
    Zipf picks as in :func:`schedule`, with exactly every fifth request
    filtered so that each run offers the same mix of work."""
    rng = np.random.default_rng([seed, 3])
    picks = zipf_picks(rng, count, order)
    filtered = np.arange(count) % round(1 / FILTERED_SHARE) == 0
    labels = np.where(filtered, rng.integers(0, LABELS, count), -1)
    return list(zip(picks, labels))


def zipf_picks(rng, count: int, order: np.ndarray) -> np.ndarray:
    ranks = np.arange(1, POOL + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    return order[rng.choice(POOL, size=count, p=ranks / ranks.sum())]


class Driver:
    """Two connections to one server, the open-loop generator and the
    saturation loop."""

    def __init__(self, clients, pool):
        self.clients = clients
        self.pool = pool
        self.ids = itertools.count(1)

    @classmethod
    async def connect(cls, port: int, pool):
        clients = [await AsyncServeClient.connect("127.0.0.1", port)
                   for _ in range(CONNECTIONS)]
        return cls(clients, pool)

    async def close(self) -> None:
        for client in self.clients:
            await client.close()

    async def stats(self) -> dict:
        client = self.clients[0]
        client._ids = iter((next(self.ids),))
        return await client.stats()

    async def _one(self, client, request: Request) -> None:
        loop = asyncio.get_running_loop()
        # The wire id is drawn from the client's counter at the start of
        # query(); pinning it lets the server's spans be joined to this
        # request (two connections would otherwise reuse the same ids).
        client._ids = iter((request.rid,))
        overrides = ({} if request.label < 0
                     else {"predicate": Eq("label", int(request.label))})
        request.sent = loop.time()
        try:
            request.ids, request.dists = await client.query(
                request.point, K, deadline_ms=DEADLINE_MS, **overrides)
            request.ok = True
        except Exception:  # shed, expired or errored: counted as failed
            request.ok = False
        request.done = loop.time()

    async def phase(self, arrivals) -> list[Request]:
        loop = asyncio.get_running_loop()
        start = loop.time() + 0.01
        tasks, requests = [], []
        for position, (offset, pick, label) in enumerate(arrivals):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            request = Request(next(self.ids), self.pool[pick], label, due)
            requests.append(request)
            tasks.append(asyncio.create_task(self._one(
                self.clients[position % CONNECTIONS], request)))
        await asyncio.gather(*tasks)
        return requests

    async def saturate(self, draws, seconds: float) -> list[Request]:
        """Closed loop for ``seconds``: every connection keeps
        :data:`IN_FLIGHT` requests outstanding, taking ``draws`` in
        order.  A request is due when it is sent."""
        loop = asyncio.get_running_loop()
        stop = loop.time() + seconds
        draws = iter(draws)
        requests = []

        async def sender(client):
            for pick, label in draws:
                now = loop.time()
                if now >= stop:
                    break
                request = Request(next(self.ids), self.pool[pick], label,
                                  now)
                requests.append(request)
                await self._one(client, request)

        await asyncio.gather(*(sender(client) for client in self.clients
                               for _ in range(IN_FLIGHT)))
        return requests


def lateness_ms(requests) -> tuple[float, float]:
    late = np.asarray([r.sent - r.due for r in requests]) * 1e3
    return float(np.percentile(late, 99)), float(late.max())


def _build(data, labels, root) -> tuple[float, float]:
    """Build and save the snapshot; returns (build, save) seconds."""
    started = time.perf_counter()
    index = repro.build(IndexSpec(params=hd_params(data.spec, N)),
                        data.data, metadata=labels)
    built = time.perf_counter()
    save_index(index, root)
    index.close()
    return built - started, time.perf_counter() - built


def _check(requests, snapshot, data, labels):
    """Served answers vs in-process answers on the same snapshot (byte
    parity) and vs exact neighbours (recall), on a sample of distinct
    (point, predicate) pairs."""
    seen, sample = set(), []
    for request in requests:
        key = (request.point.tobytes(), int(request.label))
        if request.ok and key not in seen:
            seen.add(key)
            sample.append(request)
        if len(sample) == CHECK_SAMPLE:
            break
    label_column = np.asarray([row["label"] for row in labels])
    mismatches, found, truth = 0, [], []
    with load_index(snapshot, backend="mmap") as index:
        for request in sample:
            predicate = (None if request.label < 0
                         else Eq("label", int(request.label)))
            ids, dists = index.query(request.point, K, predicate=predicate)
            mismatches += not (ids.tobytes() == request.ids.tobytes()
                               and dists.tobytes() == request.dists.tobytes())
            rows = (np.arange(N) if request.label < 0
                    else np.flatnonzero(label_column == request.label))
            exact, _ = exact_knn(data.data[rows], request.point, K)
            found.append(request.ids)
            truth.append(rows[exact[0]])
    return mismatches, recall(np.asarray(found), np.asarray(truth))


def _layers(spans, requests, stats) -> dict:
    """Per-layer figures from a traced server's spans, joined to the
    client's requests by wire id."""
    batches = [s for s in spans if s.name == "engine.query"]
    rows = sum(s.counts["rows"] for s in batches)
    layers = trace.summarize(spans, rows)
    decode = {s.request: s.self_time for s in spans
              if s.name == "serve.decode"}
    encode = {s.request: s.self_time for s in spans
              if s.name == "serve.encode"}
    service = {s.request: s.duration for s in spans
               if s.name == "serve.service" and s.end > s.start}
    waits = [service[rid] - batch.duration for batch in batches
             for rid in batch.counts["requests"] if rid in service]
    net = [(r.done - r.sent) - service[r.rid] - decode.get(r.rid, 0.0)
           - encode.get(r.rid, 0.0) for r in requests
           if r.ok and r.rid in service]
    gateway, served = stats["gateway"], stats["service"]
    lookups = served["cache_hits"] + served["cache_misses"]
    layers.update({
        "serve.decode_us": mean(decode.values()) * 1e6,
        "serve.encode_us": mean(encode.values()) * 1e6,
        "serve.service_ms": mean(service.values()) * 1e3,
        "serve.batch_exec_ms": mean(b.duration for b in batches) * 1e3,
        "serve.queue_wait_ms": mean(waits) * 1e3,
        "serve.rows_per_batch": rows / len(batches) if batches else 0.0,
        "serve.net_ms": mean(net) * 1e3,
        "serve.cache_hit_ratio": (served["cache_hits"] / lookups
                                  if lookups else 0.0),
        "serve.shed": float(gateway["shed"]),
        "serve.expired": float(gateway["deadline_exceeded"]),
    })
    return layers


async def _serve(port, pool, plan):
    """Run ``plan`` (a list of (name, arrivals or a callable taking the
    driver)) against one server; returns the requests per phase and the
    stats RPC payload."""
    driver = await Driver.connect(port, pool)
    try:
        phases = {}
        for name, work in plan:
            if callable(work):
                phases[name] = await work(driver)
            else:
                phases[name] = await driver.phase(work)
        stats = await driver.stats()
    finally:
        await driver.close()
    return phases, stats


def serve_open(seed: int, seconds: float, tracing: bool) -> dict:
    data = make_dataset("sift1m", n=N, num_queries=POOL, seed=seed)
    labels = [{"label": int(row % LABELS)} for row in range(N)]
    order = np.random.default_rng(seed).permutation(POOL)
    pool = data.queries
    base = work_dir("serve-")
    setup, steps, server = [], [], None
    try:
        for repeat in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            snapshot = os.path.join(base, f"snapshot-{repeat}")
            started = time.perf_counter()
            build_s, save_s = _build(data, labels, snapshot)
            saved = time.perf_counter()
            server = Server(snapshot, base)
            ready = time.perf_counter()
            setup.append(ready - started)
            steps.append((build_s, save_s, ready - saved))
        warm = schedule(seed, 0, LIGHT_QPS, min(1.0, seconds / 10), order)
        if tracing:
            half = seconds / 2
            high = schedule(seed, 2, HIGH_QPS, half, order)
            plan = [("warm", warm), ("high", high)]
            phases, _ = asyncio.run(_serve(server.port, pool, plan))
            plain = phases["high"]
            server.stop()
            spans_path = os.path.join(base, "spans.jsonl")
            server = Server(snapshot, base, spans=spans_path)
            phases, stats = asyncio.run(_serve(server.port, pool, plan))
            rss = peak_rss_mb(server.proc.pid)
            server.stop()
            server = None
            requests = phases["high"]
            spans = trace.load(spans_path)
            layers = _layers(spans, requests, stats)
            layers.update({
                "trace.overhead_pct": 100.0 * (
                    np.median([r.done - r.due for r in requests])
                    / np.median([r.done - r.due for r in plain]) - 1.0),
                "trace.spans_per_row": len(spans) / max(1, len(requests)),
                "setup.build_s": median(b for b, _, _ in steps),
                "setup.save_s": median(s for _, s, _ in steps),
                "setup.open_s": median(r for _, _, r in steps),
            })
            measured = {"high": requests}
        else:
            plan = [("warm", warm),
                    ("light", schedule(seed, 1, LIGHT_QPS, seconds * 0.1,
                                       order)),
                    ("high", schedule(seed, 2, HIGH_QPS, seconds * 0.65,
                                      order)),
                    ("saturate", lambda driver: driver.saturate(
                        feed(seed, MAX_FEED, order), seconds * 0.25))]
            phases, stats = asyncio.run(_serve(server.port, pool, plan))
            rss = peak_rss_mb(server.proc.pid)
            server.stop()
            server = None
            measured = {name: phases[name]
                        for name in ("light", "high", "saturate")}
        mismatches, score = _check(measured["high"], snapshot, data, labels)
    finally:
        if server is not None:
            server.stop()
        remove(base)

    attempted = sum(len(r) for r in measured.values())
    failed = sum(not r.ok for rs in measured.values() for r in rs)
    # Lateness applies to the open-loop phases only: a saturation request
    # is due when it is sent.
    late_p99, late_max = lateness_ms(
        [r for name, rs in measured.items() if name != "saturate"
         for r in rs])
    high = measured["high"]
    timing = latency_ms([r.done - r.due for r in high])
    result = {
        "correct": mismatches == 0 and late_p99 <= MAX_LATENESS_MS,
        "attempted": attempted, "failed": failed + mismatches,
        "metrics": {
            "setup_s": (median(setup), "s"),
            "peak_rss_mb": (rss, "MiB"),
            "p50_ms": (timing["p50_ms"], "ms"),
            "p90_ms": (timing["p90_ms"], "ms"),
            "p99_ms": (timing["p99_ms"], "ms"),
            "recall_at_10": (score, "ratio"),
        },
        "notes": {"latency_samples": timing["samples"],
                  "beyond_p99": timing["beyond_p99"],
                  "lateness_p99_ms": late_p99, "lateness_max_ms": late_max,
                  "valid": late_p99 <= MAX_LATENESS_MS,
                  "checked": CHECK_SAMPLE, "mismatches": mismatches,
                  "setup_runs_s": setup,
                  "sent_ok_failed": {
                      name: [len(rs), sum(r.ok for r in rs),
                             sum(not r.ok for r in rs)]
                      for name, rs in measured.items()}},
    }
    if tracing:
        result["layers"] = layers
    else:
        light = latency_ms([r.done - r.due for r in measured["light"]])
        busy = measured["saturate"]
        span = max(r.done for r in busy) - min(r.due for r in busy)
        result["metrics"].update({
            "qps": (sum(r.ok for r in busy) / span, "1/s"),
            "p99_ms_light": (light["p99_ms"], "ms"),
            "cache_hit_ratio": (stats["service"]["cache_hits"] / max(
                1, stats["service"]["queries"]), "ratio")})
        result["notes"].update({
            "light_samples": light["samples"],
            "light_beyond_p99": light["beyond_p99"]})
    return result
