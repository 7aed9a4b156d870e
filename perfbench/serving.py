"""The three workloads: set-up, the closed-loop run and the traced replay.

Untraced runs go through the public serving surface only
(``QueryService.answer`` / ``ServiceCluster.answer`` / ``insert``).  The
traced replay drives the same operations through the public functions of
each layer in the service's own order, timing every call from here:

1. ``canonicalize_query``
2. ``reformulate`` (cold) or ``service.reformulate`` (warm cache)
3. ``ReformulationResult.all_rewritings`` (full answers only)
4. ``ensure_plan`` plus forcing ``UnionPlan.fragments()`` (full answers only)
5. ``evaluate_reformulation(..., engine="shared", plan=..., cache=...)``

For the cluster the transport is wrapped instead (:class:`TimedTransport`),
timing every ``describe``, scan and ``insert`` RPC.  No program file is
instrumented.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.pdms import (
    AsyncSocketTransport,
    PeerFactSource,
    QueryService,
    ServiceCluster,
    auto_shard,
    canonicalize_query,
    ensure_plan,
    evaluate_reformulation,
    reformulate,
)

from reference import answer_digest
from workloads import GeneratedSystem, Op, WorkloadShape, build_system, operations, query_pool

FIRST_K = 10
#: Shards per data-bearing peer in the cluster workload (24 peers -> 96 endpoints).
SHARDS = 4

Row = Tuple[object, ...]


@dataclass
class Record:
    """One completed operation of a run."""

    op: Op
    client: int
    #: Position of the operation in its client's stream.
    position: int
    start: float
    end: float
    #: A full answer is kept as its ``answer_digest``: storing every answer
    #: set would make the run's peak memory the benchmark's, not the
    #: program's, and slow the garbage collections of later operations.
    digest: Optional[Tuple[int, int]] = None
    #: The rows themselves, kept for first-10 reads and for reads that
    #: overlapped another client's insert (whose check needs the rows).
    answer: Optional[Tuple[Row, ...]] = None
    #: ``False`` when the cluster reported the answer incomplete.
    complete: bool = True
    error: Optional[str] = None
    #: Writes known complete before the read started / started before it ended.
    lo: int = 0
    hi: int = 0
    #: ``threading.get_ident()`` of the client thread that issued it.
    thread: int = 0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class WriteLog:
    """Start order and completion of inserts across concurrent clients."""

    def __init__(self):
        self._lock = threading.Lock()
        #: ``(client, position, peer, relation, row)`` in start order.
        self.order: List[Tuple[int, int, str, str, Row]] = []
        self._done: List[bool] = []
        self._prefix = 0

    def begin(self, client: int, position: int, op: Op) -> int:
        with self._lock:
            self.order.append((client, position, op.peer, op.relation, op.row))
            self._done.append(False)
            return len(self.order) - 1

    def finish(self, index: int) -> None:
        with self._lock:
            self._done[index] = True
            while self._prefix < len(self._done) and self._done[self._prefix]:
                self._prefix += 1

    def completed_prefix(self) -> int:
        with self._lock:
            return self._prefix

    def started(self) -> int:
        with self._lock:
            return len(self.order)

    def identities(self, count: int) -> FrozenSet[Tuple[int, int]]:
        """``(client, position)`` of the first ``count`` writes in start order."""
        with self._lock:
            return frozenset((c, p) for c, p, *_ in self.order[:count])


class Intervals:
    """Thread-safe log of ``(kind, start, end, issuing thread)`` call intervals."""

    def __init__(self):
        self._lock = threading.Lock()
        self.items: List[Tuple[str, float, float, int]] = []

    def add(self, kind: str, start: float, end: float, thread: int) -> None:
        with self._lock:
            self.items.append((kind, start, end, thread))

    def timed(self, kind: str, call: Callable, *args):
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            self.add(kind, start, time.perf_counter(), threading.get_ident())


class TimedTransport:
    """Delegating transport proxy timing each ``describe``, scan and ``insert``."""

    def __init__(self, inner: AsyncSocketTransport, log: Intervals):
        self._inner = inner
        self._log = log

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def describe(self, peer):
        return self._log.timed("describe", self._inner.describe, peer)

    def scan_batch(self, peer, requests):
        return self._log.timed("scan", self._inner.scan_batch, peer, requests)

    def scan_batch_since(self, peer, requests):
        return self._log.timed("scan", self._inner.scan_batch_since, peer, requests)

    def insert(self, peer, relation, rows):
        return self._log.timed("insert", self._inner.insert, peer, relation, rows)

    def submit_scan(self, peer, requests):
        start = time.perf_counter()
        thread = threading.get_ident()
        future = self._inner.submit_scan(peer, requests)
        future.add_done_callback(
            lambda _: self._log.add("scan", start, time.perf_counter(), thread)
        )
        return future


# ---------------------------------------------------------------------------
# Targets: one built system each
# ---------------------------------------------------------------------------


class ServiceTarget:
    """A ``QueryService`` over generated per-peer data (cold or warm)."""

    def __init__(self, seed: int, shape: WorkloadShape, warm: bool):
        self.system = build_system(seed, shape)
        self.pool = (
            query_pool(self.system.top_relations, shape.pool_size)
            if shape.pool_size
            else []
        )
        # The union-plan engine, whose compile and execute steps the traced
        # replay splits; QueryService's own default is the per-rewriting
        # "backtracking" engine, which the checker uses as its reference.
        self.service = QueryService(self.system.pdms, engine="shared", data=self.system.data)
        self.mappings = {m.name: m for m in self.system.pdms.peer_mappings()}
        self.warm = warm
        # The traced replay's view of the data: a federated source over the
        # same live instances, so its fragment-cache tokens equal the service's.
        self.source = PeerFactSource(self.system.data)
        for query in self.pool if warm else ():
            self.service.answer(query)

    def serve(self, op: Op) -> Tuple[Optional[Collection[Row]], bool]:
        if op.kind == "answer":
            return self.service.answer(op.query), True
        if op.kind == "first10":
            return self.service.answer(op.query, limit=FIRST_K), True
        if op.kind == "write":
            self.system.data[op.peer].add(op.relation, op.row)
            return None, True
        if op.kind == "catalogue":
            mapping = self.mappings[op.mapping]
            self.service.remove_peer_mapping(op.mapping)
            self.service.add_peer_mapping(mapping)
            return None, True
        raise ValueError(f"unknown operation kind {op.kind!r}")

    def serve_traced(self, op: Op, layers: "LayerTimes") -> Tuple[Optional[Collection[Row]], bool]:
        if op.kind not in ("answer", "first10"):
            return self.serve(op)
        limit = FIRST_K if op.kind == "first10" else None
        clock = time.perf_counter
        t0 = clock()
        canonical = canonicalize_query(op.query)
        t1 = clock()
        if self.warm:
            misses = self.service.stats.misses
            result = self.service.reformulate(op.query)
            built = self.service.stats.misses != misses
        else:
            result = reformulate(self.system.pdms, canonical.query)
            built = True
        t2 = clock()
        rewritings = len(result.all_rewritings()) if limit is None else 0
        t3 = clock()
        plan = ensure_plan(result, self.source)
        if limit is None:
            for _ in plan.fragments():
                pass
        t4 = clock()
        rows = evaluate_reformulation(
            result, self.source, engine="shared", limit=limit, plan=plan,
            cache=self.service.fragment_cache,
        )
        t5 = clock()
        layers.add("canonicalize", t1 - t0)
        layers.add("tree", t2 - t1)
        if built:
            stats = result.statistics
            layers.count("trees", 1)
            layers.count("tree_nodes", stats.total_nodes)
            layers.count("tree_seconds", t2 - t1)
            layers.count("pruned", stats.pruned_unsatisfiable + stats.pruned_dead_end)
        layers.add("enumerate", t3 - t2)
        layers.add("compile", t4 - t3)
        layers.add("execute", t5 - t4)
        if limit is None:
            layers.count("full_answers", 1)
            layers.count("rewritings", rewritings)
            layers.count("unique_fragments", plan.stats.unique_fragments)
            layers.count("fragment_references", plan.stats.fragment_references)
        layers.count("answer_rows", len(rows))
        return rows, True

    def counters(self) -> Dict[str, float]:
        stats = self.service.stats_snapshot()
        fragments = stats.fragments
        cache = self.service.fragment_cache
        return {
            "service.hits": stats.hits,
            "service.misses": stats.misses,
            "service.invalidations": stats.invalidations,
            "service.plans_compiled": stats.plans_compiled,
            "fragment.hits": fragments.hits,
            "fragment.misses": fragments.misses,
            "fragment.invalidations": fragments.invalidations,
            "fragment.evictions": fragments.evictions,
            "fragment.rejections": fragments.rejections,
            "fragment.bytes": cache.current_bytes if cache is not None else 0,
        }

    def close(self) -> None:
        self.service.clear_cache()


class ClusterTarget(ServiceTarget):
    """A ``ServiceCluster`` over sharded data behind ``AsyncSocketTransport``."""

    def __init__(self, seed: int, shape: WorkloadShape, log: Optional[Intervals] = None):
        self.system = build_system(seed, shape)
        self.pool = query_pool(self.system.top_relations, shape.pool_size)
        shard_map, workers = auto_shard(self.system.data, SHARDS)
        self.endpoints = len(workers)
        self.transport = AsyncSocketTransport(workers)
        wire = TimedTransport(self.transport, log) if log is not None else self.transport
        try:
            self.cluster = ServiceCluster(
                pdms=self.system.pdms, transport=wire, shard_map=shard_map
            )
            self.service = self.cluster.service
            for query in self.pool:
                self.serve(Op("answer", query=query))
        except BaseException:
            self.transport.close()
            raise

    def serve(self, op: Op) -> Tuple[Optional[Collection[Row]], bool]:
        if op.kind == "answer":
            answer = self.cluster.answer(op.query)
            return answer.rows, answer.complete
        if op.kind == "write":
            self.cluster.insert(op.relation, [op.row])
            return None, True
        raise ValueError(f"unknown cluster operation kind {op.kind!r}")

    def serve_traced(self, op: Op, layers: "LayerTimes"):
        return self.serve(op)

    def counters(self) -> Dict[str, float]:
        counters = super().counters()
        scatter = self.cluster.source.scatter_stats()
        counters.update({
            "transport.rpcs": self.transport.rpc_count,
            "scatter.delta_rows": scatter["delta_rows_shipped"],
            "scatter.full_rows": scatter["full_rows_shipped"],
            "scatter.delta_scans": scatter["delta_scans"],
            "scatter.full_scans": scatter["full_scans"],
            "scatter.pruned_scans": scatter["pruned_scans"],
            "scatter.fanout_scans": scatter["fanout_scans"],
            "scatter.retries": scatter["retries"],
            "scatter.failures": self.cluster.source.failure_count,
        })
        return counters

    def server_port(self) -> int:
        return self.transport.address[1]

    def close(self) -> None:
        self.cluster.close()
        self.transport.close()


# ---------------------------------------------------------------------------
# Layer timing of the traced replay
# ---------------------------------------------------------------------------


@dataclass
class LayerTimes:
    """Summed seconds per layer call plus counts, over one traced replay."""

    seconds: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)

    def add(self, layer: str, seconds: float) -> None:
        self.seconds[layer] = self.seconds.get(layer, 0.0) + seconds

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


# ---------------------------------------------------------------------------
# Closed-loop clients
# ---------------------------------------------------------------------------


def run_clients(
    serve: Callable[[Op], Tuple[Optional[Collection[Row]], bool]],
    streams: Sequence[Iterator[Op]],
    seconds: Optional[float] = None,
    counts: Optional[Sequence[int]] = None,
    on_op: Optional[Callable[[int, int], None]] = None,
) -> Tuple[List[Record], WriteLog, float]:
    """Run one closed-loop client per stream; returns records, writes, wall seconds.

    Each client issues its next operation only after the previous one
    completed, until ``seconds`` elapsed or it issued ``counts[client]``
    operations.  ``on_op(client, position)`` runs between operations,
    outside every timed interval.
    """
    writes = WriteLog()
    records: List[List[Record]] = [[] for _ in streams]
    deadline = None if seconds is None else time.perf_counter() + seconds

    def client(index: int) -> None:
        out = records[index]
        limit = None if counts is None else counts[index]
        for position, op in enumerate(streams[index]):
            if limit is not None and position >= limit:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if op.kind == "write":
                slot = writes.begin(index, position, op)
                lo = hi = 0
            else:
                lo = writes.completed_prefix()
            record = Record(op, index, position, 0.0, 0.0, thread=threading.get_ident())
            record.start = time.perf_counter()
            try:
                rows, record.complete = serve(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                rows, record.error = None, f"{type(exc).__name__}: {exc}"
            record.end = time.perf_counter()
            if op.kind == "write":
                writes.finish(slot)
            else:
                hi = writes.started()
                record.lo, record.hi = lo, hi
            if rows is not None:
                if op.kind == "answer":
                    record.digest = answer_digest(rows)
                if op.kind != "answer" or lo != hi:
                    record.answer = tuple(rows)
            out.append(record)
            if on_op is not None:
                on_op(index, position)

    started = time.perf_counter()
    if len(streams) == 1:
        client(0)
    else:
        threads = [
            threading.Thread(target=client, args=(i,), name=f"perfbench-client-{i}")
            for i in range(len(streams))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
            if thread.is_alive():
                raise RuntimeError(f"client thread {thread.name} did not finish")
    wall = time.perf_counter() - started
    return [r for per in records for r in per], writes, wall


def client_streams(
    seed: int, system: GeneratedSystem, shape: WorkloadShape, clients: int, part: int, parts: int
):
    return [operations(seed, system, shape, client, part, parts, clients) for client in range(clients)]


def union_ms(intervals: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Milliseconds of ``[start, end]`` covered by at least one interval."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    covered = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        covered += b - max(a, cursor)
        cursor = b
    return covered * 1000.0


def attributed_ms(
    items: Sequence[Tuple[str, float, float, int]], kinds: Sequence[str],
    record: Record, client_threads: FrozenSet[int],
) -> float:
    """Milliseconds of ``record`` covered by its own calls of ``kinds``.

    A call issued on the record's client thread belongs to it.  A call
    issued on a worker thread (the scatter pool) cannot be traced to its
    client, so it is counted for every read it overlaps: with concurrent
    clients that over-attributes worker-issued scans.
    """
    own = [
        (start, end) for kind, start, end, thread in items
        if kind in kinds and (thread == record.thread or thread not in client_threads)
    ]
    return union_ms(own, record.start, record.end)
