#!/usr/bin/env python3
"""The PDMS serving benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm-mix --seed 1 --seconds 12 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``cold-reformulate`` -- one client, every read a query never asked
  before, alternating full and first-10 answers over a 96-peer PDMS.
* ``warm-mix`` -- one client over a warm ``QueryService``: Zipf reads
  from a 16-query pool, ~10% single-row inserts, ~3% catalogue writes.
* ``cluster-socket`` -- two clients over a ``ServiceCluster`` whose data
  is sharded 4 ways (96 endpoints) behind ``AsyncSocketTransport``.

Every served answer is checked, outside the timed region, against an
independent reference (see ``reference.py``).  Lines starting with ``#``
are the human-readable report; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The per-layer run first repeats the untraced run, then replays the same
operations through the traced layer calls.

The benchmark refuses to run when a ``REPRO_*`` variable is set, or when
the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"

CLIENT_THREAD_PREFIX = "perfbench-client-"
#: The whole run, every part included, must end within this many seconds.
RUN_TIMEOUT_S = 170
OP_KINDS = ("answer", "first10", "write", "catalogue")


@dataclass(frozen=True)
class Spec:
    """How one workload is built and driven."""

    why: str
    rows_per_relation: int
    domain: int
    pool_size: Optional[int]
    write_share: float
    catalogue_share: float
    clients: int
    #: Set-ups per part; ``setup_s`` is the median over every part's set-ups.
    setups: int
    #: Reads per part whose answer is also compared with the chase oracle.
    oracle_sample: int
    #: Fresh interpreters a run is measured in, one after another (see ``run_parts``).
    parts: int


WORKLOADS: Dict[str, Spec] = {
    "cold-reformulate": Spec(
        why="distinct queries: tree build, enumeration and plan compile dominate",
        rows_per_relation=50, domain=200, pool_size=None,
        write_share=0.0, catalogue_share=0.0, clients=1, setups=3, oracle_sample=1, parts=6,
    ),
    "warm-mix": Spec(
        why="warm caches: fragment execution and cache invalidation under writes",
        rows_per_relation=200, domain=800, pool_size=16,
        write_share=0.10, catalogue_share=0.03, clients=1, setups=1, oracle_sample=0, parts=3,
    ),
    "cluster-socket": Spec(
        why="data behind sockets: describe/scan RPCs, scatter and sharding",
        rows_per_relation=200, domain=800, pool_size=16,
        write_share=0.10, catalogue_share=0.0, clients=2, setups=1, oracle_sample=0, parts=3,
    ),
}

#: End-to-end metrics on the result line of an untraced run.
END_TO_END = (
    ("answer_p50_ms", "ms"),
    ("answer_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
)

#: Per-layer metrics on the result line of a traced run.
PER_LAYER = (
    ("reformulation.tree_ms", "ms"),
    ("reformulation.tree_nodes", "count"),
    ("reformulation.nodes_per_s", "1/s"),
    ("reformulation.pruned", "count"),
    ("reformulation.enumerate_ms", "ms"),
    ("reformulation.rewritings", "count"),
    ("planning.compile_ms", "ms"),
    ("planning.unique_fragments", "count"),
    ("planning.sharing_ratio", "ratio"),
    ("planning.execute_ms", "ms"),
    ("planning.answer_rows", "count"),
    ("fragment_cache.hit_rate", "ratio"),
    ("fragment_cache.invalidations", "count"),
    ("fragment_cache.evictions", "count"),
    ("fragment_cache.rejections", "count"),
    ("fragment_cache.bytes", "MB"),
    ("service.reformulation_hit_rate", "ratio"),
    ("service.invalidations", "count"),
    ("service.plans_compiled", "count"),
    ("service.unattributed_ms", "ms"),
    ("service.unattributed_share", "ratio"),
    ("transport.rpcs_per_op", "count"),
    ("transport.describe_per_answer", "count"),
    ("transport.describe_ms", "ms"),
    ("transport.scan_ms", "ms"),
    ("transport.insert_ms", "ms"),
    ("scatter.rows_shipped_per_op", "count"),
    ("scatter.delta_share", "ratio"),
    ("scatter.pruned_share", "ratio"),
    ("scatter.retries", "count"),
    ("scatter.failures", "count"),
    ("trace.overhead_ms", "ms"),
)

#: Per-layer metrics that count events over the run: a run's value is the
#: sum over its parts (every other per-layer metric is their mean).
SUMMED_LAYER_METRICS = frozenset({
    "fragment_cache.invalidations", "fragment_cache.evictions", "fragment_cache.rejections",
    "service.invalidations", "service.plans_compiled", "scatter.retries", "scatter.failures",
})

#: Workload-specific latencies reported on the ``#`` lines (not on the
#: result line, which carries only metrics every workload has).
EXTRA_PERCENTILES = {
    "cold-reformulate": (("first10", 0.5), ("first10", 0.9)),
    "warm-mix": (("answer", 0.99), ("write", 0.5), ("write", 0.9), ("catalogue", 0.5)),
    "cluster-socket": (("answer", 0.99), ("write", 0.5), ("write", 0.9)),
}


class UsageError(Exception):
    """The run cannot be made as asked; nothing is measured."""


def say(line: str = "") -> None:
    print(f"# {line}" if line else "#", flush=True)


def check_environment(environ=os.environ) -> None:
    knobs = sorted(name for name in environ if name.startswith("REPRO_"))
    if knobs:
        raise UsageError(
            "refusing to run with REPRO_* variables set (they change which code "
            f"path is measured): {', '.join(knobs)}"
        )
    if not (SOURCES / "repro" / "__init__.py").is_file():
        raise UsageError(f"the program's sources are missing: no {SOURCES / 'repro'}")


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def shape_of(spec: Spec):
    from workloads import WorkloadShape

    return WorkloadShape(
        spec.rows_per_relation, spec.domain, spec.pool_size,
        spec.write_share, spec.catalogue_share,
    )


def build_target(name: str, seed: int, log=None):
    """Build one workload's system from ``seed`` (``log``: time the cluster's RPCs)."""
    from serving import ClusterTarget, ServiceTarget

    shape = shape_of(WORKLOADS[name])
    if name == "cluster-socket":
        return ClusterTarget(seed, shape, log)
    return ServiceTarget(seed, shape, warm=name == "warm-mix")


def established_to(port: int) -> int:
    """Established client-side TCP connections to ``127.0.0.1:port``."""
    wanted = f"{port:04X}"
    count = 0
    with open("/proc/net/tcp") as table:
        next(table)
        for line in table:
            fields = line.split()
            if fields[2].rsplit(":", 1)[1] == wanted and fields[3] == "01":
                count += 1
    return count


def live_threads(prefix: str) -> int:
    return sum(1 for t in threading.enumerate() if t.name.startswith(prefix) and t.is_alive())


class ShapeGuard:
    """Fails the run when client threads or socket connections exceed the load shape."""

    def __init__(self, clients: int, endpoints: int, port: Optional[int]):
        self.clients = clients
        self.connection_limit = clients * endpoints
        self.port = port
        self.max_connections = 0
        self.max_clients = 0

    def __call__(self, client: int, position: int) -> None:
        if position % 25:
            return
        self.max_clients = max(self.max_clients, live_threads(CLIENT_THREAD_PREFIX) or 1)
        if self.max_clients > self.clients:
            raise RuntimeError(
                f"{self.max_clients} client threads alive; the load shape allows {self.clients}"
            )
        if self.port is not None:
            self.max_connections = max(self.max_connections, established_to(self.port))
            if self.max_connections > self.connection_limit:
                raise RuntimeError(
                    f"{self.max_connections} socket connections open; the load shape "
                    f"allows {self.connection_limit}"
                )


def closed_cleanly(port: int, deadline_s: float = 5.0) -> Tuple[bool, int]:
    """Wait for the cluster's connections and transport thread to go away."""
    stop = time.monotonic() + deadline_s
    while True:
        open_connections = established_to(port)
        loop_alive = live_threads("repro-async-transport")
        if (open_connections == 0 and loop_alive == 0) or time.monotonic() > stop:
            return open_connections == 0 and loop_alive == 0, open_connections
        time.sleep(0.05)


def run_pass(name: str, seed: int, part: int, target, seconds: Optional[float],
             counts: Optional[Sequence[int]], traced: bool, layers=None):
    """One closed-loop pass over ``target``; returns (records, writes, wall, guard)."""
    from serving import client_streams, run_clients

    spec = WORKLOADS[name]
    streams = client_streams(seed, target.system, shape_of(spec), spec.clients, part, spec.parts)
    port = target.server_port() if name == "cluster-socket" else None
    guard = ShapeGuard(spec.clients, getattr(target, "endpoints", 1), port)
    if traced:
        serve = lambda op: target.serve_traced(op, layers)  # noqa: E731
    else:
        serve = target.serve
    records, writes, wall = run_clients(serve, streams, seconds, counts, on_op=guard)
    if live_threads(CLIENT_THREAD_PREFIX):
        raise RuntimeError("client threads still alive after the run")
    return records, writes, wall, guard


def close_target(name: str, target) -> None:
    port = target.server_port() if name == "cluster-socket" else None
    target.close()
    if port is not None:
        clean, still_open = closed_cleanly(port)
        if not clean:
            raise RuntimeError(
                f"cluster did not close cleanly: {still_open} connections still open "
                "or the transport thread is alive"
            )


def timed_setups(name: str, seed: int, count: int):
    """Build the system ``count`` times; returns the last target and every set-up time."""
    seconds: List[float] = []
    target = None
    for _ in range(count):
        if target is not None:
            close_target(name, target)
            target = None
            gc.collect()
        started = time.perf_counter()
        target = build_target(name, seed)
        seconds.append(time.perf_counter() - started)
    return target, seconds


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def check_records(name: str, seed: int, passes: Sequence[Tuple[list, object]]) -> Dict[str, int]:
    """Check every read of every pass against the reference; mark failures.

    Returns counts of the checks made.  A record fails when it raised,
    came back incomplete, or disagrees with the reference or the oracle.
    """
    from reference import ReferenceAnswers, answer_digest, oracle_answers
    from serving import FIRST_K
    from workloads import build_system

    spec = WORKLOADS[name]
    shape = shape_of(spec)
    fresh = build_system(seed, shape)
    reference = ReferenceAnswers(fresh.pdms, fresh.data)
    oracle_checked = 0
    # The oracle sample: the first reads of the first pass made before any write.
    if spec.oracle_sample:
        sample = [r for r in passes[0][0] if r.op.kind in ("answer", "first10")
                  and r.error is None and r.hi == 0][: spec.oracle_sample]
        for record in sample:
            certain = oracle_answers(fresh.pdms, record.op.query, fresh.data)
            if record.digest is not None:
                agrees = record.digest == answer_digest(certain)
            else:
                agrees = set(record.answer) <= certain and len(record.answer) == min(FIRST_K, len(certain))
            if not agrees:
                record.error = "answer differs from the chase oracle's certain answers"
            oracle_checked += 1
    checked = 0
    for index, (records, writes) in enumerate(passes):
        if index and (writes.order or reference.writes):
            # Each pass applied its own writes: start again from fresh data.
            fresh = build_system(seed, shape)
            reference = ReferenceAnswers(fresh.pdms, fresh.data)
        for record in records:
            if record.op.kind in ("answer", "first10") and record.error is None:
                reference.add_query(record.op.query_id, record.op.query)
        for _, _, peer, relation, row in writes.order:
            reference.insert(peer, relation, row)
        for record in records:
            if record.error is not None:
                continue
            if not record.complete:
                record.error = "cluster answer flagged incomplete"
            elif record.op.kind in ("answer", "first10"):
                if record.answer is None:
                    agrees = record.digest == reference.digest_after(record.op.query_id, record.lo)
                else:
                    limit = FIRST_K if record.op.kind == "first10" else None
                    agrees = reference.check(
                        record.op.query_id, set(record.answer), record.lo, record.hi, limit
                    )
                if not agrees:
                    record.error = "answer differs from the reference"
                checked += 1
    return {"reference_checked": checked, "oracle_checked": oracle_checked}


def compare_passes(untraced: Tuple[list, object], traced: Tuple[list, object]) -> int:
    """Mark traced full answers that differ from the same untraced read; returns compared.

    A read is compared when, in both passes, it saw exactly the same
    writes.  Only full answers are compared: a first-10 read may return
    any ten answers, and both passes' first-10 reads are checked against
    the reference instead.
    """
    (before, before_writes), (after, after_writes) = untraced, traced
    twins = {
        (r.client, r.position): r for r in before
        if r.op.kind == "answer" and r.lo == r.hi and r.error is None
    }
    compared = 0
    for record in after:
        twin = twins.get((record.client, record.position))
        if twin is None or record.error or record.lo != record.hi:
            continue
        if before_writes.identities(twin.hi) != after_writes.identities(record.hi):
            continue
        compared += 1
        if record.digest != twin.digest:
            record.error = "traced answer differs from the untraced answer"
    return compared


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def latencies(records, kind: str) -> List[float]:
    return [r.ms for r in records if r.op.kind == kind and r.error is None]


def end_to_end(answers: Sequence[float], ops_per_s: float, setup_s: float, rss_mb: float) -> Dict[str, float]:
    """The result-line metrics from pooled full-answer latencies and run totals."""
    from stats import percentile

    metrics = {
        "answer_p50_ms": percentile(answers, 0.5),
        "answer_p90_ms": percentile(answers, 0.9),
        "ops_per_s": ops_per_s,
        "setup_s": setup_s,
        "rss_peak_mb": rss_mb,
    }
    missing = [key for key, value in metrics.items() if value is None]
    if missing:
        raise RuntimeError(
            f"too few samples for {', '.join(missing)} ({len(answers)} full answers); "
            "raise --seconds"
        )
    return metrics


def extras(name: str, pooled: Dict[str, List[float]]) -> Dict[str, Optional[float]]:
    from stats import percentile

    out: Dict[str, Optional[float]] = {}
    for kind, fraction in EXTRA_PERCENTILES[name]:
        out[f"{kind}_p{round(fraction * 100)}_ms"] = percentile(pooled[kind], fraction)
    return out


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(untraced, traced, layers, before, after, log) -> Dict[str, float]:
    delta = {key: after[key] - before[key] for key in after if key != "fragment.bytes"}
    reads = [r for r in traced if r.op.kind in ("answer", "first10") and r.error is None]
    writes = [r for r in traced if r.op.kind == "write" and r.error is None]
    untraced_reads = [r for r in untraced if r.op.kind in ("answer", "first10") and r.error is None]
    seconds, counts = layers.seconds, layers.counts
    n_reads = len(reads)
    full = counts.get("full_answers", 0)
    trees = counts.get("trees", 0)
    per_read_ms = lambda key: ratio(seconds.get(key, 0.0) * 1000.0, n_reads)  # noqa: E731
    untraced_ms = statistics.fmean(r.ms for r in untraced_reads)
    traced_ms = statistics.fmean(r.ms for r in reads)
    metrics = {
        "reformulation.tree_ms": per_read_ms("tree"),
        "reformulation.tree_nodes": ratio(counts.get("tree_nodes", 0), trees),
        "reformulation.nodes_per_s": ratio(counts.get("tree_nodes", 0), counts.get("tree_seconds", 0.0)),
        "reformulation.pruned": ratio(counts.get("pruned", 0), trees),
        "reformulation.enumerate_ms": ratio(seconds.get("enumerate", 0.0) * 1000.0, full),
        "reformulation.rewritings": ratio(counts.get("rewritings", 0), full),
        "planning.compile_ms": per_read_ms("compile"),
        "planning.unique_fragments": ratio(counts.get("unique_fragments", 0), full),
        "planning.sharing_ratio": ratio(
            counts.get("fragment_references", 0) - counts.get("unique_fragments", 0),
            counts.get("fragment_references", 0),
        ),
        "planning.execute_ms": per_read_ms("execute"),
        "planning.answer_rows": ratio(counts.get("answer_rows", 0), n_reads),
        "fragment_cache.hit_rate": ratio(delta["fragment.hits"], delta["fragment.hits"] + delta["fragment.misses"]),
        "fragment_cache.invalidations": delta["fragment.invalidations"],
        "fragment_cache.evictions": delta["fragment.evictions"],
        "fragment_cache.rejections": delta["fragment.rejections"],
        "fragment_cache.bytes": after["fragment.bytes"] / 1e6,
        "service.reformulation_hit_rate": ratio(delta["service.hits"], delta["service.hits"] + delta["service.misses"]),
        "service.invalidations": delta["service.invalidations"],
        "service.plans_compiled": delta["service.plans_compiled"],
        "trace.overhead_ms": traced_ms - untraced_ms,
    }
    if log is None:
        attributed = sum(seconds.get(k, 0.0) for k in ("canonicalize", "tree", "enumerate", "compile", "execute"))
        attributed_ms_per_read = ratio(attributed * 1000.0, n_reads)
        transport = dict.fromkeys(
            ("transport.rpcs_per_op", "transport.describe_per_answer", "transport.describe_ms",
             "transport.scan_ms", "transport.insert_ms", "scatter.rows_shipped_per_op",
             "scatter.delta_share", "scatter.pruned_share", "scatter.retries", "scatter.failures"),
            0.0,
        )
    else:
        from serving import attributed_ms

        items = log.items
        clients = frozenset(r.thread for r in traced)
        covered = lambda kinds, rs: sum(  # noqa: E731
            attributed_ms(items, kinds, r, clients) for r in rs
        )
        attributed_ms_per_read = ratio(covered(("describe", "scan"), reads), n_reads)
        describes = sum(
            1 for kind, start, _, thread in items
            if kind == "describe" and any(
                r.thread == thread and r.start <= start <= r.end for r in reads
            )
        )
        ops = len(untraced)
        transport = {
            "transport.rpcs_per_op": ratio(delta["transport.rpcs"], ops),
            "transport.describe_per_answer": ratio(describes, n_reads),
            "transport.describe_ms": ratio(covered(("describe",), reads), n_reads),
            "transport.scan_ms": ratio(covered(("scan",), reads), n_reads),
            "transport.insert_ms": ratio(covered(("insert",), writes), len(writes)),
            "scatter.rows_shipped_per_op": ratio(delta["scatter.delta_rows"] + delta["scatter.full_rows"], ops),
            "scatter.delta_share": ratio(delta["scatter.delta_scans"], delta["scatter.delta_scans"] + delta["scatter.full_scans"]),
            "scatter.pruned_share": ratio(delta["scatter.pruned_scans"], delta["scatter.pruned_scans"] + delta["scatter.fanout_scans"]),
            "scatter.retries": delta["scatter.retries"],
            "scatter.failures": delta["scatter.failures"],
        }
    metrics.update(transport)
    metrics["service.unattributed_ms"] = untraced_ms - attributed_ms_per_read
    metrics["service.unattributed_share"] = ratio(untraced_ms - attributed_ms_per_read, untraced_ms)
    return metrics


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def header(args) -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def op_counts(records) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for record in records:
        counts[record.op.kind] = counts.get(record.op.kind, 0) + 1
    return counts


def hash_seed(seed: int, part: int) -> int:
    """The ``PYTHONHASHSEED`` of one part: set iteration order is an input too."""
    return zlib.crc32(f"{seed}:{part}".encode())


def run_part(args) -> Dict[str, object]:
    """Measure one part in this interpreter; returns its raw figures."""
    name = args.workload
    spec = WORKLOADS[name]
    seed = args.seed * spec.parts + args.part
    seconds = args.seconds / spec.parts

    target, setup_all = timed_setups(name, seed, spec.setups)
    before = target.counters()
    records, writes, wall, guard = run_pass(name, seed, args.part, target, seconds, None, traced=False)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = target.counters()
    close_target(name, target)
    del target
    gc.collect()

    passes = [(records, writes)]
    traced_records: list = []
    layer_values = None
    if args.trace:
        from serving import Intervals, LayerTimes

        layers = LayerTimes()
        log = Intervals() if name == "cluster-socket" else None
        traced_target = build_target(name, seed, log)
        per_client = [sum(1 for r in records if r.client == c) for c in range(spec.clients)]
        traced_records, traced_writes, _, _ = run_pass(
            name, seed, args.part, traced_target, None, per_client, traced=True, layers=layers
        )
        close_target(name, traced_target)
        passes.append((traced_records, traced_writes))

    checks = check_records(name, seed, passes)
    if args.trace:
        checks["traced_vs_untraced_compared"] = compare_passes(passes[0], passes[1])
        layer_values = per_layer(records, traced_records, layers, before, after, log)
    every = records + traced_records
    return {
        "latencies": {kind: latencies(records, kind) for kind in OP_KINDS},
        "op_counts": op_counts(records),
        "wall_s": wall,
        "setup_s": setup_all,
        "rss_mb": rss_mb,
        "attempted": len(every),
        "failed": sum(1 for r in every if r.error is not None),
        "errors": sorted({r.error for r in every if r.error is not None}),
        "checks": checks,
        "max_socket_connections": guard.max_connections,
        "layers": layer_values,
    }


def run_parts(args) -> List[Dict[str, object]]:
    """Run the workload's parts one after another, each in a fresh interpreter.

    Each part has its own data and ``PYTHONHASHSEED``, both drawn from the
    run's seed, and measures its share of ``--seconds``.  The same query
    over the same data costs several times more under some set iteration
    orders and object layouts than under others, and those are fixed per
    interpreter; pooling several interpreters keeps one lucky or unlucky
    process from moving a run's figures.
    """
    deadline = time.monotonic() + RUN_TIMEOUT_S
    parts = []
    for part in range(WORKLOADS[args.workload].parts):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace), "--part", str(part),
        ]
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed(args.seed, part)))
        child = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            raise RuntimeError(f"part {part} failed with exit code {child.returncode}")
        parts.append(json.loads(lines[-1]))
    return parts


def merge_layers(parts: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Per-layer metrics of a run: event counts add up, everything else is averaged."""
    merged = {}
    for key, _ in PER_LAYER:
        values = [part["layers"][key] for part in parts]
        merged[key] = sum(values) if key in SUMMED_LAYER_METRICS else statistics.fmean(values)
    return merged


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        check_environment()
    except UsageError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    sys.path.insert(0, str(HERE))
    if args.part is not None:
        print(json.dumps(run_part(args)), flush=True)
        return 0

    name = args.workload
    info = header(args)
    say("run " + json.dumps(info, sort_keys=True))
    parts = run_parts(args)

    pooled: Dict[str, List[float]] = {kind: [] for kind in OP_KINDS}
    counts: Dict[str, int] = {}
    for part in parts:
        for kind, values in part["latencies"].items():
            pooled[kind].extend(values)
        for kind, count in part["op_counts"].items():
            counts[kind] = counts.get(kind, 0) + count
    setups = [s for part in parts for s in part["setup_s"]]
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    checks: Dict[str, int] = {}
    for part in parts:
        for key, value in part["checks"].items():
            checks[key] = checks.get(key, 0) + value
    from stats import MIN_BEYOND

    report = {
        **info,
        "op_counts": counts,
        "percentile_samples": {k: len(v) for k, v in pooled.items() if v},
        "min_samples_beyond_percentile": MIN_BEYOND,
        "wall_s": sum(part["wall_s"] for part in parts),
        "setup_samples_s": setups,
        "failed_ratio": failed / attempted,
        "checks": checks,
        "max_socket_connections": max(part["max_socket_connections"] for part in parts),
        "extra_metrics_ms": extras(name, pooled),
    }
    say("report " + json.dumps(report, sort_keys=True))
    for error in sorted({e for part in parts for e in part["errors"]})[:5]:
        say(f"failure: {error}")

    if args.trace:
        values = merge_layers(parts)
        units = dict(PER_LAYER)
    else:
        values = end_to_end(
            pooled["answer"],
            sum(sum(part["op_counts"].values()) for part in parts) / report["wall_s"],
            statistics.median(setups),
            max(part["rss_mb"] for part in parts),
        )
        units = dict(END_TO_END)
    for key, value in values.items():
        say(f"{key:34s} {value:14.4f} {units[key]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
