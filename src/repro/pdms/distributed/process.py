"""One worker process per peer: the out-of-process transport backend.

:class:`ProcessTransport` implements the same wire contract as
:class:`~repro.pdms.distributed.transport.LoopbackTransport`, but each
peer's :class:`~repro.database.instance.Instance` lives in its own worker
process (``multiprocessing``), rebuilt there from the shipped rows and
serving batched pattern-level scan RPCs over a duplex pipe.  Scans
therefore run on the worker's CPU — concurrent scatter-gather across
peers sidesteps the GIL, which is the whole point of the backend.

Protocol (one request/response pair per RPC, length-prefixed by the pipe):

* request: ``(op, payload)`` where ``op`` is ``"describe"``,
  ``"scan_batch"``, ``"insert"``, ``"ping"``, ``"sleep"`` (chaos aid for
  timeout tests), or ``"stop"``; a traced request appends a third
  element (the wire trace context) which workers unpack tolerantly —
  ignoring trailing elements is the forward-compatibility contract;
* response: ``("ok", value)`` — where ``value`` is wrapped in a
  :class:`~repro.pdms.distributed.transport.TraceEnvelope` carrying the
  worker's serve span *only* when the request was traced —
  ``("data_error", (kind, message))``
  (malformed probe or invalid insert — re-raised client-side as the
  same ``ValueError`` / :class:`~repro.errors.InstanceError` a local
  instance would raise, so the two backends stay interchangeable), or
  ``("error", message)`` (unexpected worker fault —
  :class:`~repro.errors.TransportError`).

Failure semantics: an RPC that exceeds ``REPRO_TRANSPORT_TIMEOUT_MS``
(default 10 s) **circuit-breaks the peer** — later RPCs to it fail fast
with :class:`~repro.errors.TransportError` — but the break is no longer
permanent: after ``REPRO_BREAKER_COOLDOWN_MS`` a half-open probe
(:class:`~repro.pdms.distributed.hedging.HalfOpenBreaker`) is allowed
through.  The probe first *drains* any straggling response left over
from the timed-out RPC (tracked via an outstanding-send counter), so the
request/response pairing on the pipe stays aligned; a probe that cannot
drain or that fails re-arms the cooldown, a successful one closes the
breaker and the healed peer rejoins the scatter set.  A *lost
connection* (broken pipe / EOF) is still permanent — there is no pipe
left to probe.

Version tokens shipped by a worker embed the worker-side instance id,
which is only unique *within* that process.  The client therefore salts
every token with a transport-unique nonce, keeping tokens globally
unambiguous for version-keyed caches shared across transports.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ...database.instance import Instance
from ...errors import InstanceError, TransportError
from ...config import transport_timeout_seconds
from ...obs.trace import ServeSpan, current_wire_context
from .hedging import HalfOpenBreaker
from .transport import (
    RelationInfo,
    Row,
    ScanRequest,
    ScanSinceResult,
    SinceScanRequest,
    TransportBase,
    decode_pattern,
    describe_instance,
    scan_instance_since,
    traced_reply,
    unwrap_envelope,
)

#: Process-unique transport nonces; combined with the pid they make the
#: version tokens of two transports — even across client restarts that
#: recycle worker pids — never compare equal.
_transport_ids = itertools.count(1)


def _serve_peer(conn, instance: Instance) -> None:
    """Worker-process loop: host one peer's instance, answer RPCs.

    Module-level (not a closure) so the "spawn" start method can import
    it.  The instance crosses the process boundary whole — pickled via
    :meth:`Instance.__reduce__` under "spawn" (rows, arity map, and
    schema survive; indexes rebuild lazily), inherited copy-on-write
    under "fork" — so declared-but-empty relations keep their arity and
    schema validation keeps applying to remote inserts.
    """
    pid = os.getpid()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        # Tolerant unpacking is the wire-compatibility contract: an
        # untraced request is the bare (op, arg) pair it always was, a
        # traced one appends the wire trace context, and a worker that
        # ignores trailing elements keeps serving either shape.
        op, arg = message[0], message[1]
        ctx = message[2] if len(message) > 2 else None
        try:
            if op == "stop":
                conn.send(("ok", None))
                break
            if op == "ping":
                conn.send(("ok", "pong"))
            elif op == "sleep":
                # Chaos aid: hold the worker busy for `arg` seconds before
                # replying — the deterministic way to exercise the client's
                # timeout circuit breaker.
                time.sleep(float(arg))
                conn.send(("ok", None))
            elif op == "describe":
                conn.send(("ok", describe_instance(instance)))
            elif op == "scan_batch":
                span = ServeSpan(
                    ctx, "rpc.serve.scan", transport="process", pid=pid
                )
                with span:
                    results = []
                    for relation, encoded in arg:
                        pattern = decode_pattern(encoded)
                        results.append(
                            tuple(instance.get_matching(relation, pattern))
                        )
                    if span.recording:
                        span.set("requests", len(arg))
                        span.set("rows", sum(len(r) for r in results))
                conn.send(("ok", traced_reply(results, span)))
            elif op == "scan_since":
                span = ServeSpan(
                    ctx, "rpc.serve.scan_since", transport="process", pid=pid
                )
                with span:
                    results = [
                        scan_instance_since(instance, relation, encoded, since)
                        for relation, encoded, since in arg
                    ]
                    if span.recording:
                        span.set("requests", len(arg))
                        span.set("rows", sum(len(rows) for _, _, rows in results))
                conn.send(("ok", traced_reply(results, span)))
            elif op == "insert":
                relation, rows = arg
                span = ServeSpan(
                    ctx, "rpc.serve.insert", transport="process", pid=pid,
                    relation=relation,
                )
                with span:
                    for row in rows:
                        instance.add(relation, row)
                    if span.recording:
                        span.set("rows", len(rows))
                conn.send(("ok", traced_reply(len(rows), span)))
            else:
                conn.send(("error", f"unknown op {op!r}"))
        except (ValueError, InstanceError) as exc:
            # Malformed probe (arity clash) or invalid insert: *data*
            # errors the client re-raises as the same type a local
            # instance would have raised.
            conn.send(("data_error", (type(exc).__name__, str(exc))))
        except Exception as exc:  # pragma: no cover - defensive
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
    conn.close()


class _Worker:
    __slots__ = ("process", "conn", "lock", "lost", "breaker", "outstanding")

    def __init__(self, process, conn, breaker_cooldown: Optional[float]):
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        #: Permanent failure (broken pipe / EOF) — no pipe left to probe.
        self.lost: Optional[str] = None
        #: Timeout circuit: trips on the first timeout, half-open probes
        #: after the cooldown let a healed worker rejoin.
        self.breaker = HalfOpenBreaker(max_failures=1, cooldown=breaker_cooldown)
        #: Requests sent minus responses received — >0 after a timeout
        #: means a straggling response may still arrive and must be
        #: drained before the next request keeps the pairing aligned.
        self.outstanding = 0

    @property
    def broken(self) -> Optional[str]:
        """Why the peer is currently unusable (``None`` when healthy)."""
        if self.lost:
            return self.lost
        if self.breaker.tripped:
            return self.breaker.reason or "circuit open"
        return None


class ProcessTransport(TransportBase):
    """Hosts each peer's instance in a dedicated worker process.

    Parameters
    ----------
    instances:
        Per-peer data to ship; each instance's rows are rebuilt (and
        re-indexed) inside that peer's worker.  The local objects are not
        referenced afterwards — the worker's copy is the authoritative
        one, mutated only through :meth:`insert`.
    timeout:
        Per-RPC timeout in seconds; defaults to
        ``REPRO_TRANSPORT_TIMEOUT_MS`` (10 s).  ``0`` blocks forever.
    start_method:
        ``multiprocessing`` start method; defaults to ``"fork"`` where
        available (fast, no re-import) and the platform default elsewhere.
    breaker_cooldown:
        Seconds before a timeout-tripped peer is offered a half-open
        probe; defaults to ``REPRO_BREAKER_COOLDOWN_MS`` (1 s).
    """

    def __init__(
        self,
        instances: Mapping[str, Instance],
        timeout: Optional[float] = None,
        start_method: Optional[str] = None,
        breaker_cooldown: Optional[float] = None,
    ):
        super().__init__(instances)
        self._timeout = timeout if timeout is not None else transport_timeout_seconds()
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        context = multiprocessing.get_context(start_method)
        self._nonce = (os.getpid(), next(_transport_ids))
        self._workers: Dict[str, _Worker] = {}
        try:
            for name, instance in instances.items():
                parent_conn, child_conn = context.Pipe(duplex=True)
                process = context.Process(
                    target=_serve_peer,
                    args=(child_conn, instance),
                    name=f"repro-peer-{name}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._workers[name] = _Worker(
                    process, parent_conn, breaker_cooldown
                )
        except BaseException:
            # A later worker failing to start (e.g. an unpicklable
            # instance under "spawn") must not orphan the ones already
            # running — stop them before propagating.
            self.close()
            raise

    # -- chaos / introspection --------------------------------------------

    def _broken_peers(self):
        """Peers whose circuit a timeout or lost pipe has broken."""
        return (name for name, worker in self._workers.items() if worker.broken)

    @property
    def nonce(self) -> Tuple[int, int]:
        """The transport-unique salt folded into shipped version tokens."""
        return self._nonce

    @property
    def prefers_parallel(self) -> bool:
        """Scatter hint: worker processes do real work off the caller's GIL."""
        return True

    # -- the wire ----------------------------------------------------------

    @staticmethod
    def _drain(worker: _Worker, grace: float = 0.05) -> bool:
        """Consume straggling responses left by timed-out RPCs.

        Called with ``worker.lock`` held, before a half-open probe sends
        its request: every outstanding response must be received (and
        discarded) first, or the probe would read the *old* RPC's answer.
        Returns ``False`` when a straggler has still not arrived within
        ``grace`` — the worker is presumably still busy.
        """
        while worker.outstanding > 0:
            if not worker.conn.poll(grace):
                return False
            worker.conn.recv()
            worker.outstanding -= 1
        return True

    def _call(self, peer: str, op: str, arg: object, trace=None):
        if self._closed:
            raise TransportError("transport is closed", peer=peer)
        worker = self._workers.get(peer)
        with self._lock:
            self._rpc_count += 1
            if peer in self._failed:
                raise TransportError(f"peer {peer!r} is unreachable", peer=peer)
        if worker is None:
            raise TransportError(f"unknown peer {peer!r}", peer=peer)
        with worker.lock:
            if worker.lost:
                raise TransportError(
                    f"peer {peer!r} connection lost: {worker.lost}", peer=peer
                )
            if not worker.breaker.allow():
                raise TransportError(
                    f"peer {peer!r} circuit is broken: "
                    f"{worker.breaker.reason}", peer=peer
                )
            try:
                if worker.outstanding and not self._drain(worker):
                    # Half-open probe refused: the straggling response
                    # from the timed-out RPC has still not arrived, so
                    # the pipe cannot be re-paired yet.  Re-arm.
                    worker.breaker.record_failure(
                        "straggling response still pending"
                    )
                    raise TransportError(
                        f"peer {peer!r} circuit is broken: straggling "
                        f"response still pending", peer=peer
                    )
                # The wire message only grows a third element when a
                # trace context rides along — untraced requests stay
                # byte-identical to the pre-tracing wire format.
                worker.conn.send(
                    (op, arg) if trace is None else (op, arg, trace)
                )
                worker.outstanding += 1
                if self._timeout and not worker.conn.poll(self._timeout):
                    # Keep the pipe: the response may yet straggle in and
                    # a half-open probe can drain it after the cooldown.
                    reason = f"RPC {op!r} timed out after {self._timeout}s"
                    worker.breaker.record_failure(reason)
                    raise TransportError(f"peer {peer!r}: {reason}", peer=peer)
                status, value = worker.conn.recv()
                worker.outstanding -= 1
                worker.breaker.record_success()
            except TransportError:
                raise
            except (BrokenPipeError, EOFError, OSError) as exc:
                worker.lost = f"{exc}"
                raise TransportError(
                    f"peer {peer!r} connection lost: {exc}", peer=peer
                ) from exc
        if status == "ok":
            # A traced reply arrives enveloped with the worker's serve
            # span; adopt it into the live trace and hand back the value.
            return unwrap_envelope(value)
        if status == "data_error":
            kind, message = value
            raise (InstanceError if kind == "InstanceError" else ValueError)(message)
        raise TransportError(f"peer {peer!r} RPC failed: {value}", peer=peer)

    def peers(self) -> Tuple[str, ...]:
        return tuple(self._workers)

    def ping(self, peer: str) -> bool:
        """Round-trip liveness probe."""
        return self._call(peer, "ping", None) == "pong"

    def sleep(self, peer: str, seconds: float) -> None:
        """Hold ``peer`` busy for ``seconds`` (chaos aid for timeout tests)."""
        self._call(peer, "sleep", seconds)

    def describe(self, peer: str) -> Dict[str, RelationInfo]:
        info = self._call(peer, "describe", None)
        # Salt worker-side tokens: instance ids are only unique within the
        # worker process, the nonce makes them unique across transports.
        return {
            relation: (arity, cardinality, (self._nonce, token))
            for relation, (arity, cardinality, token) in info.items()
        }

    def scan_batch(
        self, peer: str, requests: Sequence[ScanRequest]
    ) -> List[Tuple[Row, ...]]:
        results = self._call(
            peer, "scan_batch", list(requests), trace=current_wire_context()
        )
        self._count_scans(peer, len(requests))
        return results

    def scan_batch_since(
        self, peer: str, requests: Sequence[SinceScanRequest]
    ) -> List[ScanSinceResult]:
        # Unsalt outgoing cursors (the worker only understands its own
        # raw tokens; a foreign-nonce cursor degrades to a full scan) and
        # re-salt the returned tokens, mirroring describe().
        wire = []
        for relation, encoded, since in requests:
            raw = None
            if (
                isinstance(since, tuple)
                and len(since) == 2
                and since[0] == self._nonce
            ):
                raw = since[1]
            wire.append((relation, encoded, raw))
        results = self._call(
            peer, "scan_since", wire, trace=current_wire_context()
        )
        self._count_scans(peer, len(requests))
        return [
            (full, (self._nonce, token) if token is not None else None, rows)
            for full, token, rows in results
        ]

    def insert(self, peer: str, relation: str, rows: Iterable[Row]) -> int:
        return self._call(
            peer, "insert", (relation, [tuple(row) for row in rows]),
            trace=current_wire_context(),
        )

    def close(self) -> None:
        """Stop every worker and release the pipes (idempotent)."""
        if self._closed:
            return
        super().close()
        for worker in self._workers.values():
            with worker.lock:
                if not worker.broken:
                    try:
                        worker.conn.send(("stop", None))
                        worker.conn.poll(1.0)
                    except (BrokenPipeError, OSError):
                        pass
                try:
                    worker.conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
        for worker in self._workers.values():
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=1.0)

    def __del__(self):  # pragma: no cover - gc-time safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessTransport({len(self._workers)} peers, "
            f"{self._rpc_count} rpcs)"
        )
