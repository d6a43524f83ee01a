"""Sharded serving data plane: warm, modulus-homed worker processes.

Three pieces:

* :class:`ShardMap` — a consistent-hash ring that assigns every
  ``(modulus, l)`` key a **home shard**.  Same key, same shard, every
  time — so each shard's caches (the compiled-kernel LRU and the
  ``precompute_montgomery_constants()`` table are per-process) stay hot
  for its home moduli, the way the quad-core RSA processor in the
  related work gives each core its own key material.  Virtual nodes
  smooth the key distribution; dead shards are skipped on the ring
  (their key ranges reassign to the next alive shard) and reclaim their
  ranges when respawned.
* the **batch frame** wire (see :mod:`repro.serving.wire`) — one
  coalesced batch travels to its shard as one length-prefixed binary
  message over a duplex pipe, big-int operands as raw bytes; the shard
  runs it through :func:`~repro.serving.pool.execute_batch` and answers
  with one result frame carrying every outcome plus a metrics snapshot
  for the whole batch.  No pickling, no per-request IPC.
* :class:`ShardPool` — the dispatcher.  It shares the pool surface of
  :class:`~repro.serving.pool.WorkerPool` (``submit_batch``, ``depth``,
  ``load``, ``abandon``, ``wait_for_capacity``, ``shutdown`` and the
  :class:`~repro.serving.pool.SlotWindow` backpressure, one slot per
  request), so the service's dispatcher, collector, verifier, retry
  ladder and SLO accounting run unchanged on either plane.

**Failure semantics.**  Failures are graded, not binary.  Each shard
slot carries a :class:`~repro.serving.health.ShardHealth` machine
(healthy → degraded → draining → dead): slow batches and corrupt frames
are strikes that *degrade*; a stuck worker or persistent strikes start a
*graceful drain* (ring ranges rehome, in-flight work gets a grace
period, then the worker is recycled); only pipe EOF is *death*.  A
malformed frame in either direction — the worker NACKs a batch it
cannot decode; the parent catches a result frame that fails its crc —
requeues the affected batch exactly once without killing anything,
because the pipe's message boundaries keep the stream parseable past a
damaged payload.  A shard death (chaos kill, OOM, crash) surfaces
as EOF on its pipe.  The reader thread marks the shard dead on the ring,
respawns a fresh worker (counting ``serving.worker_restarts``), marks it
alive again, and requeues every batch the dead worker held — exactly
once, with the attempt index bumped so a deterministic chaos kill does
not simply re-fire.  A batch whose requeue *also* dies fails its futures
with :class:`~repro.errors.ShardFailure`, handing the requests to the
service's inline retry ladder.  A worker sends its result frame only
after finishing the whole batch, and the pipe delivers buffered frames
before EOF, so a batch is never both answered and requeued.

**Telemetry.**  Each worker wraps every batch in a fresh local
observation session and ships the registry snapshot home in the result
frame; the parent merges it with ``shard=N`` / ``worker=shardN`` labels.
Only metrics travel: worker-side trace spans are not shipped.  The
per-shard ``montgomery.precompute`` / ``montgomery.precompute_cache_hits``
counters that fall out are the homing proof: a warm shard serves its
home moduli from cache.  The pool additionally maintains
``serving.shard_queue_depth``, ``serving.shard_busy_fraction`` and
``serving.shard_cache_hit_rate`` gauges per shard for the dashboards.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import multiprocessing
import threading
import time
from contextlib import nullcontext
from concurrent.futures import Future, InvalidStateError
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    DeadlineExceeded,
    FaultDetected,
    InjectedFault,
    ParameterError,
    QueueFull,
    ServingError,
    ShardFailure,
    WireFormatError,
)
from repro.montgomery.params import (
    MontgomeryContext,
    precompute_montgomery_constants,
)
from repro.observability import OBS, MetricsRegistry, observe
from repro.robustness.chaos import ChaosConfig, FaultPlan
from repro.serving.health import HealthConfig, ShardHealth
from repro.serving.backends import default_registry, rank_capable
from repro.serving.pool import DEFAULT_SLOTS_PER_WORKER, SlotWindow, execute_batch
from repro.serving.request import ModExpRequest
from repro.serving.wire import (
    BATCH_FRAME,
    NACK_FRAME,
    RESULT_FRAME,
    batch_frame_cheap_mode,
    decode_batch_frame,
    decode_nack_frame,
    encode_batch_frame,
    encode_nack_frame,
    decode_result_frame,
    encode_result_frame,
)

__all__ = ["placement_key", "ShardMap", "ShardPool", "RemoteWorkerError"]

#: Virtual nodes per shard on the consistent-hash ring.  More vnodes
#: smooth the key distribution at the cost of ring size; 64 keeps an
#: 8-moduli workload within one request of perfectly balanced on 4 shards.
DEFAULT_VNODES = 64


def placement_key(modulus: int, l: int = 0) -> int:
    """Stable 64-bit ring position for one ``(modulus, l)`` key."""
    digest = hashlib.blake2b(
        f"{modulus}|{l}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class ShardMap:
    """Consistent-hash ring mapping placement keys to shard indices.

    Each shard owns :data:`DEFAULT_VNODES` pseudo-random ring positions;
    a key belongs to the first position at or after its own (wrapping).
    :meth:`owner` walks past positions of dead shards, so marking a
    shard dead reassigns exactly its key ranges — every other key keeps
    its home — and marking it alive again returns them.
    """

    def __init__(self, shards: int, *, vnodes: int = DEFAULT_VNODES) -> None:
        if shards < 1:
            raise ParameterError(f"shards must be >= 1, got {shards}")
        if vnodes < 1:
            raise ParameterError(f"vnodes must be >= 1, got {vnodes}")
        self.shards = shards
        self.vnodes = vnodes
        self._alive = [True] * shards
        ring: List[Tuple[int, int]] = []
        for shard in range(shards):
            for vnode in range(vnodes):
                point = int.from_bytes(
                    hashlib.blake2b(
                        f"shard{shard}/vnode{vnode}".encode("ascii"),
                        digest_size=8,
                    ).digest(),
                    "big",
                )
                ring.append((point, shard))
        ring.sort()
        self._ring = ring
        self._points = [point for point, _ in ring]

    @property
    def alive(self) -> Tuple[bool, ...]:
        return tuple(self._alive)

    def mark_dead(self, shard: int) -> None:
        self._alive[shard] = False

    def mark_alive(self, shard: int) -> None:
        self._alive[shard] = True

    def home(self, key: int) -> int:
        """The key's home shard, ignoring liveness (stable per key)."""
        start = bisect.bisect_right(self._points, key) % len(self._ring)
        return self._ring[start][1]

    def owner(self, key: int) -> int:
        """The alive shard currently owning ``key``.

        The home shard while it lives; the next alive shard clockwise on
        the ring while it is dead.  Raises :class:`ShardFailure` when
        every shard is dead.
        """
        start = bisect.bisect_right(self._points, key) % len(self._ring)
        for offset in range(len(self._ring)):
            shard = self._ring[(start + offset) % len(self._ring)][1]
            if self._alive[shard]:
                return shard
        raise ShardFailure("every shard in the map is marked dead")

    def next_owner(self, key: int, avoid: int) -> Optional[int]:
        """First alive shard clockwise from ``key`` other than ``avoid``.

        The hedging target: when the key's owner is slow, the re-dispatch
        goes to the shard that would inherit the key were the owner dead —
        so a hedged request warms exactly the caches a real failover
        would use.  ``None`` when no distinct alive shard exists.
        """
        start = bisect.bisect_right(self._points, key) % len(self._ring)
        for offset in range(len(self._ring)):
            shard = self._ring[(start + offset) % len(self._ring)][1]
            if shard != avoid and self._alive[shard]:
                return shard
        return None

    def assignments(self, keys: Sequence[int]) -> Dict[int, int]:
        """Convenience: ``{key: owner}`` for a set of placement keys."""
        return {key: self.owner(key) for key in keys}


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _error_row(request_id: str, exc: BaseException) -> Dict[str, Any]:
    return {
        "id": request_id,
        "error_type": type(exc).__name__,
        "check": str(getattr(exc, "check", "")),
        "error": str(exc) or type(exc).__name__,
    }


def _result_row(request_id: str, outcome: Any) -> Dict[str, Any]:
    """One :func:`execute_batch` outcome as a result-frame row."""
    if isinstance(outcome, BaseException):
        return _error_row(request_id, outcome)
    value, cycles, wall_us = outcome
    row: Dict[str, Any] = {"id": request_id, "value": value, "wall_us": wall_us}
    if cycles is not None:
        row["cycles"] = cycles
    return row


def _shard_worker_main(
    conn: Any, shard_index: int, backend_name: str, chaos: Optional[ChaosConfig]
) -> None:
    """Persistent shard worker loop: decode frame → execute batch → reply.

    Runs in a forked child.  The backend is resolved by name **once** —
    its compiled-kernel caches, and the process-wide Montgomery constant
    cache, then live for the worker's whole life; that persistence is the
    entire point of homing moduli onto shards.  Each batch runs through
    :func:`~repro.serving.pool.execute_batch`, under a fresh local
    observation session whose snapshot travels back in the result frame
    (telemetry per batch, not per request).

    An empty frame is the shutdown pill.  A batch frame this worker
    cannot decode is **not** fatal: the pipe preserves message
    boundaries, so the stream is intact — the worker answers with a NACK
    frame naming the batch (when the header was readable) and keeps
    serving; the parent degrades the shard and requeues the batch.  Only
    a closed pipe ends the loop.
    """
    registry_obj = default_registry()
    backend = registry_obj.get(backend_name)
    chaos = chaos if (chaos is not None and chaos.active) else None
    frame_plan = (
        FaultPlan(chaos)
        if chaos is not None and chaos.frame_faults_active
        else None
    )
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            return
        if not data:  # shutdown pill
            return
        try:
            batch_id, attempt, want_telemetry, requests = decode_batch_frame(data)
        except WireFormatError as exc:
            # Recover the batch id from the fixed header when possible so
            # the parent can requeue exactly that batch.
            nack_id = (
                int.from_bytes(data[1:9], "big")
                if len(data) >= 9 and data[0] == BATCH_FRAME
                else 0
            )
            try:
                conn.send_bytes(encode_nack_frame(nack_id, str(exc)[:512]))
            except (OSError, ValueError, BrokenPipeError):
                return
            continue
        exec_backend = backend
        if batch_frame_cheap_mode(data):
            # Brownout lever: execute on the registry's cheapest backend
            # still capable of this batch instead of the primary.  The
            # worker makes the trade locally because only it knows which
            # backends its registry holds.
            ranked = rank_capable(registry_obj, requests[0])
            if ranked:
                exec_backend = ranked[0]
        # Metrics capture is opt-in per batch (frame flag, set when the
        # parent runs under an observation session): the engines' hook
        # sites on the multiply/exponentiate hot path are not free, and
        # an un-instrumented serving run must not pay for a snapshot
        # nobody will read.
        registry = MetricsRegistry() if want_telemetry else None
        started = time.perf_counter()
        with observe(metrics=registry) if registry is not None else nullcontext():
            ctx = precompute_montgomery_constants(
                requests[0].modulus, requests[0].l
            )
            outcomes = execute_batch(
                exec_backend, ctx, requests, chaos, attempt, allow_kill=True
            )
        results = [
            _result_row(request.request_id, outcome)
            for request, outcome in zip(requests, outcomes)
        ]
        batch_wall_us = (time.perf_counter() - started) * 1e6
        frame = encode_result_frame(
            batch_id,
            results,
            batch_wall_us=batch_wall_us,
            telemetry=registry.snapshot() if registry is not None else None,
        )
        if frame_plan is not None:
            decision = frame_plan.decide_frame(batch_id, attempt)
            if decision:
                frame_plan.apply_pre(decision, f"batch-{batch_id}")
                frame = frame_plan.mangle_frame(decision, frame)
        try:
            conn.send_bytes(frame)
        except (OSError, ValueError, BrokenPipeError):
            return


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

class RemoteWorkerError(ServingError):
    """An unrecognised exception type crossed the shard wire.

    The original class name travels in the message; known serving-layer
    types are rebuilt as themselves instead.
    """


def _rebuild_error(row: Dict[str, Any]) -> BaseException:
    """Reconstruct a worker-side failure from its wire encoding."""
    name = row.get("error_type", "RuntimeError")
    message = row.get("error", "")
    if name == "FaultDetected":
        return FaultDetected(message, check=row.get("check") or "unknown")
    if name == "DeadlineExceeded":
        return DeadlineExceeded(message, where="worker")
    known: Dict[str, Any] = {
        "QueueFull": QueueFull,
        "WireFormatError": WireFormatError,
        "ParameterError": ParameterError,
        "InjectedFault": InjectedFault,
        "ShardFailure": ShardFailure,
        "TimeoutError": TimeoutError,
    }
    cls = known.get(name)
    if cls is not None:
        return cls(message)
    return RemoteWorkerError(f"{name}: {message}")


class _PendingBatch:
    """One batch frame in flight to a shard."""

    __slots__ = (
        "batch_id",
        "requests",
        "futures",
        "by_id",
        "attempt",
        "requeued",
        "sent_at",
    )

    def __init__(
        self,
        batch_id: int,
        requests: List[ModExpRequest],
        futures: List[Future],
        attempt: int,
    ) -> None:
        self.batch_id = batch_id
        self.requests = requests
        self.futures = futures
        self.by_id = {r.request_id: f for r, f in zip(requests, futures)}
        self.attempt = attempt
        self.requeued = attempt > 0
        self.sent_at = time.monotonic()  # refreshed on every (re)send


class _Shard:
    """Parent-side handle for one worker process + its pipe and reader."""

    __slots__ = (
        "index",
        "process",
        "conn",
        "send_lock",
        "lock",
        "pending",
        "dead",
        "reader",
        "busy_us",
        "cache_hits",
        "cache_misses",
    )

    def __init__(self, index: int, process: Any, conn: Any) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.lock = threading.Lock()
        self.pending: Dict[int, _PendingBatch] = {}
        self.dead = False
        self.reader: Optional[threading.Thread] = None
        self.busy_us = 0.0
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def label(self) -> str:
        return f"shard{self.index}"

    def depth(self) -> int:
        with self.lock:
            return sum(len(p.futures) for p in self.pending.values())


def _mp_context():
    """Fork when the platform has it (fast starts, inherited imports);
    spawn otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


class ShardPool:
    """Front-end dispatcher over N pre-forked, modulus-homed workers.

    Presents the pool surface the service relies on
    (``kind``/``workers``/``depth``/``load``, ``submit_batch``,
    ``abandon``/``wait_for_capacity``/``shutdown``) with batch-frame
    dispatch, plus ``restarts`` and hedging.  One slot of the shared
    :class:`SlotWindow` is reserved per request; a batch larger than
    the whole window is admitted when the window is empty so ``wait``
    mode can never deadlock.

    Parameters
    ----------
    shards:
        Worker process count (also exposed as ``workers``).
    backend:
        Backend *name*, resolved from the default registry inside each
        worker — backend objects never cross the process boundary.
    queue_limit:
        Bounded in-flight window in requests (default
        ``DEFAULT_SLOTS_PER_WORKER × shards``).
    chaos:
        Fault plan forwarded to every worker at spawn time.
    vnodes:
        Ring positions per shard for the :class:`ShardMap`.
    health:
        Thresholds for the per-shard
        :class:`~repro.serving.health.ShardHealth` machines (latency
        strikes, corrupt-frame strikes, stuck/drain timeouts).
    """

    kind = "shard"

    def __init__(
        self,
        *,
        shards: int,
        backend: str,
        queue_limit: Optional[int] = None,
        chaos: Optional[ChaosConfig] = None,
        vnodes: int = DEFAULT_VNODES,
        health: Optional[HealthConfig] = None,
    ) -> None:
        if shards < 1:
            raise ParameterError(f"shards must be >= 1, got {shards}")
        self.workers = shards
        self.backend_name = backend
        self.chaos = chaos
        self.queue_limit = (
            queue_limit
            if queue_limit is not None
            else DEFAULT_SLOTS_PER_WORKER * shards
        )
        self._window = SlotWindow(self.queue_limit)
        self.map = ShardMap(shards, vnodes=vnodes)
        self.restarts = 0
        self._closed = False
        self._mp = _mp_context()
        self._batch_seq = itertools.count(1)
        self._started_at = time.monotonic()
        self._lifecycle = threading.Lock()  # serializes respawn/shutdown
        self.health_config = health or HealthConfig()
        # Health machines outlive worker respawns so strike history and
        # transition counters stay per shard *slot*, not per process.
        self._health: List[ShardHealth] = [
            ShardHealth(
                i,
                self.health_config,
                on_transition=(
                    lambda came_from, to, index=i: self._on_health_transition(
                        index, came_from, to
                    )
                ),
            )
            for i in range(shards)
        ]
        self._shards: List[_Shard] = [self._spawn(i) for i in range(shards)]
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="shard-monitor", daemon=True
        )
        self._monitor_thread.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> _Shard:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_shard_worker_main,
            args=(child_conn, index, self.backend_name, self.chaos),
            name=f"repro-shard{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        shard = _Shard(index, process, parent_conn)
        reader = threading.Thread(
            target=self._reader, args=(shard,), name=f"shard{index}-reader", daemon=True
        )
        shard.reader = reader
        reader.start()
        return shard

    @property
    def depth(self) -> int:
        """Total in-flight request count across every shard."""
        return self._window.depth

    @property
    def load(self) -> float:
        """Window occupancy in ``[0, 1]`` — the brownout pressure signal."""
        return min(self._window.depth / max(self.queue_limit, 1), 1.0)

    @property
    def shard_pids(self) -> List[int]:
        """Worker PIDs by shard index (drills kill these directly)."""
        return [shard.process.pid for shard in self._shards]

    def health_states(self) -> Dict[int, str]:
        """Current health state per shard index (dashboards, drills)."""
        return {i: h.state for i, h in enumerate(self._health)}

    # ------------------------------------------------------------------
    # Health reactions
    # ------------------------------------------------------------------
    def _on_health_transition(self, index: int, came_from: str, to: str) -> None:
        """React to one shard's health edge (called from event threads).

        ``draining`` is the one edge with a routing side effect: the
        shard's ring ranges rehome immediately (stop admitting) while a
        background thread gives in-flight work its grace period and then
        recycles the worker.  ``dead``/``healthy`` routing flips are
        owned by the death/respawn path itself.
        """
        if to == "draining" and not self._closed:
            self.map.mark_dead(index)
            threading.Thread(
                target=self._drain,
                args=(index,),
                name=f"shard{index}-drain",
                daemon=True,
            ).start()

    def _drain(self, index: int) -> None:
        """Graceful drain: finish in-flight work, then recycle the worker.

        The pipe is FIFO and the worker answers strictly in order, so a
        shutdown pill sent after the last admitted batch lets a *slow*
        worker finish everything before exiting; a *wedged* worker never
        reads the pill and is terminated when the grace period lapses.
        Either way the reader thread's death handler respawns the shard,
        returns its ring ranges, and requeues whatever did not finish —
        the same exactly-once path a crash takes.
        """
        shard = self._shards[index]
        give_up = time.monotonic() + self.health_config.drain_timeout_s
        while time.monotonic() < give_up and not self._closed:
            if shard.depth() == 0:
                break
            time.sleep(0.005)
        # The worker may have crashed outright while we waited; the death
        # path already recycled it and this drain is moot.
        if self._closed or self._health[index].state != "draining":
            return
        if OBS.enabled:
            OBS.count("serving.shard_drains", shard=str(index))
        try:
            with shard.send_lock:
                shard.conn.send_bytes(b"")  # pill: exit after current work
        except (OSError, ValueError, BrokenPipeError):
            pass
        shard.process.join(timeout=max(self.health_config.drain_timeout_s, 0.1))
        if shard.process.is_alive():
            shard.process.terminate()
        # EOF now reaches the reader, whose death handler does the rest.

    def _monitor(self) -> None:
        """Stuck-worker detector: pending work older than the timeout.

        A wedged worker holds the pipe open — no EOF, no result frames —
        so it is invisible to both the reader and the latency EWMA.  The
        monitor ages each shard's oldest in-flight batch instead, and
        promotes the shard to draining when it exceeds
        ``stuck_timeout_s``.
        """
        cfg = self.health_config
        interval = max(min(cfg.stuck_timeout_s / 4.0, 0.25), 0.005)
        while not self._closed:
            time.sleep(interval)
            now = time.monotonic()
            for shard in list(self._shards):
                health = self._health[shard.index]
                if health.state not in ("healthy", "degraded"):
                    continue
                with shard.lock:
                    if shard.dead or not shard.pending:
                        continue
                    oldest = min(p.sent_at for p in shard.pending.values())
                if now - oldest > cfg.stuck_timeout_s:
                    if OBS.enabled:
                        OBS.count("serving.stuck_shards", shard=str(shard.index))
                    health.on_stuck()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def submit_batch(
        self,
        requests: Sequence[ModExpRequest],
        *,
        context: Optional[MontgomeryContext] = None,
        cheap_mode: bool = False,
    ) -> List[Future]:
        """Ship one coalesced batch to its home shard as a single frame.

        Reserves one window slot per request (raising
        :class:`~repro.errors.QueueFull` past the bound, unless the
        window is empty) and returns one future per request, in request
        order.  Each future resolves to ``(value, cycles, wall_us,
        worker)`` — the batch's worker telemetry snapshot is merged by
        the reader thread, once per batch — or raises the reconstructed
        worker-side error.  ``context`` does not cross the wire: the
        home shard derives the batch's constants from its own warm
        cache.  ``cheap_mode`` runs the batch on the worker's cheapest
        capable backend (the brownout lever).
        """
        if self._closed:
            raise QueueFull("shard pool is shut down")
        if not requests:
            return []
        key = (requests[0].modulus, requests[0].l)
        for request in requests:
            if request.coalesce_key != key:
                raise ParameterError(
                    "a shard batch must share one (modulus, l); got "
                    f"{request.coalesce_key} and {key}"
                )
        self._window.reserve(len(requests), elastic=True)
        try:
            return self._dispatch_batch(
                list(requests), attempt=0, cheap_mode=cheap_mode
            )
        except BaseException:
            self._window.cancel_reservation(len(requests))
            raise

    def submit_hedge(self, request: ModExpRequest) -> Optional[Future]:
        """Re-dispatch one straggler to the ring's next alive shard.

        Hedging is strictly best-effort: no distinct alive shard, a full
        window, or a shutdown all return ``None`` rather than raising —
        the primary dispatch is still in flight and remains the source
        of truth.  The caller owns first-result-wins arbitration and
        must :meth:`abandon` the loser.
        """
        if self._closed:
            return None
        key = placement_key(request.modulus, request.l)
        try:
            owner = self.map.owner(key)
        except ShardFailure:
            return None
        target = self.map.next_owner(key, avoid=owner)
        if target is None:
            return None
        try:
            self._window.reserve(1)
        except QueueFull:
            return None  # never let a hedge steal admission capacity
        try:
            # attempt=1, same as a death-requeue: a deterministic chaos
            # fault keyed on (request, attempt) must not simply re-fire
            # on the hedge copy, or a stuck primary begets a stuck hedge.
            futures = self._dispatch_batch([request], attempt=1, target=target)
        except BaseException:
            self._window.cancel_reservation(1)
            return None
        if OBS.enabled:
            OBS.count("serving.hedges_dispatched", shard=str(target))
        return futures[0]

    def _dispatch_batch(
        self,
        requests: List[ModExpRequest],
        *,
        attempt: int,
        target: Optional[int] = None,
        cheap_mode: bool = False,
    ) -> List[Future]:
        batch_id = next(self._batch_seq)
        wire_requests = self._uniquify_ids(requests, batch_id)
        futures: List[Future] = [Future() for _ in wire_requests]
        pending = _PendingBatch(batch_id, wire_requests, futures, attempt)
        frame = encode_batch_frame(
            batch_id,
            wire_requests,
            attempt=attempt,
            want_telemetry=OBS.enabled,
            cheap_mode=cheap_mode,
        )
        self._send(pending, frame, target=target)
        return futures

    @staticmethod
    def _uniquify_ids(
        requests: List[ModExpRequest], batch_id: int
    ) -> List[ModExpRequest]:
        """Ensure every request id in the frame is unique and non-empty.

        Results match futures by id, so empty or duplicated client ids
        (legal on the service API) get a positional suffix on the wire.
        The service assigns unique ids whenever chaos or verification is
        active, so deterministic fault plans never see rewritten ids.
        """
        from dataclasses import replace

        seen: set = set()
        out: List[ModExpRequest] = []
        for pos, request in enumerate(requests):
            rid = request.request_id
            if not rid or rid in seen:
                rid = f"{rid}#b{batch_id}p{pos}"
                request = replace(request, request_id=rid)
            seen.add(rid)
            out.append(request)
        return out

    def _send(
        self,
        pending: _PendingBatch,
        frame: bytes,
        *,
        target: Optional[int] = None,
    ) -> None:
        """Register ``pending`` with the key's current owner and send.

        Registration happens *before* the write: if the worker dies
        mid-send, the reader's death handler finds the batch in
        ``pending`` and requeues it.  A shard flagged dead (respawn in
        progress) is retried against the ring until an alive owner
        accepts the batch.  ``target`` pins the batch to an explicit
        shard (hedging) instead of the ring owner.
        """
        key = placement_key(pending.requests[0].modulus, pending.requests[0].l)
        give_up = time.monotonic() + 30.0
        while True:
            if target is not None:
                owner = target
            else:
                try:
                    owner = self.map.owner(key)
                except ShardFailure:
                    # Every shard momentarily dead (e.g. the only shard is
                    # mid-respawn): wait it out rather than failing the batch.
                    if self._closed or time.monotonic() > give_up:
                        raise
                    time.sleep(0.01)
                    continue
            shard = self._shards[owner]
            with shard.lock:
                if shard.dead:
                    if self._closed or time.monotonic() > give_up:
                        raise ShardFailure(
                            f"shard {owner} stayed dead past the send grace period"
                        )
                    time.sleep(0.005)
                    continue
                shard.pending[pending.batch_id] = pending
                pending.sent_at = time.monotonic()
            break
        if OBS.enabled:
            OBS.count("serving.shard_batches", shard=str(shard.index))
            OBS.count(
                "serving.shard_requests", len(pending.requests), shard=str(shard.index)
            )
            OBS.count("serving.frame_bytes", len(frame), direction="out")
            OBS.gauge(
                "serving.shard_queue_depth", shard.depth(), shard=str(shard.index)
            )
        try:
            with shard.send_lock:
                shard.conn.send_bytes(frame)
        except (OSError, ValueError, BrokenPipeError):
            # The worker died between registration and the write; the
            # reader thread's death handler requeues this batch.
            pass

    # ------------------------------------------------------------------
    # Collection (reader threads)
    # ------------------------------------------------------------------
    def _reader(self, shard: _Shard) -> None:
        while True:
            try:
                data = shard.conn.recv_bytes()
            except (EOFError, OSError):
                break
            if data[:1] and data[0] == NACK_FRAME:
                # The worker could not decode a batch frame we sent.
                try:
                    nack_id, message = decode_nack_frame(data)
                except WireFormatError as exc:
                    self._frame_corruption(shard, None, f"undecodable nack: {exc}")
                    continue
                self._frame_corruption(
                    shard, nack_id or None, f"worker nack: {message}"
                )
                continue
            try:
                batch_id, batch_wall_us, rows, telemetry = decode_result_frame(data)
            except WireFormatError as exc:
                # A corrupt result frame is shard *degradation*, not death:
                # the pipe preserves message boundaries, so the stream
                # stays parseable.  Recover the batch id from the fixed
                # header when the corruption landed past it.
                peeked = (
                    int.from_bytes(data[1:9], "big")
                    if len(data) >= 9 and data[0] == RESULT_FRAME
                    else None
                )
                self._frame_corruption(shard, peeked, str(exc))
                continue
            self._health[shard.index].on_batch_done(batch_wall_us)
            with shard.lock:
                pending = shard.pending.pop(batch_id, None)
            if pending is None:
                continue  # batch abandoned wholesale (shutdown race)
            self._account_batch(shard, pending, batch_wall_us, telemetry, len(data))
            for row in rows:
                future = pending.by_id.get(row.get("id", ""))
                if future is None:
                    continue
                self._resolve(shard, future, row)
            # Any future the worker failed to answer (should not happen)
            # still must not leak its slot.
            for future in pending.futures:
                if not future.done():
                    try:
                        future.set_exception(
                            RemoteWorkerError(
                                f"shard {shard.index} returned no result for request"
                            )
                        )
                    except InvalidStateError:
                        pass
                self._window.release(future)
        self._handle_death(shard)

    def _frame_corruption(
        self, shard: _Shard, batch_id: Optional[int], reason: str
    ) -> None:
        """One malformed frame crossed this shard's wire (either way).

        Degrade — never kill: the worker process and its warm caches are
        fine; only one message was damaged.  When the batch is
        identifiable it is requeued exactly once (the same budget a
        death-requeue spends); a second corruption fails its futures
        over to the service's retry ladder.  An unidentifiable batch is
        left pending for the stuck monitor to recover via draining.
        """
        if OBS.enabled:
            OBS.count("serving.corrupt_frames", shard=str(shard.index))
        self._health[shard.index].on_corrupt_frame()
        if batch_id is None:
            return
        with shard.lock:
            pending = shard.pending.pop(batch_id, None)
        if pending is None:
            return
        if pending.requeued:
            self._fail_pending(
                shard,
                [pending],
                f"batch {batch_id} lost twice to frame corruption: {reason}",
            )
            return
        if OBS.enabled:
            OBS.count(
                "serving.requeued", len(pending.requests), shard=str(shard.index)
            )
        self._requeue(pending)

    def _resolve(self, shard: _Shard, future: Future, row: Dict[str, Any]) -> None:
        try:
            if "value" in row:
                future.set_result(
                    (
                        row["value"],
                        row.get("cycles"),
                        row.get("wall_us", 0.0),
                        shard.label,
                    )
                )
            else:
                future.set_exception(_rebuild_error(row))
        except InvalidStateError:
            pass  # abandoned (deadline) while the worker was computing

    def _account_batch(
        self,
        shard: _Shard,
        pending: _PendingBatch,
        batch_wall_us: float,
        telemetry: Optional[Dict[str, Any]],
        frame_bytes: int,
    ) -> None:
        """Fold one result frame's accounting into the parent registry."""
        shard.busy_us += batch_wall_us
        if telemetry is not None:
            for row in telemetry.get("counters", ()):
                if row["name"] == "montgomery.precompute_cache_hits":
                    shard.cache_hits += row["value"]
                elif row["name"] == "montgomery.precompute":
                    shard.cache_misses += row["value"]
        if not OBS.enabled:
            return
        OBS.count("serving.frame_bytes", frame_bytes, direction="in")
        OBS.record(
            "serving.shard_batch_wall_us", batch_wall_us, shard=str(shard.index)
        )
        if OBS.metrics is not None and telemetry is not None:
            OBS.metrics.merge(
                telemetry, worker=shard.label, shard=str(shard.index)
            )
        elapsed_us = max((time.monotonic() - self._started_at) * 1e6, 1.0)
        OBS.gauge(
            "serving.shard_busy_fraction",
            min(shard.busy_us / elapsed_us, 1.0),
            shard=str(shard.index),
        )
        OBS.gauge(
            "serving.shard_queue_depth", shard.depth(), shard=str(shard.index)
        )
        lookups = shard.cache_hits + shard.cache_misses
        if lookups:
            OBS.gauge(
                "serving.shard_cache_hit_rate",
                shard.cache_hits / lookups,
                shard=str(shard.index),
            )

    # ------------------------------------------------------------------
    # Death, respawn, requeue
    # ------------------------------------------------------------------
    def _handle_death(self, shard: _Shard) -> None:
        """Reader-thread epilogue: the shard's pipe reached EOF.

        On a live pool this is a worker death: mark the shard dead (its
        key ranges reassign to ring neighbours), respawn it, mark it
        alive (the ranges return home), then requeue the dead worker's
        batches — exactly once each, with the attempt index bumped so
        deterministic chaos kills do not loop.  A batch already requeued
        once fails over to :class:`ShardFailure`.  On a closed pool the
        remaining futures just fail.
        """
        with shard.lock:
            shard.dead = True
            drained = list(shard.pending.values())
            shard.pending.clear()
        if self._closed:
            self._fail_pending(shard, drained, "shard pool shut down")
            return
        self.map.mark_dead(shard.index)
        self._health[shard.index].on_death()
        with self._lifecycle:
            if self._closed:
                self._fail_pending(shard, drained, "shard pool shut down")
                return
            self.restarts += 1
            if OBS.enabled:
                OBS.count("serving.worker_restarts")
                OBS.count("serving.shard_deaths", shard=str(shard.index))
            try:
                shard.conn.close()
            except OSError:
                pass
            if shard.process.is_alive():
                shard.process.terminate()
            shard.process.join(timeout=5)
            self._shards[shard.index] = self._spawn(shard.index)
        self._health[shard.index].on_respawn()
        self.map.mark_alive(shard.index)
        for pending in drained:
            if pending.requeued:
                self._fail_pending(
                    shard,
                    [pending],
                    f"shard {shard.index} died twice on batch {pending.batch_id}",
                )
                continue
            if OBS.enabled:
                OBS.count(
                    "serving.requeued", len(pending.requests), shard=str(shard.index)
                )
            self._requeue(pending)

    def _requeue(self, pending: _PendingBatch) -> None:
        """Resend a dead shard's batch — same futures, bumped attempt."""
        pending.attempt += 1
        pending.requeued = True
        frame = encode_batch_frame(
            pending.batch_id,
            pending.requests,
            attempt=pending.attempt,
            want_telemetry=OBS.enabled,
        )
        try:
            self._send(pending, frame)
        except BaseException as exc:  # e.g. every shard dead
            self._fail_pending(None, [pending], str(exc))

    def _fail_pending(
        self, shard: Optional[_Shard], batches: List[_PendingBatch], reason: str
    ) -> None:
        where = f"shard {shard.index}" if shard is not None else "shard pool"
        for pending in batches:
            for future in pending.futures:
                try:
                    future.set_exception(
                        ShardFailure(f"{where}: {reason}")
                    )
                except InvalidStateError:
                    pass
                self._window.release(future)

    # ------------------------------------------------------------------
    # Pool surface shared with WorkerPool
    # ------------------------------------------------------------------
    def abandon(self, future: Future) -> bool:
        """Give up on one request (deadline blown): free its slot now.

        The worker may still answer later; the resolver then finds the
        future cancelled/abandoned and drops the result on the floor.
        """
        future.cancel()
        if self._window.release(future):
            if OBS.enabled:
                OBS.count("serving.abandoned")
            return True
        return False

    def wait_for_capacity(
        self, timeout: Optional[float] = None, *, slots: int = 1
    ) -> bool:
        return self._window.wait(timeout, slots=slots)

    def shutdown(self, *, wait: bool = True, cancel_pending: bool = False) -> None:
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            shards = list(self._shards)
        for shard in shards:
            try:
                with shard.send_lock:
                    shard.conn.send_bytes(b"")  # shutdown pill
            except (OSError, ValueError, BrokenPipeError):
                pass
        for shard in shards:
            shard.process.join(timeout=5 if wait else 0.1)
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=1)
            try:
                shard.conn.close()
            except OSError:
                pass
        for shard in shards:
            if shard.reader is not None and wait:
                shard.reader.join(timeout=5)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
