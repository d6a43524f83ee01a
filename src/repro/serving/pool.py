"""Request execution and the in-process worker pool.

:func:`execute_batch` is the one request-execution path of the serving
layer.  Every data plane runs it: :class:`WorkerPool` on the caller's
thread (``"inline"``) or on an executor thread (``"thread"``), the shard
workers of :mod:`repro.serving.shard` behind binary frames, and the
service's retry ladder for single re-executions.  It owns the
pre-execute deadline check, lane grouping (suspended under chaos),
fault injection and per-lane wall-time sharing.

:class:`WorkerPool` runs the backend *object* it is given, so it is the
plane for backends outside the default registry and for simulators whose
``OBS`` hook sites should feed the caller's registry directly:

* ``"thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`; one
  executor task per submitted batch resolves one future per request, so
  a timed-out request can be abandoned without touching its batch-mates;
* ``"inline"`` — synchronous execution on the caller's thread, the
  deterministic mode tests and sequential baselines use.

Both pools share the **bounded in-flight window** (:class:`SlotWindow`),
counted in requests: at most ``queue_limit`` submitted-but-unfinished
requests.  A submission past the bound raises
:class:`~repro.errors.QueueFull` immediately — backpressure is explicit
and the queue can never grow without bound or deadlock the submitter.
Callers that prefer flow control over rejection block on
:meth:`WorkerPool.wait_for_capacity` between attempts.

Slot accounting is **idempotent per future**: a slot is released exactly
once whether the future completes, is cancelled, or is explicitly
abandoned by the caller via :meth:`WorkerPool.abandon` (the collector
does this for requests that exceed their deadline while still running —
without it a handful of stuck tasks would pin their slots forever and
saturate the window permanently).

The in-flight depth is exported as the ``serving.queue_depth`` gauge.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import DeadlineExceeded, ParameterError, QueueFull
from repro.montgomery.params import MontgomeryContext
from repro.observability import OBS, flightrec_armed, worker_label
from repro.robustness.chaos import ChaosConfig, FaultPlan
from repro.serving.backends import ModExpBackend
from repro.serving.request import ModExpRequest
from repro.serving.scheduler import lane_groups

__all__ = ["DEFAULT_SLOTS_PER_WORKER", "SlotWindow", "WorkerPool", "execute_batch"]

_KINDS = ("thread", "inline")

#: Default in-flight window per worker, in requests, on every data plane.
DEFAULT_SLOTS_PER_WORKER = 32

#: One request's outcome: ``(value, cycles, wall_us)`` or the exception.
Outcome = Union[Tuple[int, Optional[int], float], BaseException]


def _execute_with_chaos(
    backend: ModExpBackend,
    ctx: MontgomeryContext,
    request: ModExpRequest,
    chaos: Optional[ChaosConfig],
    attempt: int,
    allow_kill: bool,
    arm_flightrec: bool = False,
):
    """Run one backend execution under the (possibly inactive) fault plan.

    Kill / exception / latency faults fire before the backend runs; a
    ``bitflip`` decision lands either as a real register upset inside the
    netlist simulator (backends exposing ``execute_with_register_fault``)
    or as a post-hoc XOR into the result — silent either way, by design:
    only the verification layer can catch it.

    When the config carries a ``flightrec_dir``, executions that inject a
    register flip — and any execution with ``arm_flightrec=True`` (retries
    of verify failures, where the corruption source is unknown) — run with
    an armed flight-recorder hub: the SEU fires the black box and the
    post-mortem bundle (VCD + request context) lands in the dump
    directory, tagged with this request id so the parent can find it.
    """
    if chaos is None or not chaos.active:
        return backend.execute(ctx, request)
    plan = FaultPlan(chaos)
    decision = plan.decide(request.request_id, attempt, allow_kill=allow_kill)
    plan.apply_pre(decision, request.request_id)  # may raise / exit / sleep
    is_reg_flip = (
        decision.kind == "bitflip"
        and chaos.register_faults
        and hasattr(backend, "execute_with_register_fault")
    )
    hub = None
    if is_reg_flip or arm_flightrec:
        hub = chaos.make_flightrec_hub()
        if hub is not None:
            hub.set_context(
                request_id=request.request_id,
                backend=getattr(backend, "name", type(backend).__name__),
                seed=chaos.seed,
                attempt=attempt,
            )
    if is_reg_flip:
        rng = random.Random(
            f"chaos-reg|{chaos.seed}|{request.request_id}|{attempt}"
        )
        if OBS.enabled:
            OBS.count("chaos.injected", kind="register-flip")
        with flightrec_armed(hub):
            return backend.execute_with_register_fault(ctx, request, rng)
    with flightrec_armed(hub):
        result = backend.execute(ctx, request)
    if decision.kind == "bitflip":
        corrupted = plan.corrupt_result(
            decision, result.value, request.modulus
        )
        result = type(result)(corrupted, result.cycles)
    return result


def execute_batch(
    backend: ModExpBackend,
    ctx: MontgomeryContext,
    requests: Sequence[ModExpRequest],
    chaos: Optional[ChaosConfig],
    attempt: int,
    *,
    allow_kill: bool,
    arm_flightrec: bool = False,
) -> List[Outcome]:
    """Execute one same-``(modulus, l)`` batch; one outcome per request.

    Each outcome is ``(value, cycles, wall_us)`` or the exception the
    request raised, in request order.  A request whose absolute deadline
    has already passed fails with ``DeadlineExceeded(where="worker")``
    instead of running.  Backends declaring ``capabilities.lanes > 1``
    run same-exponent requests (any requests, for mixed-exponent
    backends) as one bit-sliced :meth:`execute_many` sweep whose wall
    time is shared evenly across its lanes.  Under an active chaos plan
    every request runs alone, because each needs its own fault decision,
    which a lock-step sweep cannot honour.  ``allow_kill`` lets a chaos
    kill end the process; only shard workers, which the pool respawns,
    pass ``True``.
    """
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    positions: Dict[int, Deque[int]] = {}
    live: List[ModExpRequest] = []
    for pos, request in enumerate(requests):
        if request.expired():
            # Expired while queued or in transit: a typed failure beats
            # a modexp nobody is waiting for.
            if OBS.enabled:
                OBS.count("serving.deadline_expired", where="worker")
            outcomes[pos] = DeadlineExceeded(
                "deadline passed before execution", where="worker"
            )
            continue
        positions.setdefault(id(request), deque()).append(pos)
        live.append(request)
    caps = backend.capabilities
    if caps.lanes > 1 and (chaos is None or not chaos.active):
        groups = lane_groups(live, caps.lanes, mixed=caps.mixed_exponent_lanes)
    else:
        groups = [[request] for request in live]
    for group in groups:
        slots = [positions[id(request)].popleft() for request in group]
        if OBS.enabled:
            OBS.count("serving.lane_groups", packed="yes" if len(group) > 1 else "no")
            OBS.record("serving.lane_group_size", len(group), backend=backend.name)
        t0 = time.perf_counter()
        try:
            if len(group) == 1:
                results = [
                    _execute_with_chaos(
                        backend, ctx, group[0], chaos, attempt, allow_kill, arm_flightrec
                    )
                ]
            else:
                results = backend.execute_many(ctx, group)
        except BaseException as exc:
            for pos in slots:
                outcomes[pos] = exc
            continue
        wall_us = (time.perf_counter() - t0) * 1e6 / len(group)
        for pos, result in zip(slots, results):
            outcomes[pos] = (result.value, result.cycles, wall_us)
    return outcomes  # type: ignore[return-value]


class SlotWindow:
    """Bounded in-flight slot accounting, shared by the worker pools.

    One instance tracks how many submitted-but-unfinished requests a
    pool has admitted.  :meth:`reserve` applies the bound (raising
    :class:`~repro.errors.QueueFull` past it), :meth:`release` frees one
    future's slot exactly once however many times it is called (done
    callback, abandonment, shutdown may race), and :meth:`wait` blocks
    callers that prefer flow control over rejection.  The current depth
    is exported as the ``serving.queue_depth`` gauge on every change.

    Both :class:`WorkerPool` and the sharded pool hold one slot per
    request, reserved a batch at a time, so the window's occupancy — the
    brownout ``load`` signal — means the same on every data plane.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ParameterError(f"queue_limit must be >= 1, got {limit}")
        self.limit = limit
        self._inflight = 0
        self._cond = threading.Condition()

    @property
    def depth(self) -> int:
        return self._inflight

    def _gauge(self) -> None:
        if OBS.enabled:
            OBS.gauge("serving.queue_depth", self._inflight)

    def reserve(self, slots: int = 1, *, elastic: bool = False) -> None:
        """Admit ``slots`` requests or raise :class:`QueueFull`.

        ``elastic`` admits an oversized reservation when the window is
        empty — a batch larger than the whole window must not deadlock a
        ``wait``-mode submitter that can never see enough free slots.
        """
        with self._cond:
            over = self._inflight + slots > self.limit
            if over and not (elastic and self._inflight == 0):
                raise QueueFull(
                    f"worker queue full ({self._inflight}/{self.limit} "
                    f"in flight, {slots} requested); retry later"
                )
            self._inflight += slots
            self._gauge()

    def release(self, future: Future) -> bool:
        """Release ``future``'s slot — exactly once, however often called.

        Runs as the done callback *and* from explicit abandonment; the
        per-future flag (checked under the lock) makes the paths
        race-free, so a slot can never be double-freed (which would
        corrupt the window) nor leaked (which would deadlock it).
        Returns ``True`` if this call released the slot.
        """
        with self._cond:
            if getattr(future, "_repro_released", False):
                return False
            future._repro_released = True
            self._inflight -= 1
            self._gauge()
            self._cond.notify_all()
            return True

    def cancel_reservation(self, slots: int = 1) -> None:
        """Back out slots reserved for a submission that never happened."""
        with self._cond:
            self._inflight -= slots
            self._gauge()
            self._cond.notify_all()

    def wait(self, timeout: Optional[float] = None, *, slots: int = 1) -> bool:
        """Block until ``slots`` requests would be admitted (or ``timeout``).

        The predicate mirrors :meth:`reserve` including its elastic
        escape hatch (an empty window admits any size), so a waiter
        holding an oversized batch cannot spin on a window that is
        below the limit yet still too full for the whole batch.
        """
        with self._cond:
            return self._cond.wait_for(
                lambda: self._inflight + slots <= self.limit or self._inflight == 0,
                timeout=timeout,
            )


class WorkerPool:
    """Bounded in-process data plane over one backend object.

    Parameters
    ----------
    workers:
        Executor size (ignored for ``"inline"``).
    kind:
        ``"thread"`` or ``"inline"``.
    queue_limit:
        Maximum in-flight (submitted, not yet done) requests; defaults
        to ``DEFAULT_SLOTS_PER_WORKER × workers``.  Submissions past it
        raise :class:`QueueFull`.
    backend:
        The backend :meth:`submit_batch` executes on.
    chaos:
        Fault plan :meth:`submit_batch` executes under.  Kills degrade
        to exceptions here: this process is the service itself.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        kind: str = "thread",
        queue_limit: Optional[int] = None,
        backend: Optional[ModExpBackend] = None,
        chaos: Optional[ChaosConfig] = None,
    ) -> None:
        if kind not in _KINDS:
            raise ParameterError(f"unknown worker kind {kind!r}; one of {_KINDS}")
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        self.kind = kind
        self.workers = workers
        self.queue_limit = (
            queue_limit
            if queue_limit is not None
            else DEFAULT_SLOTS_PER_WORKER * workers
        )
        self._window = SlotWindow(self.queue_limit)
        self.backend = backend
        self.chaos = chaos
        self._closed = False
        self._executor: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-serve")
            if kind == "thread"
            else None
        )

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Current in-flight request count (the queue-depth gauge value)."""
        return self._window.depth

    @property
    def load(self) -> float:
        """Window occupancy in ``[0, 1]`` — the brownout pressure signal."""
        return min(self._window.depth / max(self.queue_limit, 1), 1.0)

    def submit_batch(
        self,
        requests: Sequence[ModExpRequest],
        *,
        context: MontgomeryContext,
        cheap_mode: bool = False,
    ) -> List[Future]:
        """Execute one coalesced batch; one future per request, in order.

        Reserves one window slot per request (raising :class:`QueueFull`
        past the bound, unless the window is empty) and runs
        :func:`execute_batch` on the caller's thread (``inline``) or as
        one executor task (``thread``).  Each future resolves to
        ``(value, cycles, wall_us, worker)`` or raises the request's
        error.  ``context`` is the batch's Montgomery constants.
        ``cheap_mode`` is the shard plane's brownout lever; this pool
        holds a single backend object and runs every batch on it.
        """
        if self._closed:
            raise QueueFull("worker pool is shut down")
        if self.backend is None:
            raise ParameterError("submit_batch needs a pool built with a backend")
        if not requests:
            return []
        requests = list(requests)
        self._window.reserve(len(requests), elastic=True)
        futures: List[Future] = [Future() for _ in requests]
        for future in futures:
            future.add_done_callback(self._release)
        if self._executor is None:
            self._run_batch(context, requests, futures)
            return futures
        try:
            task = self._executor.submit(self._run_batch, context, requests, futures)
        except BaseException:
            self._window.cancel_reservation(len(requests))
            raise

        def cancelled_at_shutdown(task: Future) -> None:
            if task.cancelled():
                for future in futures:
                    future.cancel()

        task.add_done_callback(cancelled_at_shutdown)
        return futures

    def _run_batch(
        self,
        ctx: MontgomeryContext,
        requests: List[ModExpRequest],
        futures: List[Future],
    ) -> None:
        # Requests abandoned while the task sat in the queue are skipped,
        # exactly as an executor skips a cancelled task.
        live = [i for i, f in enumerate(futures) if f.set_running_or_notify_cancel()]
        try:
            outcomes = execute_batch(
                self.backend,
                ctx,
                [requests[i] for i in live],
                self.chaos,
                0,
                allow_kill=False,
            )
        except BaseException as exc:
            outcomes = [exc] * len(live)
        worker = worker_label()
        for i, outcome in zip(live, outcomes):
            if isinstance(outcome, BaseException):
                futures[i].set_exception(outcome)
            else:
                futures[i].set_result(outcome + (worker,))

    def _release(self, future: Future) -> None:
        self._window.release(future)

    def abandon(self, future: Future) -> bool:
        """Give up on a still-running request: free its slot immediately.

        The collector calls this for requests that blew their deadline —
        ``future.cancel()`` alone is not enough, because a request already
        *executing* cannot be cancelled and would otherwise hold its
        in-flight slot until it finishes (possibly never, if wedged).
        Returns ``True`` if this call released the slot.  The underlying
        work may still run to completion; its done callback then finds
        the slot already released and does nothing.
        """
        future.cancel()  # skipped by its batch task if that has not started
        if self._window.release(future):
            if OBS.enabled:
                OBS.count("serving.abandoned")
            return True
        return False

    def wait_for_capacity(
        self, timeout: Optional[float] = None, *, slots: int = 1
    ) -> bool:
        """Block until ``slots`` requests would be admitted (or ``timeout``)."""
        return self._window.wait(timeout, slots=slots)

    # ------------------------------------------------------------------
    def shutdown(self, *, wait: bool = True, cancel_pending: bool = False) -> None:
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=cancel_pending)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
