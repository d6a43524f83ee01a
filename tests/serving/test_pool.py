"""Worker pool: bounded window, rejection, no deadlock, all kinds."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ParameterError, QueueFull
from repro.observability import MetricsRegistry, observe
from repro.serving.pool import WorkerPool
from tests.serving.conftest import MODULUS, GatedBackend, submit_one


def _value(base, exponent=65537):
    return pow(base, exponent, MODULUS)


class TestBasics:
    @pytest.mark.parametrize("kind", ["inline", "thread"])
    def test_submit_returns_result(self, kind):
        with WorkerPool(workers=2, kind=kind, backend=GatedBackend()) as pool:
            value, cycles, _, _ = submit_one(pool, 5).result(timeout=30)
        assert (value, cycles) == (_value(5), 1)

    def test_inline_runs_on_caller_thread(self):
        backend = GatedBackend()
        with WorkerPool(kind="inline", backend=backend) as pool:
            submit_one(pool).result()
        assert backend.threads == [threading.get_ident()]

    def test_exceptions_surface_via_future(self):
        with WorkerPool(kind="inline", backend=GatedBackend()) as pool:
            future = submit_one(pool, exponent=2)
        assert isinstance(future.exception(), ValueError)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ParameterError):
            WorkerPool(kind="fiber")
        with pytest.raises(ParameterError):
            WorkerPool(workers=0)
        with pytest.raises(ParameterError):
            WorkerPool(queue_limit=0)


class TestBackpressure:
    def test_saturated_queue_rejects_not_deadlocks(self):
        """The acceptance regression: a full bounded queue raises QueueFull
        immediately; it never blocks the submitter."""
        release = threading.Event()
        pool = WorkerPool(
            workers=1, kind="thread", queue_limit=2, backend=GatedBackend(release)
        )
        try:
            first = submit_one(pool, 3)  # occupies the worker
            second = submit_one(pool, 4)  # sits in the queue
            assert pool.depth == 2
            t0 = time.monotonic()
            with pytest.raises(QueueFull, match="2/2"):
                submit_one(pool, 5)
            # Rejection must be immediate (no hidden blocking path).
            assert time.monotonic() - t0 < 1.0
            release.set()
            assert first.result(timeout=30)[0] == _value(3)
            assert second.result(timeout=30)[0] == _value(4)
            assert pool.wait_for_capacity(timeout=30)
            assert submit_one(pool, 6).result(timeout=30)[0] == _value(6)
        finally:
            release.set()
            pool.shutdown()

    def test_queue_depth_gauge_tracks_inflight(self):
        registry = MetricsRegistry()
        release = threading.Event()
        with observe(metrics=registry):
            pool = WorkerPool(
                workers=1, kind="thread", queue_limit=4, backend=GatedBackend(release)
            )
            try:
                futures = [submit_one(pool, 3 + i) for i in range(3)]
                assert registry.gauge("serving.queue_depth").value() == 3
                release.set()
                for f in futures:
                    f.result(timeout=30)
                # Done-callbacks may lag result() by an instant; poll down.
                deadline = time.monotonic() + 30
                while pool.depth and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert pool.depth == 0
            finally:
                release.set()
                pool.shutdown()
        assert registry.gauge("serving.queue_depth").value() == 0

    def test_submit_after_shutdown_rejects(self):
        pool = WorkerPool(kind="thread", backend=GatedBackend())
        pool.shutdown()
        with pytest.raises(QueueFull, match="shut down"):
            submit_one(pool)

    def test_default_queue_limit_scales_with_workers(self):
        pool = WorkerPool(workers=3, kind="inline")
        try:
            assert pool.queue_limit == 96
        finally:
            pool.shutdown()


class TestSubmitBatch:
    def test_lane_batch_holds_one_slot_per_request(self):
        """Backpressure counts requests on every plane: a 64-request lane
        group is one sweep but holds 64 window slots while in flight."""
        from repro.montgomery.params import precompute_montgomery_constants
        from repro.serving.backends import (
            BackendCapabilities,
            BackendResult,
            ModExpBackend,
        )
        from repro.serving.request import ModExpRequest

        release = threading.Event()
        sweeps = []

        class BlockingLanes(ModExpBackend):
            name = "blocking-lanes"
            capabilities = BackendCapabilities(
                description="test-only lane backend", process_safe=False, lanes=64
            )

            def model_cycles(self, request):
                return 1.0

            def execute(self, ctx, request):
                return self.execute_many(ctx, [request])[0]

            def execute_many(self, ctx, requests):
                sweeps.append(len(requests))
                release.wait(30)
                return [BackendResult(r.expected(), 1) for r in requests]

        modulus = 0xC5AF
        requests = [ModExpRequest(3 + i, 65537, modulus) for i in range(64)]
        pool = WorkerPool(workers=2, kind="thread", backend=BlockingLanes())
        try:
            futures = pool.submit_batch(
                requests, context=precompute_montgomery_constants(modulus, 0)
            )
            assert pool.queue_limit == 64
            assert pool.depth == 64
            with pytest.raises(QueueFull):
                pool.submit_batch(
                    requests[:1], context=precompute_montgomery_constants(modulus, 0)
                )
            release.set()
            values = [f.result(timeout=30)[0] for f in futures]
            assert values == [r.expected() for r in requests]
            assert sweeps == [64]
            deadline = time.monotonic() + 30
            while pool.depth and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.depth == 0
        finally:
            release.set()
            pool.shutdown()
