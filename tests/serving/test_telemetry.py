"""End-to-end request telemetry across the process boundary.

The acceptance scenario of the telemetry work, on the shard plane: a
20-request batch served by shard worker processes must leave the
*parent* registry with one ``serving.request_cycles`` sample per request
labelled by backend and worker, and the worker-side ``exponentiator.*``
series merged in with ``worker`` labels.
"""

import pytest

from repro.observability import (
    MetricsRegistry,
    SpanTracer,
    observe,
    worker_label,
)
from repro.robustness import VerifyPolicy
from repro.serving import ModExpRequest, ModExpService

N_REQUESTS = 20
MODULUS = 0xC5AF  # 16-bit odd


def _workload(n=N_REQUESTS):
    return [
        ModExpRequest(
            base=3 + i, exponent=65537, modulus=MODULUS, request_id=f"r{i}"
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def process_run():
    """One observed 20-request batch on shard worker processes."""
    registry, tracer = MetricsRegistry(), SpanTracer()
    requests = _workload()
    with ModExpService(backend="integer", workers=2, worker_kind="shard") as svc:
        with observe(metrics=registry, tracer=tracer):
            results = svc.process(requests)
    return requests, results, registry, tracer


class TestProcessPoolAcceptance:
    def test_results_are_correct(self, process_run):
        requests, results, _, _ = process_run
        assert len(results) == N_REQUESTS
        for request, result in zip(requests, results):
            assert result.ok and result.value == request.expected()

    def test_one_cycle_sample_per_request_with_worker_labels(self, process_run):
        _, _, registry, _ = process_run
        hist = registry.histogram("serving.request_cycles")
        agg = hist.aggregate(backend="integer")
        # The latency series is NOT empty after a batch served in worker
        # processes (the pre-telemetry blind spot).
        assert agg is not None and agg.count == N_REQUESTS
        workers = {
            dict(key).get("worker")
            for key, _ in hist._labelled_rows()
        }
        assert workers and all(w and w.startswith("shard") for w in workers)

    def test_worker_metrics_merged_with_worker_labels(self, process_run):
        _, _, registry, _ = process_run
        ops = registry.counter("exponentiator.operations")
        assert ops.total() > 0
        labelled = [dict(key) for key, _ in ops._labelled_rows()]
        assert labelled and all(
            row.get("worker", "").startswith("shard") for row in labelled
        )
        assert registry.counter("exponentiator.exponentiations").total() == N_REQUESTS

    def test_wall_us_series_also_per_worker(self, process_run):
        _, _, registry, _ = process_run
        agg = registry.histogram("serving.request_wall_us").aggregate(
            backend="integer"
        )
        assert agg is not None and agg.count == N_REQUESTS


class TestWorkerLabelsByPoolKind:
    def _run(self, kind, workers):
        registry = MetricsRegistry()
        with ModExpService(
            backend="integer", workers=workers, worker_kind=kind
        ) as svc:
            with observe(metrics=registry):
                results = svc.process(_workload(6))
        assert all(r.ok for r in results)
        hist = registry.histogram("serving.request_cycles")
        return {dict(key).get("worker") for key, _ in hist._labelled_rows()}

    def test_inline_worker_is_main(self):
        assert self._run("inline", 1) == {"main"}

    def test_thread_workers_use_thread_names(self):
        workers = self._run("thread", 2)
        assert workers and all(w.startswith("repro-serve") for w in workers)


class TestTraceContextAttachment:
    def test_anonymous_requests_get_generated_ids(self):
        # Verification keys its sampling RNG on the request id, so the
        # service names anonymous requests before dispatch.
        request = ModExpRequest(base=5, exponent=3, modulus=97)
        with ModExpService(
            backend="integer",
            workers=2,
            worker_kind="shard",
            verify=VerifyPolicy(mode="full"),
        ) as svc:
            results = svc.process([request])
        assert results[0].ok and results[0].request_id.startswith("req")

    def test_worker_label_in_parent_process_is_main(self):
        assert worker_label() == "main"


class TestDisabledObservability:
    def test_process_pool_works_without_a_session(self):
        with ModExpService(backend="integer", workers=2, worker_kind="shard") as svc:
            results = svc.process(_workload(4))
        assert all(r.ok for r in results)

    def test_requests_carry_no_trace_when_disabled(self):
        with ModExpService(backend="integer", workers=1, worker_kind="inline") as svc:
            results = svc.process(_workload(2))
        assert all(r.ok for r in results)
