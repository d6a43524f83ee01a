"""Coalescing under Zipf mixed traffic: grouping, shard stability, no loss.

The workload generator's Zipf keyring is the adversarial case for the
sharded data plane: a few hot moduli dominate (deep batches for their
home shards) while the tail moduli trickle in (many thin batches).
These tests pin the scheduler's grouping arithmetic on that mix, the
stability of batch→shard placement, and the service-level guarantee
that backpressure reshapes *when* requests run, never *whether* they
are answered.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.serving import ModExpRequest, ModExpService
from repro.serving.backends import default_registry
from repro.serving.scheduler import coalesce
from repro.serving.shard import ShardMap
from repro.serving.workload import WorkloadConfig, generate_workload

ZIPF = WorkloadConfig(
    requests=200,
    keys=8,
    bits=(24, 32),
    zipf_s=1.2,
    exponent_bits=(8, 16),
)


def _zipf_requests(seed="zipf-coalesce"):
    return list(generate_workload(ZIPF, seed=seed).requests)


class TestGroupCounts:
    def test_one_batch_per_distinct_key_without_chunking(self):
        requests = _zipf_requests()
        backend = default_registry().get("integer")
        batches = coalesce(requests, backend, max_batch=0)
        distinct = {r.coalesce_key for r in requests}
        assert len(batches) == len(distinct)
        assert sum(b.size for b in batches) == len(requests)
        # Zipf skew shows up as a deep head batch: the hottest modulus
        # alone carries several times its fair share of the traffic.
        assert max(b.size for b in batches) > 2 * len(requests) // ZIPF.keys

    def test_chunked_group_count_matches_ceiling_arithmetic(self):
        requests = _zipf_requests()
        backend = default_registry().get("integer")
        max_batch = 16
        batches = coalesce(requests, backend, max_batch=max_batch)
        per_key = Counter(r.coalesce_key for r in requests)
        expected = sum(math.ceil(n / max_batch) for n in per_key.values())
        assert len(batches) == expected
        assert all(b.size <= max_batch for b in batches)
        assert sum(b.size for b in batches) == len(requests)

    def test_every_batch_is_single_key(self):
        requests = _zipf_requests()
        backend = default_registry().get("integer")
        for batch in coalesce(requests, backend, max_batch=16):
            keys = {r.coalesce_key for r in batch.requests}
            assert keys == {(batch.modulus, batch.l)}


class TestShardKeyStability:
    def test_requests_in_a_batch_share_one_shard_key(self):
        requests = _zipf_requests()
        backend = default_registry().get("integer")
        for batch in coalesce(requests, backend, max_batch=16):
            assert len({r.shard_key for r in batch.requests}) == 1

    def test_same_modulus_lands_on_same_shard_across_rounds(self):
        shard_map = ShardMap(4)
        placements = {}
        # Three independently seeded traces over the same keyring: the
        # moduli repeat, and each must keep its home shard.
        for round_seed in ("zipf-a", "zipf-b", "zipf-c"):
            for request in _zipf_requests(seed="zipf-stable"):
                owner = shard_map.owner(request.shard_key)
                home = placements.setdefault(request.modulus, owner)
                assert owner == home

    def test_chunked_batches_of_one_modulus_share_one_home(self):
        requests = _zipf_requests()
        backend = default_registry().get("integer")
        shard_map = ShardMap(4)
        homes = {}
        for batch in coalesce(requests, backend, max_batch=8):
            owner = shard_map.owner(batch.requests[0].shard_key)
            assert homes.setdefault((batch.modulus, batch.l), owner) == owner


class TestNoLossUnderBackpressure:
    def test_coalesce_returns_every_request_exactly_once(self):
        requests = _zipf_requests()
        batches = coalesce(
            requests, default_registry().get("integer"), max_batch=16
        )
        drained = [r for b in batches for r in b.requests]
        # Every request comes back out exactly once.
        assert sorted(r.request_id for r in drained) == sorted(
            r.request_id for r in requests
        )

    def test_sharded_service_wait_mode_answers_every_request(self):
        requests = _zipf_requests(seed="zipf-service")
        with ModExpService(
            backend="integer",
            workers=2,
            worker_kind="shard",
            queue_limit=16,  # far below the 200-request trace
            max_batch=16,
        ) as service:
            results = service.process(requests, on_full="wait")
        assert len(results) == len(requests)
        returned = Counter(r.request_id for r in results)
        assert all(count == 1 for count in returned.values())
        for request, result in zip(requests, results):
            assert result.ok, result.error
            assert result.value == pow(
                request.base, request.exponent, request.modulus
            )

    def test_sharded_service_reject_mode_accounts_for_every_request(self):
        requests = _zipf_requests(seed="zipf-reject")
        with ModExpService(
            backend="integer",
            workers=2,
            worker_kind="shard",
            queue_limit=16,
            max_batch=16,
        ) as service:
            results = service.process(requests, on_full="reject")
        assert len(results) == len(requests)
        completed = [r for r in results if r.ok]
        rejected = [r for r in results if not r.ok]
        # A rejection is an explicit answer, not a drop — and every
        # completion is correct.
        assert len(completed) + len(rejected) == len(requests)
        by_id = {r.request_id: r for r in results}
        for request in requests:
            result = by_id[request.request_id]
            if result.ok:
                assert result.value == pow(
                    request.base, request.exponent, request.modulus
                )
