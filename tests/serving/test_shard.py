"""Sharded data plane: ring placement, warm workers, death and requeue.

The tentpole invariants under test:

* **Placement** — the consistent-hash ring maps each ``(modulus, l)``
  stably to one home shard; a dead shard's keys reassign to the next
  alive ring position and *return home* on revival.
* **Correctness** — every value that crosses the binary pipe equals
  ``pow(base, exponent, modulus)``.
* **Homing** — repeated traffic for a modulus hits its home shard's
  warm Montgomery-constant cache (misses stay at one per modulus).
* **Exactly-once** — a shard killed mid-batch is respawned, the batch
  requeued once, and every request answered exactly once with the
  correct value.
"""

from __future__ import annotations

import random
import signal
import time

import pytest

from repro.errors import ParameterError, QueueFull, ShardFailure
from repro.observability import MetricsRegistry, observe
from repro.robustness import ChaosConfig, RetryPolicy, VerifyPolicy
from repro.serving import ModExpRequest, ModExpService
from repro.serving.shard import DEFAULT_VNODES, ShardMap, ShardPool, placement_key
from repro.utils.rng import random_odd_modulus


def _requests(count, moduli, seed="shard-test"):
    rng = random.Random(seed)
    return [
        ModExpRequest(
            rng.randrange(1, moduli[i % len(moduli)]),
            rng.randrange(1, moduli[i % len(moduli)]),
            moduli[i % len(moduli)],
            request_id=f"{seed}-{i}",
        )
        for i in range(count)
    ]


class TestShardMap:
    def test_placement_key_is_stable_64_bit(self):
        key = placement_key(497, 16)
        assert key == placement_key(497, 16)
        assert 0 <= key < 1 << 64
        assert key != placement_key(497, 32)  # l is part of the identity
        assert key != placement_key(499, 16)

    def test_home_is_deterministic_and_ignores_liveness(self):
        m = ShardMap(4)
        keys = [placement_key(n) for n in range(3, 200, 2)]
        homes = [m.home(k) for k in keys]
        m.mark_dead(homes[0])
        assert m.home(keys[0]) == homes[0]  # home never moves

    def test_owner_reassigns_and_returns_home(self):
        m = ShardMap(4)
        key = placement_key(10007, 16)
        home = m.owner(key)
        m.mark_dead(home)
        stand_in = m.owner(key)
        assert stand_in != home and m.alive[stand_in]
        m.mark_alive(home)
        assert m.owner(key) == home  # revival returns the key home

    def test_all_dead_raises_shard_failure(self):
        m = ShardMap(2)
        m.mark_dead(0)
        m.mark_dead(1)
        with pytest.raises(ShardFailure):
            m.owner(placement_key(7))

    def test_vnodes_spread_keys_over_all_shards(self):
        m = ShardMap(4, vnodes=DEFAULT_VNODES)
        rng = random.Random("spread")
        counts = [0, 0, 0, 0]
        for _ in range(2000):
            counts[m.owner(rng.getrandbits(64))] += 1
        # Consistent hashing is lumpy but every shard must own a
        # non-trivial share of a large random key population.
        assert min(counts) > 2000 // 16


class TestShardPool:
    def test_values_are_correct_modular_exponentiations(self):
        rng = random.Random("pool-e2e")
        moduli = [random_odd_modulus(64, rng) for _ in range(4)]
        requests = _requests(32, moduli)
        with ShardPool(shards=2, backend="integer", queue_limit=256) as pool:
            futures = []
            by_key = {}
            for request in requests:
                by_key.setdefault(request.coalesce_key, []).append(request)
            for group in by_key.values():
                futures.extend(pool.submit_batch(group))
            payloads = [f.result(timeout=60) for f in futures]
        flat = [r for group in by_key.values() for r in group]
        for request, (value, _cycles, wall_us, worker) in zip(
            flat, payloads
        ):
            assert value == pow(request.base, request.exponent, request.modulus)
            assert worker.startswith("shard")
            assert wall_us >= 0

    def test_mixed_modulus_batch_rejected(self):
        with ShardPool(shards=1, backend="integer") as pool:
            with pytest.raises(ParameterError, match="share one"):
                pool.submit_batch(
                    [
                        ModExpRequest(2, 3, 97, request_id="a"),
                        ModExpRequest(2, 3, 101, request_id="b"),
                    ]
                )

    def test_cheap_mode_runs_on_first_ranked_backend(self):
        """The brownout lever executes on ``rank_capable``'s first pick:
        ``highradix`` for a 16-bit batch whose primary is ``rtl``."""
        from repro.serving.backends import default_registry, rank_capable

        m = random_odd_modulus(16, random.Random("cheap"))
        requests = _requests(3, [m])
        cheapest = rank_capable(default_registry(), requests[0])[0]
        assert cheapest.name == "highradix"
        with ShardPool(shards=1, backend="rtl") as pool:
            futures = pool.submit_batch(requests, cheap_mode=True)
            payloads = [f.result(timeout=60) for f in futures]
        for request, (value, cycles, _, _) in zip(requests, payloads):
            assert value == pow(request.base, request.exponent, request.modulus)
            assert cycles == cheapest.model_cycles(request)

    def test_backpressure_rejects_past_window_but_admits_elastic(self):
        m = random_odd_modulus(64, random.Random("bp"))
        requests = _requests(8, [m])
        with ShardPool(shards=1, backend="integer", queue_limit=4) as pool:
            # Empty window: a batch larger than the whole window is
            # admitted (elastic) so wait-mode submitters cannot deadlock.
            futures = pool.submit_batch(requests)
            with pytest.raises(QueueFull):
                pool.submit_batch(requests[:1])
            [f.result(timeout=60) for f in futures]

    def test_wait_for_capacity_is_slot_aware(self):
        # Regression: a 25-in/32-limit window used to satisfy a
        # single-slot wait predicate instantly, sending the dispatcher
        # into a hot reserve/QueueFull spin for the whole batch tail.
        from concurrent.futures import Future

        from repro.serving.pool import SlotWindow

        window = SlotWindow(8)
        window.reserve(6)
        assert window.wait(timeout=0, slots=1)  # 6 + 1 <= 8
        assert not window.wait(timeout=0.01, slots=6)  # 6 + 6 > 8: block
        futures = [Future() for _ in range(6)]
        for future in futures:
            window.release(future)
        assert window.wait(timeout=0, slots=6)
        # Empty window admits oversized batches (elastic), so the wait
        # predicate must too.
        window.reserve(20, elastic=True)
        done = Future()
        window.release(done)
        window.cancel_reservation(19)
        assert window.wait(timeout=0, slots=20)

    def test_homing_keeps_montgomery_cache_warm(self):
        rng = random.Random("homing")
        moduli = [random_odd_modulus(64, rng) for _ in range(4)]
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ShardPool(shards=2, backend="integer", queue_limit=256) as pool:
                for _round in range(3):
                    futures = []
                    for m in moduli:
                        futures.extend(
                            pool.submit_batch(_requests(4, [m], seed=f"h{m % 97}"))
                        )
                    [f.result(timeout=60) for f in futures]
        # One constant derivation per modulus on its home shard, ever;
        # rounds two and three are pure cache hits.
        misses = registry.counter("montgomery.precompute").total()
        hits = registry.counter("montgomery.precompute_cache_hits").total()
        assert misses == len(moduli)
        assert hits >= len(moduli)  # at least one warm round per modulus

    def test_lane_backend_compiles_kernel_once_per_home_shard(self):
        # The warm-worker claim for the compiled-simulation backends:
        # the kernel LRU lives in the shard process, so repeated traffic
        # for a modulus width compiles its (netlist, lanes) kernel at
        # most once per shard — and only on the modulus's home shard.
        from repro.hdl.compiled import clear_kernel_cache

        # Earlier tests may have compiled this kernel in *this* process;
        # forked shard workers would inherit the warm LRU and hide the
        # per-shard compile we are counting.  Fork from a cold cache.
        clear_kernel_cache()
        rng = random.Random("kernels")
        m = random_odd_modulus(8, rng)
        requests = [
            ModExpRequest(rng.randrange(1, m), 5, m, request_id=f"g{i}")
            for i in range(8)
        ]
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ShardPool(shards=2, backend="rtl", queue_limit=64) as pool:
                for _round in range(2):
                    futures = pool.submit_batch(requests)
                    payloads = [f.result(timeout=120) for f in futures]
        for request, payload in zip(requests, payloads):
            assert payload[0] == pow(
                request.base, request.exponent, request.modulus
            )
        misses = registry.counter("hdl.compile_cache_misses")
        assert misses.total() == 1  # one compile, ever, across both rounds
        home = ShardMap(2).owner(placement_key(m, requests[0].l))
        assert misses.total(shard=str(home)) == 1
        # The whole same-exponent batch crossed the pipe as one frame
        # and ran as one packed lane group on the home shard.
        groups = registry.counter("serving.lane_groups")
        assert groups.total(packed="yes", shard=str(home)) == 2

    def test_killed_shard_respawns_and_answers_exactly_once(self):
        import os

        rng = random.Random("kill")
        m = random_odd_modulus(64, rng)
        requests = _requests(12, [m])
        with ShardPool(shards=2, backend="integer", queue_limit=256) as pool:
            # Identify the home shard and kill it mid-flight.
            warm = pool.submit_batch(requests[:1])
            [f.result(timeout=60) for f in warm]
            home = placement_key(m, requests[0].l)
            victim = pool.map.owner(home)
            futures = pool.submit_batch(requests)
            os.kill(pool.shard_pids[victim], signal.SIGKILL)
            payloads = [f.result(timeout=60) for f in futures]
            assert pool.restarts >= 1
        assert len(payloads) == len(requests)
        for request, payload in zip(requests, payloads):
            assert payload[0] == pow(
                request.base, request.exponent, request.modulus
            )


class TestServiceIntegration:
    def test_shard_service_end_to_end(self):
        rng = random.Random("svc")
        moduli = [random_odd_modulus(64, rng) for _ in range(3)]
        requests = _requests(24, moduli)
        with ModExpService(
            backend="integer", workers=2, worker_kind="shard"
        ) as service:
            results = service.process(requests)
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            assert result.ok, result.error
            assert result.value == pow(
                request.base, request.exponent, request.modulus
            )

    def test_shard_rejects_unregistered_backend(self):
        from repro.serving.backends import default_registry

        backend = default_registry().get("integer")

        class Custom(type(backend)):
            name = "custom-not-registered"

        with pytest.raises(ParameterError, match="shard workers resolve"):
            ModExpService(backend=Custom(), worker_kind="shard")

    def test_chaos_kill_respawn_requeue_no_silent_corruption(self):
        rng = random.Random("svc-chaos")
        moduli = [random_odd_modulus(64, rng) for _ in range(3)]
        requests = _requests(30, moduli)
        chaos = ChaosConfig(
            seed=20260808,
            worker_kill_rate=0.05,
            bitflip_rate=0.1,
            exception_rate=0.05,
        )
        with ModExpService(
            backend="integer",
            workers=2,
            worker_kind="shard",
            chaos=chaos,
            verify=VerifyPolicy(mode="full"),
            retry=RetryPolicy(max_attempts=4, backoff_s=0.0),
        ) as service:
            results = service.process(requests)
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            assert result.ok, result.error
            assert result.value == pow(
                request.base, request.exponent, request.modulus
            )

    def test_top_dashboard_surfaces_shard_gauges(self):
        from repro.cli import _render_top_frame, _top_summary
        from repro.observability.metrics import parse_prometheus_text

        rng = random.Random("top")
        moduli = [random_odd_modulus(64, rng) for _ in range(2)]
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ModExpService(
                backend="integer", workers=2, worker_kind="shard"
            ) as service:
                service.process(_requests(16, moduli))
        text = registry.to_prometheus()
        summary = _top_summary(parse_prometheus_text(text))
        assert summary["shards"]
        for row in summary["shards"].values():
            assert 0.0 <= row["busy_fraction"] <= 1.0
        frame = _render_top_frame("test", text)
        assert any(line.startswith("shards") for line in frame.splitlines())

    def test_per_shard_gauges_exported(self):
        rng = random.Random("gauges")
        moduli = [random_odd_modulus(64, rng) for _ in range(2)]
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ModExpService(
                backend="integer", workers=2, worker_kind="shard"
            ) as service:
                service.process(_requests(16, moduli))
        shard_labels = {
            row["labels"].get("shard")
            for row in registry.gauge("serving.shard_busy_fraction").snapshot()
        }
        assert shard_labels  # at least the shards that saw traffic
        for name in (
            "serving.shard_queue_depth",
            "serving.shard_cache_hit_rate",
        ):
            assert name in registry
