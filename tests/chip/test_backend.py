"""ChipBackend: chain-interleaved modexp, cost model, service integration."""

from __future__ import annotations

import random

import pytest

from repro.chip.backend import ChipBackend
from repro.montgomery.params import precompute_montgomery_constants
from repro.serving import ModExpRequest, ModExpService, default_registry
from repro.systolic.timing import mmm_cycles_corrected
from repro.utils.rng import random_odd_modulus


def _requests(l: int, count: int, seed: int = 0, mixed: bool = True):
    rng = random.Random(seed)
    n = random_odd_modulus(l, rng)
    reqs = []
    for i in range(count):
        e = rng.randrange(3, 1 << 8) if mixed else 17
        reqs.append(
            ModExpRequest(rng.randrange(1, n), e, n, request_id=f"c{i}")
        )
    return reqs, n


class TestRegistration:
    def test_registered_with_chip_capabilities(self):
        caps = default_registry().get("chip").capabilities
        assert caps.simulator and caps.cycle_accurate and not caps.process_safe
        assert caps.lanes == 4  # 2 tiles x 2 waves
        assert caps.mixed_exponent_lanes
        assert "2-tile x 2-wave" in caps.description

    def test_engine_screen(self):
        """The chip is fixed to rtl arrays: no engine (or other) knob."""
        with pytest.raises(TypeError):
            ChipBackend(engine="compiled")
        assert ChipBackend()._chip(8).engine == "rtl"


class TestExecution:
    def test_mixed_exponent_batch_pow_correct(self):
        reqs, n = _requests(16, 6, seed=1)
        ctx = precompute_montgomery_constants(n)
        results = ChipBackend().execute_many(ctx, reqs)
        assert len(results) == 6
        for req, res in zip(reqs, results):
            assert res.value == pow(req.base, req.exponent, n)

    def test_cycles_are_scalar_identical(self):
        # Per-request cycles = own MMM latencies summed, independent of
        # how many neighbours shared the chip: 2 + #squares + #multiplies
        # multiplications at 3l+5 each.
        reqs, n = _requests(16, 3, seed=2, mixed=False)  # e=17: 10001b
        ctx = precompute_montgomery_constants(n)
        results = ChipBackend().execute_many(ctx, reqs)
        mults = 2 + (17 .bit_length() - 1) + bin(17).count("1") - 1  # pre+post+sq+ml
        expected = mults * mmm_cycles_corrected(ctx.l)
        assert all(r.cycles == expected for r in results)

    def test_empty_batch(self):
        reqs, n = _requests(16, 1)
        ctx = precompute_montgomery_constants(n)
        assert ChipBackend().execute_many(ctx, []) == []


class TestCostModel:
    def test_estimate_cost_is_undiscounted(self):
        """The chip's cost is the one schedule count at its wall weight,
        twice rtl's: per request the chip is the slower of the two."""
        reqs, _ = _requests(32, 1, seed=4)
        chip = ChipBackend()
        rtl = default_registry().get("rtl")
        assert chip.model_cycles(reqs[0]) == rtl.model_cycles(reqs[0])
        assert chip.estimate_cost(reqs[0]) == 2 * rtl.estimate_cost(reqs[0])


class TestServiceIntegration:
    def test_through_service_with_mixed_exponent_lanes(self):
        reqs, n = _requests(16, 7, seed=7)
        with ModExpService(
            backend="chip", workers=2, worker_kind="thread"
        ) as service:
            results = service.process(reqs)
        assert all(r.ok for r in results)
        for req, res in zip(reqs, results):
            assert res.value == pow(req.base, req.exponent, n)

    def test_slo_checks_pass_on_chip_results(self, ):
        from repro.observability import MetricsRegistry, observe

        reqs, _ = _requests(16, 4, seed=8)
        reg = MetricsRegistry()
        with observe(metrics=reg):
            with ModExpService(
                backend="chip", workers=1, worker_kind="thread"
            ) as service:
                results = service.process(reqs)
        assert all(r.ok for r in results)
        assert reg.counter("serving.slo_checks").total() == 4
        assert reg.counter("serving.slo_violations").total() == 0
