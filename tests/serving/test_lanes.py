"""Bit-sliced lane batching through the serving layer.

Coalesced batches of same-modulus, same-exponent requests ride one
64-lane compiled simulator sweep instead of 64 scalar simulations; mixed
exponents and short batches degrade gracefully to scalar dispatch.  The
wire format, result ordering and SLO inputs must be indistinguishable
from scalar execution.
"""

import random
from dataclasses import replace

import pytest

from repro.errors import FaultDetected
from repro.montgomery.params import precompute_montgomery_constants
from repro.observability import MetricsRegistry, observe
from repro.serving import ModExpRequest, ModExpService
from repro.serving.backends import RTLBackend
from repro.systolic.mmmc import MMMCRun
from repro.systolic.mmmc_netlist import GateLevelMMMC
from repro.utils.rng import random_odd_modulus


def _requests(rng, n, count, exponent=None):
    return [
        ModExpRequest(
            rng.randrange(n),
            exponent if exponent is not None else rng.randrange(1, n),
            n,
            request_id=f"r{i}",
        )
        for i in range(count)
    ]


class _ScalarRTL(RTLBackend):
    """The rtl backend declaring no lanes: the service never groups."""

    name = "rtl-scalar"
    capabilities = replace(RTLBackend.capabilities, lanes=1)


class TestBackendLanes:
    def test_rtl_defaults_to_compiled_gate_twin(self):
        backend = RTLBackend()
        assert backend.capabilities.lanes == 64
        assert backend.capabilities.max_bits == 64
        assert "compiled" in backend.capabilities.description

    def test_execute_many_groups_by_exponent(self):
        """3+2 requests with two exponents: the 3-group runs as lanes,
        the 2-group runs as lanes, results come back in input order."""
        rng = random.Random("lanes-group")
        n = random_odd_modulus(9, rng)
        ctx = precompute_montgomery_constants(n)
        reqs = _requests(rng, n, 3, exponent=19)
        reqs += _requests(rng, n, 2, exponent=23)
        backend = RTLBackend()
        registry = MetricsRegistry()
        with observe(metrics=registry):
            results = backend.execute_many(ctx, reqs)
        assert len(results) == len(reqs)
        for req, res in zip(reqs, results):
            assert res.value == pow(req.base, req.exponent, n)
            assert res.cycles is not None and res.cycles > 0
        assert registry.counter("hdl.lanes_packed").total() > 0

    def test_execute_many_singletons_take_the_scalar_path(self):
        rng = random.Random("lanes-single")
        n = random_odd_modulus(9, rng)
        ctx = precompute_montgomery_constants(n)
        reqs = _requests(rng, n, 3)  # three distinct random exponents
        backend = RTLBackend()
        registry = MetricsRegistry()
        with observe(metrics=registry):
            results = backend.execute_many(ctx, reqs)
        for req, res in zip(reqs, results):
            assert res.value == pow(req.base, req.exponent, n)
        assert registry.counter("hdl.lanes_packed").total() == 0

    def test_lane_group_cycles_match_scalar_execution(self):
        """SLO semantics: a laned request reports the same cycle count
        the scalar path would have charged it."""
        rng = random.Random("lanes-cycles")
        n = random_odd_modulus(9, rng)
        ctx = precompute_montgomery_constants(n)
        reqs = _requests(rng, n, 4, exponent=21)
        backend = RTLBackend()
        grouped = backend.execute_many(ctx, reqs)
        scalar = [backend.execute(ctx, r) for r in reqs]
        assert [g.value for g in grouped] == [s.value for s in scalar]
        assert [g.cycles for g in grouped] == [s.cycles for s in scalar]


def _skew(monkeypatch, method, *, result=0, cycles=0):
    """Offset every product / cycle count ``GateLevelMMMC.<method>`` reports."""
    original = getattr(GateLevelMMMC, method)

    def fix(run):
        return MMMCRun(run.result + result, run.cycles + cycles, run.state_sequence)

    def skewed(self, *args):
        runs = original(self, *args)
        return [fix(r) for r in runs] if isinstance(runs, list) else fix(runs)

    monkeypatch.setattr(GateLevelMMMC, method, skewed)


def _run_path(path, n):
    """Execute two same-exponent requests through one rtl code path."""
    ctx = precompute_montgomery_constants(n)
    reqs = _requests(random.Random("rtl-checks"), n, 2, exponent=11)
    backend = RTLBackend()
    if path == "scalar":
        return backend.execute(ctx, reqs[0])
    if path == "lanes":
        return backend.execute_many(ctx, reqs)
    return backend.execute_with_register_fault(ctx, reqs[0], random.Random(0))


class TestRTLChecks:
    """Walter's bound guards every rtl path; Eq. (10) every clean one."""

    N = 0x2C5

    @pytest.mark.parametrize(
        "path, method",
        [("scalar", "multiply"), ("lanes", "multiply_lanes"), ("fault", "multiply")],
    )
    def test_walter_bound_checked_on_every_path(self, monkeypatch, path, method):
        _skew(monkeypatch, method, result=2 * self.N)
        with pytest.raises(FaultDetected) as info:
            _run_path(path, self.N)
        assert info.value.check == "walter-bound"

    @pytest.mark.parametrize(
        "path, method", [("scalar", "multiply"), ("lanes", "multiply_lanes")]
    )
    def test_cycle_model_cross_checked_on_clean_paths(self, monkeypatch, path, method):
        _skew(monkeypatch, method, cycles=1)
        with pytest.raises(AssertionError, match="cost model"):
            _run_path(path, self.N)


class TestServiceLaneDispatch:
    def test_same_exponent_batch_packs_lanes(self):
        rng = random.Random("svc-lanes")
        n = random_odd_modulus(10, rng)
        reqs = _requests(rng, n, 16, exponent=257)
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ModExpService(backend="rtl", max_batch=16) as svc:
                results = svc.process(reqs)
        for req, res in zip(reqs, results):
            assert res.ok, res
            assert res.value == pow(req.base, req.exponent, n)
            assert res.cycles is not None
            assert res.wall_us is not None and res.wall_us > 0
        assert registry.counter("hdl.lanes_packed").total() >= 16
        accepted = registry.counter("serving.requests").total(status="accepted")
        completed = registry.counter("serving.requests").total(status="completed")
        assert accepted == completed == 16

    def test_mixed_exponents_still_correct(self):
        rng = random.Random("svc-mixed")
        n = random_odd_modulus(10, rng)
        reqs = _requests(rng, n, 6, exponent=91)
        reqs += _requests(rng, n, 5)
        rng.shuffle(reqs)
        with ModExpService(backend="rtl", max_batch=8, workers=2) as svc:
            results = svc.process(reqs)
        for req, res in zip(reqs, results):
            assert res.ok, res
            assert res.value == pow(req.base, req.exponent, n)

    def test_rtl_backend_lanes_through_service(self):
        rng = random.Random("svc-rtl")
        n = random_odd_modulus(12, rng)
        reqs = _requests(rng, n, 8, exponent=65)
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ModExpService(backend="rtl", max_batch=8) as svc:
                results = svc.process(reqs)
        for req, res in zip(reqs, results):
            assert res.ok, res
            assert res.value == pow(req.base, req.exponent, n)
        assert registry.counter("hdl.lanes_packed").total() >= 8

    def test_scalar_backend_never_groups(self):
        rng = random.Random("svc-scalar")
        n = random_odd_modulus(8, rng)
        reqs = _requests(rng, n, 4, exponent=9)
        registry = MetricsRegistry()
        with observe(metrics=registry):
            with ModExpService(backend=_ScalarRTL(), max_batch=4) as svc:
                results = svc.process(reqs)
        for req, res in zip(reqs, results):
            assert res.ok, res
            assert res.value == pow(req.base, req.exponent, n)
        assert registry.counter("hdl.lanes_packed").total() == 0
        assert registry.counter("serving.lane_groups").total(packed="yes") == 0
