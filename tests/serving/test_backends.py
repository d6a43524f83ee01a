"""Backend registry semantics and capability declarations."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.serving.backends import (
    BackendCapabilities,
    BackendResult,
    IntegerBackend,
    ModExpBackend,
    default_registry,
    rank_capable,
)
from repro.serving.request import ModExpRequest


class _StubBackend(ModExpBackend):
    name = "stub"
    capabilities = BackendCapabilities(description="test stub", max_bits=16)

    def execute(self, ctx, request):
        return BackendResult(pow(request.base, request.exponent, request.modulus))


class TestRegistry:
    def test_default_registry_has_all_engines(self):
        reg = default_registry()
        assert reg.names() == ["crt-rsa", "highradix", "integer", "rtl"]

    def test_get_unknown_backend_lists_known(self):
        with pytest.raises(ParameterError, match="integer"):
            default_registry().get("does-not-exist")

    @pytest.mark.parametrize(
        "gone, survivor",
        [("gate", "rtl"), ("scalable", "integer"), ("chip", "rtl")],
    )
    def test_removed_name_is_gone(self, gone, survivor):
        """Each removed backend served the same requests as its survivor,
        slower at every width (``gate`` ran the same compiled netlist as
        ``rtl``); asking for it fails loudly and lists the survivor."""
        from repro.serving import ModExpService

        with pytest.raises(ParameterError, match=survivor):
            default_registry().get(gone)
        with pytest.raises(ParameterError, match=survivor):
            ModExpService(backend=gone)

    def test_duplicate_registration_rejected_unless_replace(self):
        reg = default_registry()
        with pytest.raises(ParameterError, match="already registered"):
            reg.register(IntegerBackend())
        reg.register(IntegerBackend(), replace=True)  # explicit replace ok

    def test_register_requires_name(self):
        backend = _StubBackend()
        backend.name = ""
        with pytest.raises(ParameterError, match="name"):
            default_registry().register(backend)

    def test_capability_rows_cover_every_backend(self):
        reg = default_registry()
        rows = reg.capability_rows()
        assert [row[0] for row in rows] == reg.names()
        assert all(len(row) == 7 for row in rows)


class TestCapabilityScreen:
    def test_width_ceiling_rejects(self):
        backend = _StubBackend()
        small = ModExpRequest(2, 3, 0xFFFF)  # 16 bits: at the limit
        large = ModExpRequest(2, 3, (1 << 17) + 1)
        assert backend.reject_reason(small) is None
        reason = backend.reject_reason(large)
        assert reason is not None and "16" in reason

    def test_explicit_l_counts_toward_width(self):
        backend = _StubBackend()
        req = ModExpRequest(2, 3, 251, l=20)
        assert backend.reject_reason(req) is not None

    def test_crt_requires_factors(self):
        crt = default_registry().get("crt-rsa")
        plain = ModExpRequest(2, 3, 15)
        with_factors = ModExpRequest(2, 3, 15, factors=(3, 5))
        assert crt.reject_reason(plain) is not None
        assert crt.reject_reason(with_factors) is None
        with pytest.raises(ParameterError, match=">= 3"):
            ModExpRequest(2, 3, 15, factors=(1, 15))  # p-1 = 0: no CRT half

    def test_crt_zero_half_exponent(self):
        """(p-1) | exponent: that half is x^0, spending no cycles."""
        from repro.montgomery.params import precompute_montgomery_constants

        crt = default_registry().get("crt-rsa")
        ctx = precompute_montgomery_constants(77)
        for e in (60, 6):  # both halves zero; only the p = 7 half zero
            for c in (0, 1, 7, 11, 12, 76):
                req = ModExpRequest(c, e, 77, factors=(7, 11))
                assert crt.execute(ctx, req).value == pow(c, e, 77)
                assert crt.model_cycles(req) == crt.execute(ctx, req).cycles
        both_zero = ModExpRequest(12, 60, 77, factors=(7, 11))
        assert crt.execute(ctx, both_zero).cycles == 0

    def test_simulators_are_thread_only(self):
        reg = default_registry()
        caps = reg.get("rtl").capabilities
        assert caps.simulator and not caps.process_safe
        assert reg.get("integer").capabilities.process_safe

    def test_crt_refuses_composite_factors(self):
        """``e mod (p-1)`` is only valid for prime ``p``: a composite
        factor pair is refused, never answered with a wrong value."""
        from repro.serving import ModExpService

        crt = default_registry().get("crt-rsa")
        assert "prime" in crt.reject_reason(ModExpRequest(2, 8, 45, factors=(9, 5)))
        assert "prime" in crt.reject_reason(ModExpRequest(2, 8, 49, factors=(7, 7)))
        for n, factors in ((45, (9, 5)), (77, (7, 11))):
            requests = [
                ModExpRequest(b, e, n, factors=factors)
                for b in range(n)
                for e in range(1, 40)
            ]
            with ModExpService(backend="crt-rsa", worker_kind="inline") as svc:
                results = svc.process(requests)
            assert len(results) == len(requests)
            wrong = [
                (req, res)
                for req, res in zip(requests, results)
                if res.ok and res.value != pow(req.base, req.exponent, n)
            ]
            assert wrong == []
            if n == 77:  # distinct primes: every request served exactly
                assert all(res.ok for res in results)
            else:
                assert not any(res.ok for res in results)


class TestCostModel:
    def test_cost_grows_with_exponent_bits(self):
        backend = IntegerBackend()
        n = (1 << 63) + 5
        cheap = ModExpRequest(2, 3, n)
        dear = ModExpRequest(2, (1 << 60) + 1, n)
        assert backend.model_cycles(dear) > backend.model_cycles(cheap)

    def test_rank_capable_puts_rtl_after_integer(self):
        """A simulator ranks after every software backend, whatever its
        modelled cycles: it pays far more wall time per cycle."""
        reg = default_registry()
        n = 0xC001
        req = ModExpRequest(3, 5, n)
        assert reg.get("rtl").model_cycles(req) == reg.get("integer").model_cycles(req)
        names = [b.name for b in rank_capable(reg, req)]
        assert names.index("integer") < names.index("rtl")

    def test_crt_model_cheaper_than_full_width(self):
        import random

        from repro.rsa.primes import generate_prime

        rng = random.Random("crt-model")
        p, q = generate_prime(32, rng), generate_prime(32, rng)
        n = p * q
        req = ModExpRequest(2, n - 2, n, factors=(p, q))
        reg = default_registry()
        assert reg.get("crt-rsa").model_cycles(req) < reg.get("integer").model_cycles(req)
