"""Tests for the modular exponentiator (Section 4.5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.montgomery.params import MontgomeryContext
from repro.montgomery.windowed import execute_schedule, schedule_for
from repro.systolic.exponentiator import ModularExponentiator
from repro.systolic.mmmc import MMMC
from repro.systolic.timing import (
    exponentiation_cycle_bounds,
    exponentiation_cycles_measured_model,
)


class TestCorrectness:
    def test_rtl_small(self):
        ctx = MontgomeryContext(197)
        exp = ModularExponentiator(ctx, engine="rtl")
        run = exp.exponentiate(55, 123)
        assert run.result == pow(55, 123, 197)

    @given(st.integers(0, 1 << 48), st.integers(1, 1 << 16))
    @settings(max_examples=60, deadline=None)
    def test_golden_engine_matches_pow(self, m_raw, e):
        n = (1 << 47) | 0x2B  # fixed 48-bit odd modulus
        ctx = MontgomeryContext(n)
        exp = ModularExponentiator(ctx, engine="golden")
        m = m_raw % n
        assert exp.exponentiate(m, e).result == pow(m, e, n)

    def test_rtl_and_golden_agree_in_cycles_and_value(self):
        ctx = MontgomeryContext(241)
        r1 = ModularExponentiator(ctx, engine="rtl").exponentiate(99, 0b101101)
        r2 = ModularExponentiator(ctx, engine="golden").exponentiate(99, 0b101101)
        assert r1.result == r2.result
        assert r1.cycles == r2.cycles, "golden accounting must equal measured RTL"

    def test_paper_mode_engine(self):
        # Small modulus where the printed array is safe.
        ctx = MontgomeryContext(139)
        exp = ModularExponentiator(ctx, engine="rtl", mode="paper")
        run = exp.exponentiate(100, 19)
        assert run.result == pow(100, 19, 139)


class TestCycleAccounting:
    def test_matches_closed_form(self):
        ctx = MontgomeryContext(197)
        e = 0xB5
        run = ModularExponentiator(ctx, engine="golden").exponentiate(12, e)
        assert run.cycles == exponentiation_cycles_measured_model(ctx.l, e).total

    def test_within_eq10_bounds_modulo_model_delta(self):
        """Our measured cycles fall inside Eq. (10) once the known
        accounting deltas are added: the paper's pre/post differ from a
        full multiplication, and the corrected array costs +1/multiply."""
        ctx = MontgomeryContext((1 << 31) | 11)
        l = ctx.l
        e = (1 << l) - 1  # worst case: all ones, l bits
        run = ModularExponentiator(ctx, engine="golden").exponentiate(3, e)
        lo, hi = exponentiation_cycle_bounds(l)
        ops = 2 * l + 1  # pre + (l-1 squares + l-1 mults... ) bounded above
        assert run.cycles <= hi + ops  # +1 cycle per op vs the paper count
        assert run.cycles >= lo

    def test_operation_log(self):
        ctx = MontgomeryContext(197)
        run = ModularExponentiator(ctx, engine="golden").exponentiate(5, 0b1001)
        kinds = [k for k, _ in run.operations]
        assert kinds == ["pre", "square", "square", "square", "multiply", "post"]
        assert run.num_multiplications == 6

    def test_cumulative_cycles(self):
        ctx = MontgomeryContext(197)
        exp = ModularExponentiator(ctx, engine="golden")
        c1 = exp.exponentiate(5, 3).cycles
        c2 = exp.exponentiate(6, 7).cycles
        assert exp.cycles == c1 + c2


def _windowed_on_mmmc(ctx, message, exponent, *, window=4, method="sliding"):
    """A windowed schedule run on the cycle-accurate MMMC.

    Returns ``(value, cycles, passes)``: the reduced result, the measured
    cycles summed over every multiplier pass, and the pass count.
    """
    mmmc = MMMC(ctx.l)
    cycles = []

    def mont(ctx, x, y):
        rec = mmmc.multiply(x, y, ctx.modulus)
        cycles.append(rec.cycles)
        return rec.result

    sched = schedule_for(method, exponent, window)
    value = execute_schedule(ctx, sched, message, mont=mont)
    return value, sum(cycles), len(cycles)


class TestWindowedThroughEngine:
    def test_matches_binary_result(self):
        ctx = MontgomeryContext(197)
        exp = ModularExponentiator(ctx, engine="rtl")
        e = 0xBEEF
        assert (
            _windowed_on_mmmc(ctx, 55, e, window=3)[0]
            == exp.exponentiate(55, e).result
            == pow(55, e, 197)
        )

    def test_saves_cycles_on_dense_exponents(self):
        ctx = MontgomeryContext(241)
        exp = ModularExponentiator(ctx, engine="rtl")
        e = (1 << 48) - 1
        value, cycles, _ = _windowed_on_mmmc(ctx, 5, e, window=4)
        binr = exp.exponentiate(5, e)
        assert value == binr.result
        assert cycles < binr.cycles

    def test_methods(self):
        ctx = MontgomeryContext(197)
        for method in ("binary", "mary", "sliding"):
            assert _windowed_on_mmmc(ctx, 7, 1234, method=method)[0] == pow(
                7, 1234, 197
            )
        with pytest.raises(ParameterError):
            _windowed_on_mmmc(ctx, 7, 3, method="psychic")

    def test_cycles_accounted_per_pass(self):
        from repro.systolic.timing import mmm_cycles_corrected

        ctx = MontgomeryContext(197)
        _, cycles, passes = _windowed_on_mmmc(ctx, 7, 0xFF, window=2)
        assert cycles == passes * mmm_cycles_corrected(ctx.l)


class TestValidation:
    def test_bad_engine(self):
        with pytest.raises(ParameterError):
            ModularExponentiator(MontgomeryContext(11), engine="fpga")

    def test_bad_message(self):
        exp = ModularExponentiator(MontgomeryContext(11), engine="golden")
        with pytest.raises(ParameterError):
            exp.exponentiate(11, 3)

    def test_bad_exponent(self):
        exp = ModularExponentiator(MontgomeryContext(11), engine="golden")
        with pytest.raises(ParameterError):
            exp.exponentiate(3, 0)
