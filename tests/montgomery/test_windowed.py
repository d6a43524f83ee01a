"""Tests for windowed exponentiation schedules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.montgomery.params import MontgomeryContext
from repro.montgomery.windowed import (
    binary_schedule,
    execute_schedule,
    mary_schedule,
    optimal_window,
    schedule_for,
    sliding_window_schedule,
    windowed_modexp,
)

from tests.conftest import odd_modulus


class TestSchedules:
    def test_binary_matches_algorithm3_counts(self):
        e = 0b1011001
        s = binary_schedule(e)
        assert s.squares == e.bit_length() - 1
        assert s.mults == bin(e).count("1") - 1
        assert s.precomputation_mults == 0

    def test_mary_window1_is_binary(self):
        e = 0xBEEF
        assert mary_schedule(e, 1).ops == binary_schedule(e).ops

    def test_sliding_reduces_mults(self):
        e = (1 << 128) - 1  # dense
        b = binary_schedule(e)
        s = sliding_window_schedule(e, 4)
        assert s.total_multiplications < b.total_multiplications

    def test_sliding_table_is_odd_only(self):
        s = sliding_window_schedule(0xABCDEF, 4)
        assert s.table_odd_only
        for op in s.ops:
            if op.kind == "mult":
                assert op.index % 2 == 1

    def test_mary_digit_indices_in_range(self):
        w = 3
        s = mary_schedule(0xDEAD, w)
        for op in s.ops:
            if op.kind == "mult":
                assert 1 <= op.index < (1 << w)

    def test_validation(self):
        with pytest.raises(ParameterError):
            binary_schedule(0)
        with pytest.raises(ParameterError):
            mary_schedule(5, 0)


class TestExecution:
    @given(
        odd_modulus(2, 64),
        st.integers(0, 1 << 64),
        st.integers(1, 1 << 32),
        st.integers(1, 5),
    )
    @settings(max_examples=120)
    def test_all_methods_match_pow(self, n, m_raw, e, w):
        ctx = MontgomeryContext(n)
        m = m_raw % n
        ref = pow(m, e, n)
        for maker in (mary_schedule, sliding_window_schedule):
            assert execute_schedule(ctx, maker(e, w), m) == ref

    def test_windowed_modexp_methods(self):
        for method in ("binary", "mary", "sliding"):
            assert windowed_modexp(197, 55, 123, window=3, method=method) == pow(
                55, 123, 197
            )

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            windowed_modexp(197, 5, 3, method="montgomery-ladder")

    def test_schedule_for_names_each_method(self):
        e = 0xBEEF
        assert schedule_for("binary", e, 5) == binary_schedule(e)
        assert schedule_for("mary", e, 3) == mary_schedule(e, 3)
        assert schedule_for("sliding", e, 3) == sliding_window_schedule(e, 3)
        with pytest.raises(ParameterError, match="unknown method"):
            schedule_for("psychic", e, 3)

    def test_exponent_one(self):
        ctx = MontgomeryContext(197)
        assert execute_schedule(ctx, sliding_window_schedule(1, 4), 55) == 55

    def test_power_of_two_exponent(self):
        """All-zero tail: pure squarings after the leading window."""
        ctx = MontgomeryContext(197)
        e = 1 << 20
        s = sliding_window_schedule(e, 4)
        assert s.mults == 0
        assert execute_schedule(ctx, s, 7) == pow(7, e, 197)


class TestOptimalWindow:
    def test_grows_with_exponent_size(self):
        ws = [optimal_window(bits) for bits in (16, 64, 256, 1024, 4096)]
        assert ws == sorted(ws)
        assert ws[0] >= 1 and ws[-1] <= 10

    def test_cost_model_consistent_with_actual(self):
        """The predicted-optimal window is no worse than +5% of the best
        actual window for a random dense exponent."""
        import random

        e = random.Random(3).getrandbits(512) | (1 << 511) | 1
        costs = {
            w: sliding_window_schedule(e, w).total_multiplications
            for w in range(1, 8)
        }
        best = min(costs.values())
        predicted = costs[optimal_window(512)]
        assert predicted <= best * 1.05
