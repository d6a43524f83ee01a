"""Unit + property tests for Algorithms 1 and 2."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.montgomery.algorithms import (
    montgomery_loop,
    montgomery_no_subtraction,
    montgomery_reduce,
    montgomery_trace,
    montgomery_with_subtraction,
)
from repro.montgomery.params import MontgomeryContext

from tests.conftest import context_and_operands, odd_modulus


class TestAlgorithm2:
    """montgomery_no_subtraction — the paper's core algorithm."""

    def test_known_value(self):
        ctx = MontgomeryContext(11)  # l=4, R=2^6=64
        # Mont(3, 5) = 3*5*64^-1 mod 11; 64^-1 mod 11: 64 ≡ 9, 9*5=45≡1 → 5.
        assert montgomery_no_subtraction(ctx, 3, 5) % 11 == (3 * 5 * 5) % 11

    def test_zero_operand(self):
        ctx = MontgomeryContext(11)
        assert montgomery_no_subtraction(ctx, 0, 17) == 0
        assert montgomery_no_subtraction(ctx, 17, 0) == 0

    def test_rejects_out_of_window(self):
        ctx = MontgomeryContext(11)
        with pytest.raises(ParameterError):
            montgomery_no_subtraction(ctx, 22, 1)
        with pytest.raises(ParameterError):
            montgomery_no_subtraction(ctx, 1, -1)

    def test_rejects_word_base(self):
        ctx = MontgomeryContext(11, word_bits=4)
        with pytest.raises(ParameterError):
            montgomery_no_subtraction(ctx, 1, 1)

    @given(context_and_operands())
    @settings(max_examples=300)
    def test_congruence_and_window(self, cxy):
        """The two defining properties: T ≡ xyR^-1 (mod N) and T < 2N."""
        ctx, x, y = cxy
        t = montgomery_no_subtraction(ctx, x, y)
        n = ctx.modulus
        assert 0 <= t < 2 * n
        assert t % n == (x * y * ctx.r_inverse) % n

    @given(context_and_operands())
    @settings(max_examples=150)
    def test_closure_feeds_back(self, cxy):
        """Outputs are valid inputs: the whole point of the bound."""
        ctx, x, y = cxy
        t1 = montgomery_no_subtraction(ctx, x, y)
        t2 = montgomery_no_subtraction(ctx, t1, t1)  # no reduction between
        assert 0 <= t2 < 2 * ctx.modulus

    def test_worst_case_corner(self):
        """x = y = 2N-1, the corner of the operand window."""
        for n in (3, 11, 197, (1 << 31) - 1):
            ctx = MontgomeryContext(n)
            t = montgomery_no_subtraction(ctx, 2 * n - 1, 2 * n - 1)
            assert t < 2 * n


class TestAlgorithm1:
    """montgomery_with_subtraction — the classical form."""

    @given(context_and_operands())
    @settings(max_examples=200)
    def test_classical_postcondition(self, cxy):
        ctx, x, y = cxy
        n = ctx.modulus
        x, y = x % n, y % n
        t = montgomery_with_subtraction(ctx, x, y)
        l_digits = -(-ctx.l // ctx.word_bits)
        r1 = (1 << ctx.word_bits) ** l_digits
        assert 0 <= t < n
        assert t == (x * y * pow(r1, -1, n)) % n

    def test_word_base_variants_agree_mod_n(self):
        n = 0xF1FB  # odd
        x, y = 1234, 56789 % n
        for alpha in (1, 2, 4, 8):
            ctx = MontgomeryContext(n, word_bits=alpha)
            t = montgomery_with_subtraction(ctx, x, y)
            l_digits = -(-ctx.l // alpha)
            r1 = (1 << alpha) ** l_digits
            assert t == (x * y * pow(r1, -1, n)) % n

    def test_rejects_unreduced_input(self):
        ctx = MontgomeryContext(11)
        with pytest.raises(ParameterError):
            montgomery_with_subtraction(ctx, 11, 1)


class TestTrace:
    def test_trace_matches_result(self):
        ctx = MontgomeryContext(197)
        t, steps = montgomery_trace(ctx, 300, 150)
        assert t == montgomery_no_subtraction(ctx, 300, 150)
        assert len(steps) == ctx.iterations
        assert steps[-1].t_after == t

    def test_trace_x_digits(self):
        ctx = MontgomeryContext(197)
        x = 0b1011001
        _, steps = montgomery_trace(ctx, x, 5)
        assert [s.x_digit for s in steps] == [(x >> i) & 1 for i in range(ctx.iterations)]

    @given(context_and_operands(2, 48))
    @settings(max_examples=100)
    def test_step_recurrence(self, cxy):
        """Each step obeys T_i = (T_{i-1} + x_i y + m_i N) / 2 exactly."""
        ctx, x, y = cxy
        _, steps = montgomery_trace(ctx, x, y)
        prev = 0
        for s in steps:
            total = prev + s.x_digit * y + s.m_digit * ctx.modulus
            assert total % 2 == 0, "m_i must make the sum even"
            assert s.t_after == total // 2
            prev = s.t_after


class TestMontgomeryLoop:
    """The one raw radix-2 recurrence every multiplier runs."""

    @given(context_and_operands(2, 96), st.integers(0, 100))
    @settings(max_examples=200)
    def test_any_iteration_count(self, cxy, iterations):
        """``k`` iterations consume the low ``k`` bits of x and compute
        ``x·y·2^-k mod N`` — the l (Algorithm 1), l+2 (Algorithm 2), l+3
        (Blum–Paar) and probe-r multipliers alike."""
        ctx, x, y = cxy
        n = ctx.modulus
        t = montgomery_loop(x, y, n, iterations)
        x_low = x & ((1 << iterations) - 1)
        assert (t << iterations) % n == (x_low * y) % n

    @given(context_and_operands(2, 64))
    @settings(max_examples=100)
    def test_is_algorithm2_and_its_trace(self, cxy):
        ctx, x, y = cxy
        steps = []
        t = montgomery_loop(x, y, ctx.modulus, ctx.iterations, steps)
        assert t == montgomery_no_subtraction(ctx, x, y)
        assert (t, steps) == montgomery_trace(ctx, x, y)


class TestMontgomeryReduce:
    @given(context_and_operands())
    @settings(max_examples=150)
    def test_reduce_leaves_domain(self, cxy):
        """Mont(T, 1) lands in [0, N) and strips the R factor."""
        ctx, x, _ = cxy
        reduced = montgomery_reduce(ctx, x)
        assert 0 <= reduced < ctx.modulus
        assert reduced == (x * ctx.r_inverse) % ctx.modulus

    def test_paper_bound_mont_t_1_le_n(self):
        """Section 3: Mont(T, 1) <= N for T < 2N (never raises)."""
        for n in (3, 11, 197, 65535 + 2):
            ctx = MontgomeryContext(n)
            for t in (0, 1, n - 1, n, 2 * n - 1):
                montgomery_reduce(ctx, t)
