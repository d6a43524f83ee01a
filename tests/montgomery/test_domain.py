"""Tests for the MontgomeryDomain wrapper."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError, SimulationError
from repro.montgomery.domain import MontgomeryDomain
from repro.montgomery.params import MontgomeryContext

from tests.conftest import odd_modulus


class TestConversions:
    @given(odd_modulus(2, 64), st.integers(0, 1 << 128))
    @settings(max_examples=150)
    def test_enter_leave_roundtrip(self, n, raw):
        dom = MontgomeryDomain(n)
        v = raw % n
        assert dom.leave(dom.enter(v)) == v

    def test_enter_rejects_unreduced(self):
        dom = MontgomeryDomain(11)
        with pytest.raises(ParameterError):
            dom.enter(11)

    def test_accepts_prebuilt_context(self):
        ctx = MontgomeryContext(197)
        dom = MontgomeryDomain(ctx)
        assert dom.ctx is ctx


class TestArithmetic:
    @given(odd_modulus(2, 64), st.integers(0, 1 << 64), st.integers(0, 1 << 64))
    @settings(max_examples=150)
    def test_mul_matches_integers(self, n, a_raw, b_raw):
        dom = MontgomeryDomain(n)
        a, b = a_raw % n, b_raw % n
        assert dom.leave(dom.mul(dom.enter(a), dom.enter(b))) == (a * b) % n

    @given(odd_modulus(2, 64), st.integers(0, 1 << 64), st.integers(0, 1 << 64))
    @settings(max_examples=100)
    def test_add_sub(self, n, a_raw, b_raw):
        dom = MontgomeryDomain(n)
        a, b = a_raw % n, b_raw % n
        da, db = dom.enter(a), dom.enter(b)
        assert dom.leave(dom.add(da, db)) == (a + b) % n
        assert dom.leave(dom.sub(da, db)) == (a - b) % n

    def test_square(self):
        dom = MontgomeryDomain(197)
        assert dom.leave(dom.square(dom.enter(14))) == (14 * 14) % 197

    @given(odd_modulus(2, 48), st.integers(0, 1 << 48), st.integers(0, 4096))
    @settings(max_examples=100)
    def test_exp(self, n, base_raw, e):
        dom = MontgomeryDomain(n)
        base = base_raw % n
        assert dom.leave(dom.exp(dom.enter(base), e)) == pow(base, e, n)

    def test_exp_zero_is_one(self):
        dom = MontgomeryDomain(197)
        assert dom.leave(dom.exp(dom.enter(5), 0)) == 1

    def test_inverse_prime_modulus(self):
        dom = MontgomeryDomain(197)
        for v in (1, 2, 99, 196):
            inv = dom.inverse(dom.enter(v))
            assert dom.leave(dom.mul(dom.enter(v), inv)) == 1

    def test_inverse_non_invertible(self):
        dom = MontgomeryDomain(15)
        with pytest.raises(ParameterError):
            dom.inverse(dom.enter(5))

    def test_equals_mod_n(self):
        """Domain values are canonical only mod N (window is 2N wide)."""
        dom = MontgomeryDomain(11)
        a = dom.enter(5)
        assert dom.equals(a, a + 11) or dom.equals(a, a)  # representative shift

    def test_mult_count_tracks(self):
        dom = MontgomeryDomain(197)
        before = dom.mult_count
        dom.mul(dom.enter(3), dom.enter(4))
        assert dom.mult_count >= before + 3  # two enters + one mul


class TestEngineSubstitution:
    def test_custom_multiplier_used(self):
        """The multiplier hook lets hardware models slot underneath."""
        calls = []

        def spy(ctx, x, y):
            calls.append((x, y))
            from repro.montgomery.algorithms import montgomery_no_subtraction

            return montgomery_no_subtraction(ctx, x, y)

        dom = MontgomeryDomain(197, multiplier=spy)
        dom.mul(dom.enter(3), dom.enter(4))
        assert calls

    def test_leave_checks_paper_bound_on_injected_multiplier(self):
        """Mont(T, 1) <= N is checked on the injected engine too: a
        multiplier returning T in (N, 2N) for the de-conversion must fail
        loudly, not be silently reduced mod N."""
        from repro.montgomery.algorithms import montgomery_no_subtraction

        def off_by_n(ctx, x, y):
            t = montgomery_no_subtraction(ctx, x, y)
            return t + ctx.modulus if y == 1 else t

        dom = MontgomeryDomain(197, multiplier=off_by_n)
        with pytest.raises(SimulationError, match="exceeded N"):
            dom.leave(dom.enter(5))
