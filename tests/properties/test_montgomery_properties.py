"""Property-based tests of the core Montgomery invariants (hypothesis).

These are the load-bearing mathematical facts the whole system rests on;
each is stated as a universally-quantified property over random parameter
sets rather than examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.montgomery.algorithms import (
    montgomery_no_subtraction,
    montgomery_reduce,
    montgomery_trace,
    montgomery_with_subtraction,
)
from repro.montgomery.params import MontgomeryContext

from tests.conftest import context_and_operands, odd_modulus


class TestDefiningProperties:
    @given(context_and_operands())
    @settings(max_examples=300)
    def test_output_is_xy_rinv_mod_n(self, cxy):
        ctx, x, y = cxy
        t = montgomery_no_subtraction(ctx, x, y)
        assert (t * ctx.R) % ctx.modulus == (x * y) % ctx.modulus

    @given(context_and_operands())
    @settings(max_examples=300)
    def test_window_invariant(self, cxy):
        """[0, 2N) is closed under Mont — Walter's theorem, instantiated."""
        ctx, x, y = cxy
        assert 0 <= montgomery_no_subtraction(ctx, x, y) < 2 * ctx.modulus

    @given(context_and_operands())
    @settings(max_examples=100)
    def test_commutativity(self, cxy):
        ctx, x, y = cxy
        assert montgomery_no_subtraction(ctx, x, y) == montgomery_no_subtraction(
            ctx, y, x
        )

    @given(context_and_operands())
    @settings(max_examples=100)
    def test_identity_element_is_r(self, cxy):
        """Mont(x, R mod N) ≡ x (mod N): R is the domain's 1."""
        ctx, x, _ = cxy
        t = montgomery_no_subtraction(ctx, x, ctx.r_mod_n % (2 * ctx.modulus))
        assert t % ctx.modulus == x % ctx.modulus

    @given(context_and_operands())
    @settings(max_examples=100)
    def test_zero_annihilates(self, cxy):
        ctx, x, _ = cxy
        assert montgomery_no_subtraction(ctx, x, 0) == 0


class TestChaining:
    @given(context_and_operands(), st.integers(1, 6))
    @settings(max_examples=80)
    def test_window_closed_under_iteration(self, cxy, depth):
        """Feeding outputs back as inputs `depth` times never escapes the
        window and tracks the expected congruence — the exponentiator's
        whole operating principle."""
        ctx, x, y = cxy
        n = ctx.modulus
        t = x
        expected = x % n
        r_inv = ctx.r_inverse
        for _ in range(depth):
            t = montgomery_no_subtraction(ctx, t, y)
            expected = (expected * y * r_inv) % n
            assert 0 <= t < 2 * n
        assert t % n == expected


class TestAlgorithmRelations:
    @given(context_and_operands())
    @settings(max_examples=150)
    def test_alg1_alg2_congruent(self, cxy):
        """Algorithm 1 (R1 = 2^l, reduced output) and Algorithm 2
        (R = 2^(l+2)) differ by exactly a factor 4 in the domain."""
        ctx, x, y = cxy
        n = ctx.modulus
        xr, yr = x % n, y % n
        a1 = montgomery_with_subtraction(ctx, xr, yr)
        a2 = montgomery_no_subtraction(ctx, xr, yr)
        # a1 = xy·2^-l, a2 = xy·2^-(l+2)  =>  a1 ≡ 4·a2 (mod N).
        assert a1 % n == (4 * a2) % n

    @given(context_and_operands())
    @settings(max_examples=100)
    def test_trace_consistent_with_result(self, cxy):
        ctx, x, y = cxy
        t, steps = montgomery_trace(ctx, x, y)
        assert steps[-1].t_after == t
        assert len(steps) == ctx.l + 2

    @given(context_and_operands())
    @settings(max_examples=100)
    def test_m_bits_force_even_sums(self, cxy):
        """m_i is precisely the parity fix: T + x_i·y + m_i·N is even."""
        ctx, x, y = cxy
        _, steps = montgomery_trace(ctx, x, y)
        t_prev = 0
        for s in steps:
            assert (t_prev + s.x_digit * y + s.m_digit * ctx.modulus) % 2 == 0
            t_prev = s.t_after


class TestReduction:
    @given(context_and_operands())
    @settings(max_examples=150)
    def test_reduce_idempotent_representation(self, cxy):
        """enter -> reduce round-trips every residue."""
        ctx, x, _ = cxy
        n = ctx.modulus
        v = x % n
        entered = montgomery_no_subtraction(ctx, v, ctx.r2_mod_n)
        assert montgomery_reduce(ctx, entered) == v


class TestOneSchedule:
    """Every GF(p) exponentiator drives one Algorithm 3 chain."""

    @given(odd_modulus(2, 512), st.integers(min_value=0), st.integers(1, 1 << 64))
    @settings(max_examples=60, deadline=None)
    def test_chain_is_algorithm3_for_every_exponentiator(self, n, m_raw, e):
        from unittest import mock

        import repro.systolic.exponentiator as exponentiator_mod
        from repro.montgomery.exponent import (
            chain_length,
            montgomery_modexp,
            run_chain,
        )
        from repro.serving.backends import _square_multiply
        from repro.systolic.timing import (
            exponentiation_cycles_measured_model,
            mmm_cycles_corrected,
        )

        ctx = MontgomeryContext(n)
        m = m_raw % n

        def recorder(ops):
            def mont(*op):
                ops.append(op)
                return montgomery_no_subtraction(ctx, *op[-2:])

            return mont

        # Driven with Algorithm 2, the chain is pow().
        ops = []
        assert run_chain(recorder(ops), m, e, ctx.r2_mod_n) % n == pow(m, e, n)

        # Exactly chain_length(e) operations, as the Eq. (10) model counts.
        kinds = [kind for kind, _, _ in ops]
        model = exponentiation_cycles_measured_model(ctx.l, e)
        assert len(ops) == chain_length(e)
        assert kinds[0] == "pre" and kinds[-1] == "post"
        assert kinds.count("pre") == kinds.count("post") == 1
        assert kinds.count("square") == e.bit_length() - 1 == model.squares
        assert kinds.count("multiply") == bin(e).count("1") - 1 == model.multiplies
        assert model.total == chain_length(e) * mmm_cycles_corrected(ctx.l)

        # The golden engine calls Algorithm 2 through its module global.
        operands = []
        spy = lambda c, x, y: recorder(operands)(x, y)  # noqa: E731
        with mock.patch.object(exponentiator_mod, "montgomery_no_subtraction", spy):
            golden_engine = exponentiator_mod.ModularExponentiator(ctx, engine="golden")
            run = golden_engine.exponentiate(m, e)
        assert run.result == pow(m, e, n)
        assert len(run.operations) == len(operands)
        golden = [(kind, x, y) for (kind, _), (x, y) in zip(run.operations, operands)]
        assert golden == ops

        value, trace = montgomery_modexp(ctx, m, e)
        assert value == pow(m, e, n)
        assert [(op.kind, op.x, op.y) for op in trace.operations] == ops

        # _square_multiply's multiplier sees operands only, in chain order.
        pairs = []
        value = _square_multiply(recorder(pairs), ctx.r2_mod_n, m, e, n)
        assert value % n == pow(m, e, n)
        assert pairs == [(x, y) for _, x, y in ops]
