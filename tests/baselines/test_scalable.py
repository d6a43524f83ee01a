"""Tests for the Tenca-Koç scalable architecture model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.scalable import (
    ScalableUnit,
    scalable_mmm_cycles,
    scalable_montgomery,
)
from repro.errors import ParameterError
from repro.montgomery.exponent import chain_length, run_chain
from repro.montgomery.params import MontgomeryContext
from repro.utils.rng import random_odd_modulus

from tests.conftest import odd_modulus


class TestFunctionalModel:
    @given(
        odd_modulus(2, 72),
        st.integers(0, 1 << 80),
        st.integers(0, 1 << 80),
        st.sampled_from([4, 8, 16, 32]),
    )
    @settings(max_examples=150)
    def test_matches_classical_montgomery(self, n, xr, yr, w):
        ctx = MontgomeryContext(n)
        x, y = xr % n, yr % n
        got = scalable_montgomery(ctx, x, y, w)
        assert got == (x * y * pow(1 << ctx.l, -1, n)) % n

    def test_rejects_unreduced(self):
        ctx = MontgomeryContext(11)
        with pytest.raises(ParameterError):
            scalable_montgomery(ctx, 11, 1, 8)

    def test_word_size_independence(self):
        """All word sizes compute the same function."""
        ctx = MontgomeryContext(0xC5)
        outs = {scalable_montgomery(ctx, 100, 150, w) for w in (2, 4, 8, 16, 64)}
        assert len(outs) == 1


class TestLatencyModel:
    def test_more_stages_fewer_cycles(self):
        cycles = [scalable_mmm_cycles(1024, 8, p) for p in (2, 4, 8, 16, 32)]
        assert cycles == sorted(cycles, reverse=True)

    def test_saturates_at_iteration_bound(self):
        """Beyond enough stages the bit loop itself is the bound."""
        big = scalable_mmm_cycles(256, 8, 64)
        bigger = scalable_mmm_cycles(256, 8, 128)
        assert big == bigger

    def test_paper_array_is_faster_but_larger(self):
        """The paper's full array beats any modest scalable config on
        latency; the scalable unit wins on area — the intended trade."""
        from repro.systolic.timing import mmm_cycles

        n_bits = 1024
        unit = ScalableUnit(word=8, stages=16)
        assert mmm_cycles(n_bits) < unit.mmm_cycles(n_bits)
        paper_area_cells = n_bits + 1  # one cell per bit
        assert unit.area_cells < paper_area_cells

    def test_validation(self):
        with pytest.raises(ParameterError):
            scalable_mmm_cycles(0, 8, 4)
        with pytest.raises(ParameterError):
            scalable_mmm_cycles(64, 0, 4)
        with pytest.raises(ParameterError):
            scalable_mmm_cycles(64, 8, 0)


class TestUnit:
    def test_tradeoff_metric(self):
        u = ScalableUnit(word=8, stages=8)
        assert u.speedup_area_tradeoff(512) == u.mmm_cycles(512) * u.area_cells


def _chain_modexp(n: int, base: int, exponent: int, word: int = 8, stages: int = 4):
    """Algorithm 3 over the scalable kernel: ``(value, modelled cycles)``.

    The kernel uses the classical ``R₁ = 2^l`` with operands in ``[0, N)``,
    unlike the array's ``R = 2^(l+2)`` over ``[0, 2N)``; the one schedule
    takes ``R₁² mod N`` for its conversion.
    """
    ctx = MontgomeryContext(n)
    r1 = (1 << ctx.l) % n
    cycles = 0

    def mont(_kind, x, y):
        nonlocal cycles
        cycles += scalable_mmm_cycles(ctx.l, word, stages)
        product = scalable_montgomery(ctx, x, y, word)
        assert 0 <= product < n
        return product

    return run_chain(mont, base, exponent, r1 * r1 % n) % n, cycles


def _vectors():
    """Four seeded 56-bit vectors plus the 64-bit vector every factor-free
    serving backend shares (``tests/serving/test_equivalence.py``)."""
    rng = random.Random("equivalence:scalable")
    for _ in range(4):
        n = random_odd_modulus(56, rng)
        yield n, rng.randrange(n), rng.randrange(1, n)
    rng = random.Random(2003)
    n = random_odd_modulus(64, rng)
    yield n, rng.randrange(n), rng.randrange(1, n)


class TestAlgorithm3Chain:
    def test_chain_matches_builtin_pow(self):
        for n, base, exponent in _vectors():
            assert _chain_modexp(n, base, exponent)[0] == pow(base, exponent, n)

    def test_chain_cycles_count_the_schedule(self):
        for n, base, exponent in _vectors():
            per_mmm = scalable_mmm_cycles(n.bit_length(), 8, 4)
            assert _chain_modexp(n, base, exponent)[1] == per_mmm * chain_length(
                exponent
            )
