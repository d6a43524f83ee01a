"""Tests for the side-channel trace analysis (Section 5 claim)."""

import random

import pytest

from repro.analysis.sidechannel import (
    leakage_summary,
    subtraction_trace,
    timing_histogram,
)
from repro.errors import ParameterError
from repro.montgomery.exponent import chain_length


class TestSubtractionTrace:
    def test_result_correct(self):
        tr = subtraction_trace(197, 55, 123)
        assert tr.result == pow(55, 123, 197)

    def test_one_flag_per_multiplication(self):
        e = 0b1011
        tr = subtraction_trace(197, 5, e)
        # pre + squares + multiplies + post.
        expected = 2 + (e.bit_length() - 1) + (bin(e).count("1") - 1)
        assert len(tr.subtractions) == expected == chain_length(e)

    def test_subtractions_actually_occur(self):
        """Algorithm 1's leak is real: across random operands, some
        multiplications subtract and some do not."""
        rng = random.Random(1)
        n = 251
        saw_true = saw_false = False
        for _ in range(20):
            tr = subtraction_trace(n, rng.randrange(n), rng.randrange(1, 1 << 16))
            saw_true |= any(tr.subtractions)
            saw_false |= not all(tr.subtractions)
        assert saw_true and saw_false

    def test_validation(self):
        with pytest.raises(ParameterError):
            subtraction_trace(197, 197, 3)
        with pytest.raises(ParameterError):
            subtraction_trace(197, 1, 0)


class TestTimingHistogram:
    def test_two_classes_for_alg1(self):
        rng = random.Random(2)
        tr = subtraction_trace(251, rng.randrange(251), 0xBEEF)
        hist = timing_histogram(tr)
        assert 1 <= len(hist) <= 2
        assert sum(hist.values()) == len(tr.subtractions)

    def test_penalty_separates_classes(self):
        tr = subtraction_trace(251, 123, 0xABC)
        hist = timing_histogram(tr, subtraction_penalty=7)
        costs = sorted(hist)
        if len(costs) == 2:
            assert costs[1] - costs[0] == 7


class TestLeakageSummary:
    def test_alg1_exhibits_variance(self):
        rng = random.Random(3)
        traces = [
            subtraction_trace(251, rng.randrange(251), rng.randrange(1, 1 << 20))
            for _ in range(12)
        ]
        s = leakage_summary(traces)
        assert s["mean_leak_fraction"] > 0
        assert s["leak_count_variance"] > 0
        assert s["timing_classes"] == 2

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            leakage_summary([])
