"""Tests for the overlapped-issue scheduler."""

import pytest

from repro.errors import ParameterError
from repro.montgomery.exponent import chain_length
from repro.systolic.pipeline import (
    IssuePlanner,
    exponentiation_cycles_overlapped,
    issue_interval,
    precomputation_overlapped,
)
from repro.systolic.timing import (
    exponentiation_cycles_measured_model,
    precomputation_cycles,
)


class TestIssueIntervals:
    def test_values(self):
        l = 64
        assert issue_interval(l, "independent") == 2 * (l + 2) + 1
        assert issue_interval(l, "stream_x") == 2 * l + 3
        assert issue_interval(l, "full_drain") == 3 * l + 4

    def test_ordering(self):
        """Streamed issue is tightest; full drain loosest."""
        l = 128
        assert (
            issue_interval(l, "stream_x")
            < issue_interval(l, "independent")
            < issue_interval(l, "full_drain")
        )

    def test_stream_x_never_starves(self):
        """Result bit b at 2l+3+b; consumer bit i at start + 2i.  At the
        tightest start the producer is always ahead."""
        l = 32
        start = issue_interval(l, "stream_x")
        for i in range(l + 1):
            produced_at = 2 * l + 3 + i
            needed_at = start + 2 * i
            assert produced_at <= needed_at

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            issue_interval(8, "psychic")


class TestPlanner:
    def test_empty(self):
        assert IssuePlanner(8).total_cycles() == 0

    def test_single_op_is_full_multiplication(self):
        p = IssuePlanner(8).add("independent")
        assert p.total_cycles() == 3 * 8 + 4

    def test_chain_of_drains_equals_serial(self):
        l, k = 16, 5
        p = IssuePlanner(l)
        for _ in range(k):
            p.add("full_drain")
        assert p.total_cycles() == k * (3 * l + 4)

    def test_streaming_saves_per_op(self):
        l = 16
        serial = IssuePlanner(l).extend(["full_drain"] * 4).total_cycles()
        streamed = (
            IssuePlanner(l)
            .extend(["full_drain", "stream_x", "full_drain", "stream_x"])
            .total_cycles()
        )
        assert streamed == serial - 2 * (l + 1)


class TestPaperPrecomputation:
    def test_formula_recovered(self):
        """The paper's 5l+10 is two independent issues plus an l-drain —
        the pipelined reading our planner supports to within its ±1
        register-swap convention."""
        for l in (32, 1024):
            assert precomputation_overlapped(l) == precomputation_cycles(l)
            planner = IssuePlanner(l).extend(["independent", "independent"])
            assert abs(planner.total_cycles() - precomputation_overlapped(l)) <= 1


class TestExponentiation:
    def test_overlap_saves_on_multiplies_only(self):
        l = 64
        e_sparse = 1 << 40  # squarings only: nothing to overlap
        ov, nov = exponentiation_cycles_overlapped(l, e_sparse)
        assert nov - ov == 0 or nov - ov == 0  # no stream_x ops
        assert ov == nov
        e_dense = (1 << 40) - 1
        ov2, nov2 = exponentiation_cycles_overlapped(l, e_dense)
        saving = nov2 - ov2
        # one (l+1)-cycle saving per multiply op
        assert saving == 39 * (l + 1)

    def test_saving_fraction_about_one_sixth(self):
        """Balanced exponent: multiplies are 1/3 of ops, each saving
        ~(l+1)/(3l+4) ≈ 1/3 of its cost → ~11% total."""
        import random

        l = 512
        e = random.Random(1).getrandbits(l) | (1 << (l - 1)) | 1
        ov, nov = exponentiation_cycles_overlapped(l, e)
        assert 0.07 <= (nov - ov) / nov <= 0.15

    def test_validation(self):
        with pytest.raises(ParameterError):
            exponentiation_cycles_overlapped(8, 0)


def _hand_scan_overlapped(l, exponent):
    """Frozen oracle: the MSB-first scan the overlapped model used before
    it issued :func:`~repro.montgomery.exponent.modexp_chain` directly."""
    planner = IssuePlanner(l)
    planner.add("independent")  # pre: Mont(M, R^2), operands known
    for i in reversed(range(exponent.bit_length() - 1)):
        planner.add("full_drain")  # square: needs A in parallel
        if (exponent >> i) & 1:
            planner.add("stream_x")  # multiply: A streams in, M-bar stands
    planner.add("full_drain")  # post: Mont(A, 1)
    return planner.total_cycles(), planner.operations * (3 * l + 4)


class TestScheduleCostExhaustive:
    """Every exponent below 2^12: each cost model counts the one schedule."""

    EXPONENTS = range(1, 1 << 12)

    @pytest.mark.parametrize("l", [4, 16, 64])
    def test_overlapped_matches_hand_scan_oracle(self, l):
        for e in self.EXPONENTS:
            assert exponentiation_cycles_overlapped(l, e) == _hand_scan_overlapped(l, e), e

    @pytest.mark.parametrize("l", [4, 16, 64])
    def test_costs_are_chain_length_times_latency(self, l):
        for e in self.EXPONENTS:
            _, non_overlapped = exponentiation_cycles_overlapped(l, e)
            assert non_overlapped == chain_length(e) * (3 * l + 4), e
            measured = exponentiation_cycles_measured_model(l, e).total
            assert measured == chain_length(e) * (3 * l + 5), e
