"""The Blum–Paar radix-2 comparison point [3].

Section 2 of the paper claims two advantages over Blum–Paar's 1999
systolic Montgomery exponentiator:

1. **bound** — Blum–Paar use ``R = 2^(l+3)``, i.e. ``l+3`` loop
   iterations, plus "an extra step in the main algorithm"; the paper's
   ``4N < R = 2^(l+2)`` needs only ``l+2`` iterations;
2. **cell latency** — Blum–Paar's u-bit cells carry 3-bit control
   registers and complex multiplexers, lowering the achievable clock
   frequency relative to the paper's purely combinational 1-bit cells.

This module provides the algorithmic model (a radix-2 Montgomery loop run
``l+3`` times, correctness-tested like Algorithm 2) and the cycle/clock
model used by the bound-ablation benchmark.  The clock-penalty factor is a
documented parameter: Blum–Paar [3] report ~45.6 MHz on a Xilinx XC40250XV
for their pipelined design vs. the ~100 MHz class of this paper's cells;
device differences make an exact factor unknowable, so the benchmark
reports cycle counts (exact) separately from wall-clock (model).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError
from repro.montgomery.algorithms import montgomery_loop
from repro.montgomery.exponent import chain_length
from repro.montgomery.params import MontgomeryContext
from repro.utils.validation import ensure_positive

__all__ = [
    "blum_paar_montgomery",
    "blum_paar_mmm_cycles",
    "blum_paar_exponentiation_cycles",
    "BlumPaarModel",
]


def blum_paar_montgomery(ctx: MontgomeryContext, x: int, y: int) -> int:
    """Radix-2 Montgomery product with ``R' = 2^(l+3)`` (l+3 iterations).

    Returns ``x·y·2^{-(l+3)} mod 2N`` for ``x, y ∈ [0, 2N)``.  The larger
    R keeps the no-subtraction window with margin; the cost is the extra
    iteration the paper's Section 2 counts against it.
    """
    ctx.check_operand("x", x)
    ctx.check_operand("y", y)
    return montgomery_loop(x, y, ctx.modulus, ctx.l + 3)


def blum_paar_mmm_cycles(l: int) -> int:
    """Latency of one multiplication in the R = 2^(l+3) design: ``3l + 6``.

    One extra row costs two issue cycles on the same linear array
    (the paper's ``3l+4`` plus 2).
    """
    ensure_positive("l", l)
    return 3 * l + 6


def blum_paar_exponentiation_cycles(l: int, exponent: int) -> int:
    """Square-and-multiply cycles with the Blum–Paar per-mult latency.

    Uses the same pre/post structure as the paper's accounting so the
    comparison isolates the per-multiplication difference.
    """
    ensure_positive("l", l)
    if exponent <= 0:
        raise ParameterError(f"exponent must be >= 1, got {exponent}")
    # pre + loop + post, all full multiplications in their design.
    return chain_length(exponent) * blum_paar_mmm_cycles(l)


@dataclass(frozen=True)
class BlumPaarModel:
    """Wall-clock model combining cycles with the cell-latency penalty.

    ``clock_penalty`` scales the clock period relative to this paper's
    cells (>= 1).  The default 1.35 reflects the 3-bit control registers
    and 4-way multiplexers on the Blum–Paar critical path (roughly one
    extra LUT level on a 3-level path); the ablation benchmark sweeps it.
    """

    l: int
    clock_penalty: float = 1.35

    def mmm_time_ns(self, base_tp_ns: float) -> float:
        return blum_paar_mmm_cycles(self.l) * base_tp_ns * self.clock_penalty

    def exponentiation_time_ns(self, base_tp_ns: float, exponent: int) -> float:
        return (
            blum_paar_exponentiation_cycles(self.l, exponent)
            * base_tp_ns
            * self.clock_penalty
        )
