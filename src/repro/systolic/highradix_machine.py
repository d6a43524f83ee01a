"""A cycle-accurate high-radix (2^α) Montgomery machine.

Section 2 discusses the high-radix alternative (Blum–Paar [4], iteration
count ``⌈(l+2)/α⌉`` from [1]) only as a design point; this module makes
it executable so the radix ablation can *measure* cycles instead of
assuming them.

Machine organization (word-parallel, digit-serial — the standard
high-radix Montgomery datapath):

* operands live in full-width registers; each cycle consumes one α-bit
  digit ``x_i`` of X;
* the quotient digit needs the precomputed ``N' = -N^{-1} mod 2^α``
  (for α = 1 this is constant 1, which is why the paper's radix-2 cell
  needs no quotient multiplier — the cost being modeled here);
* per cycle: ``q = ((T + x_i·Y) mod 2^α)·N' mod 2^α`` then
  ``T ← (T + x_i·Y + q·N) / 2^α``;
* ``⌈(l+2)/α⌉`` datapath cycles keep the Walter window: inputs and
  outputs in ``[0, 2N)``, no final subtraction (R = 2^(α·iterations) ≥
  2^(l+2) > 4N).

The machine reports its measured cycle count and the two digit
multiplications (x_i·Y and q·N are full-width-by-digit products) per
cycle, from which the cell-complexity model prices the clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError, SimulationError
from repro.montgomery.exponent import chain_length
from repro.montgomery.params import MontgomeryContext
from repro.utils.validation import ensure_positive

__all__ = ["HighRadixMachine", "HighRadixRun"]


@dataclass(frozen=True)
class HighRadixRun:
    """Outcome of one high-radix multiplication."""

    result: int
    cycles: int
    digit_products: int  # full-width × digit multiplications issued


class HighRadixMachine:
    """Digit-serial radix-2^α Montgomery multiplier, cycle-accurate.

    Parameters
    ----------
    ctx:
        Montgomery context built with ``word_bits=α`` (it fixes the digit
        count and R so the no-subtraction window holds).
    """

    def __init__(self, ctx: MontgomeryContext) -> None:
        if ctx.word_bits < 1:
            raise ParameterError("alpha must be >= 1")
        self.ctx = ctx
        self.alpha = ctx.word_bits
        self.base = 1 << self.alpha
        self.mask = self.base - 1
        self.n_prime = ctx.n_prime
        self.t = 0
        self.x_shift = 0
        self.cycle = 0
        self._digit_products = 0

    @property
    def datapath_cycles(self) -> int:
        """⌈(l·1 + 2)/α⌉ digits — the Section 2 iteration count."""
        return self.ctx.iterations

    def load(self, x: int, y: int) -> None:
        self.ctx.check_operand("x", x)
        self.ctx.check_operand("y", y)
        self.t = 0
        self.x_shift = x
        self._y = y
        self.cycle = 0
        self._digit_products = 0

    def step(self) -> None:
        x_i = self.x_shift & self.mask
        s = self.t + x_i * self._y
        self._digit_products += 1
        q = ((s & self.mask) * self.n_prime) & self.mask
        s = s + q * self.ctx.modulus
        self._digit_products += 1
        if s & self.mask:
            raise SimulationError("quotient digit failed to clear the low digit")
        self.t = s >> self.alpha
        self.x_shift >>= self.alpha
        self.cycle += 1

    def multiply(self, x: int, y: int) -> HighRadixRun:
        """One multiplication: ``x·y·2^{-α·iterations} mod 2N``."""
        self.load(x, y)
        for _ in range(self.datapath_cycles):
            self.step()
        if self.t >= 2 * self.ctx.modulus:
            raise SimulationError("window violated — context inconsistent")
        return HighRadixRun(
            result=self.t,
            cycles=self.cycle + 1,  # +1 OUT/load, matching the radix-2 count
            digit_products=self._digit_products,
        )

    # ------------------------------------------------------------------
    def exponentiation_cycles(self, exponent: int) -> int:
        """Square-and-multiply cycles at this radix (pre/post included)."""
        ensure_positive("exponent", exponent)
        return chain_length(exponent) * (self.datapath_cycles + 1)
