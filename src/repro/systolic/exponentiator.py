"""The modular exponentiator of Section 4.5, built on the MMMC.

:class:`ModularExponentiator` realizes Algorithm 3 by issuing Montgomery
multiplications to an engine:

* ``engine="rtl"`` — every multiplication runs through the cycle-accurate
  :class:`~repro.systolic.mmmc.MMMC`; total cycles are measured.
* ``engine="gate"`` — every multiplication runs through the gate-level
  netlist twin (:class:`~repro.systolic.mmmc_netlist.GateLevelMMMC`) on
  the compiled kernel engine; cycles are measured at the netlist level
  and provably equal the behavioral RTL count.
* ``engine="golden"`` — multiplications use the big-integer Algorithm 2
  while cycle accounting uses the RTL cost (``3l+4`` per operation, which
  the test suite proves identical to the measured RTL count).  This makes
  RSA-scale benchmarks tractable without changing any reported number.

The operation sequence is exactly the paper's, the shared Algorithm 3
schedule :func:`~repro.montgomery.exponent.modexp_chain`:
pre-multiplication by ``R² mod N`` (into the Montgomery domain), the
left-to-right binary scan, and the final multiplication by 1 (out of the
domain; ``Mont(A, 1) <= N``).  No intermediate
value is ever reduced — everything lives in the ``[0, 2N)`` window, which
is the point of the no-subtraction bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import ParameterError
from repro.montgomery.algorithms import montgomery_no_subtraction
from repro.montgomery.exponent import run_chain
from repro.montgomery.params import MontgomeryContext
from repro.observability import OBS
from repro.systolic.mmmc import MMMC
from repro.systolic.timing import (
    exponentiation_cycles_measured_model,
    mmm_cycles,
    mmm_cycles_corrected,
)

__all__ = ["ModularExponentiator", "ExponentiationRun"]


@dataclass
class ExponentiationRun:
    """Result and measured costs of one exponentiation."""

    result: int
    cycles: int
    operations: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def num_multiplications(self) -> int:
        return len(self.operations)


class ModularExponentiator:
    """Square-and-multiply exponentiator over a systolic Montgomery multiplier.

    Parameters
    ----------
    ctx:
        Montgomery parameter context (fixes N, l, R = 2^(l+2), R² mod N).
    engine:
        ``"rtl"`` (cycle-accurate behavioral hardware model), ``"gate"``
        (gate-level netlist twin on compiled kernels) or ``"golden"``
        (big-integer arithmetic with the RTL cycle accounting).
    """

    def __init__(
        self,
        ctx: MontgomeryContext,
        engine: str = "rtl",
        *,
        mode: str = "corrected",
    ) -> None:
        if engine not in ("rtl", "gate", "golden"):
            raise ParameterError(f"unknown engine {engine!r}")
        self.ctx = ctx
        self.engine = engine
        self.mode = mode
        if engine == "golden":
            self.mmmc = None
        elif engine == "gate":
            from repro.systolic.mmmc_netlist import GateLevelMMMC

            self.mmmc = GateLevelMMMC(ctx.l, mode=mode, simulator="compiled")
        else:
            self.mmmc = MMMC(ctx.l, mode=mode)
        self.cycles = 0

    @classmethod
    def for_modulus(
        cls,
        modulus: int,
        *,
        engine: str = "golden",
        mode: str = "corrected",
        l: int = 0,
    ) -> "ModularExponentiator":
        """Exponentiator over the shared cached parameter set for ``modulus``.

        Goes through
        :func:`~repro.montgomery.params.precompute_montgomery_constants`,
        so repeated constructions for the same modulus (the serving layer's
        per-batch workers, the RSA cipher's three exponentiators) reuse one
        pre-computation of ``R² mod N`` and ``N'``.
        """
        from repro.montgomery.params import precompute_montgomery_constants

        return cls(precompute_montgomery_constants(modulus, l), engine, mode=mode)

    # ------------------------------------------------------------------
    def _mont(self, run: ExponentiationRun, kind: str, x: int, y: int) -> int:
        n = self.ctx.modulus
        observed = OBS.enabled
        if observed:
            OBS.begin(kind, cat="exponentiator")
        if self.mmmc is not None:
            rec = self.mmmc.multiply(x, y, n)
            value, cost = rec.result, rec.cycles
        else:
            value = montgomery_no_subtraction(self.ctx, x, y)
            cost = (
                mmm_cycles_corrected(self.ctx.l)
                if self.mode == "corrected"
                else mmm_cycles(self.ctx.l)
            )
            if observed:
                # The golden engine skips the RTL, so the trace clock
                # advances by the modelled cost in one jump.
                OBS.tick(cost)
        if observed:
            OBS.end(cycles=cost)
            OBS.count("exponentiator.operations", kind=kind)
            OBS.record("exponentiator.operation_cycles", cost, kind=kind)
        run.cycles += cost
        run.operations.append((kind, cost))
        return value

    def exponentiate(self, message: int, exponent: int) -> ExponentiationRun:
        """Compute ``message ** exponent mod N`` through the hardware model.

        Returns the reduced result (in ``[0, N)``) and the measured cycle
        total, which equals
        :func:`~repro.systolic.timing.exponentiation_cycles_measured_model`
        for the same exponent.
        """
        ctx = self.ctx
        if not 0 <= message < ctx.modulus:
            raise ParameterError(
                f"message must be in [0, N); got {message} for N={ctx.modulus}"
            )
        if exponent <= 0:
            raise ParameterError(f"exponent must be >= 1, got {exponent}")
        run = ExponentiationRun(result=0, cycles=0)
        if OBS.enabled:
            OBS.begin(
                "exponentiate",
                cat="exponentiator",
                l=ctx.l,
                engine=self.engine,
                exponent_bits=exponent.bit_length(),
            )
        a = run_chain(
            functools.partial(self._mont, run), message, exponent, ctx.r2_mod_n
        )
        run.result = a % ctx.modulus
        self.cycles += run.cycles
        if OBS.enabled:
            OBS.end(cycles=run.cycles, multiplications=run.num_multiplications)
            OBS.count("exponentiator.exponentiations")
            OBS.record("exponentiator.exponentiation_cycles", run.cycles)
        # Cross-check the measurement against the closed-form model.
        expected = exponentiation_cycles_measured_model(
            ctx.l, exponent, mode=self.mode
        ).total
        if run.cycles != expected:
            raise AssertionError(
                f"measured {run.cycles} cycles, cost model says {expected}"
            )
        return run
