"""Latency SLOs in simulated cycles, derived from the paper's formulas.

The natural latency unit of this repository is the *cycle*, not the
wall-clock second: the paper's own performance claims are the per-product
latency ``3l + 4`` (Sect. 4.4) and the exponentiation window of
Eq. (10), ``3l^2 + 10l + 12 <= T <= 6l^2 + 14l + 12``.  An SLO expressed
in cycles is therefore machine-independent and checkable against the
analytic model.

:class:`SLOPolicy` turns one request into its cycle budget:

* the per-multiplication cost is :func:`~repro.systolic.timing.mmm_cycles`
  (``3l+4``) or the corrected-array ``3l+5``, selected by ``mode``;
* a binary exponentiation of exponent ``e`` performs at most
  ``2 * bitlen(e)`` multiplications (square + conditional multiply per
  bit) — Eq. (10)'s upper envelope;
* ``margin`` scales the bound (``1.0`` = the analytic worst case, which
  cycle-accurate backends provably satisfy; modelled backends such as
  the high-radix estimator can legitimately exceed it);
* ``fixed_budget`` short-circuits the formula for absolute budgets.

The service checks every completed request that reports cycles and
counts ``serving.slo_checks`` / ``serving.slo_violations`` per backend
and worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ParameterError
from repro.serving.request import ModExpRequest
from repro.systolic.timing import mmm_cycles, mmm_cycles_corrected

__all__ = ["SLOPolicy"]

_MODES = ("paper", "corrected")


@dataclass(frozen=True)
class SLOPolicy:
    """Cycle-budget policy: ``margin x 2*bitlen(e) x mmm_cycles(l)``.

    Parameters
    ----------
    margin:
        Multiplier on the analytic bound.  ``1.0`` is the exact Eq. (10)
        upper envelope.
    mode:
        ``"paper"`` uses the paper's ``3l+4`` per multiplication;
        ``"corrected"`` (default) the corrected array's ``3l+5``.
    fixed_budget:
        When set, every request gets this absolute cycle budget and the
        formula is bypassed.
    """

    margin: float = 1.0
    mode: str = "corrected"
    fixed_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ParameterError(f"unknown SLO mode {self.mode!r}; one of {_MODES}")
        if self.margin <= 0:
            raise ParameterError(f"margin must be > 0, got {self.margin}")
        if self.fixed_budget is not None and self.fixed_budget < 1:
            raise ParameterError(
                f"fixed_budget must be >= 1, got {self.fixed_budget}"
            )

    def cycle_budget(self, request: ModExpRequest) -> int:
        """Cycle budget for one request (always ``>= 1``)."""
        if self.fixed_budget is not None:
            return self.fixed_budget
        l = request.width
        per_mult = mmm_cycles(l) if self.mode == "paper" else mmm_cycles_corrected(l)
        mults = 2 * max(request.exponent.bit_length(), 1)
        return max(1, math.ceil(self.margin * mults * per_mult))
