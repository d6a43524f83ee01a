"""Algorithms 1 and 2 of the paper: Montgomery multiplication.

Two variants are implemented exactly as printed:

* :func:`montgomery_with_subtraction` — Algorithm 1, the classical form with
  a data-dependent final subtraction (operands in ``[0, N)``, output in
  ``[0, N)``).  Works for any word base ``2^α``.
* :func:`montgomery_no_subtraction` — Algorithm 2, the paper's radix-2 form
  with ``R = 2^(l+2)`` and **no** final subtraction (operands in ``[0, 2N)``,
  output in ``[0, 2N)``).  This is what the systolic array computes.

Both return ``x·y·R^{-1}`` modulo N (Algorithm 2 modulo 2N, congruent
mod N), and both can produce a full per-iteration trace — the sequence of
quotient digits ``m_i`` and partial results ``T_i`` — which the hardware
tests replay against the RTL and gate-level simulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import ParameterError, SimulationError
from repro.montgomery.params import MontgomeryContext

__all__ = [
    "MontgomeryStep",
    "montgomery_with_subtraction",
    "montgomery_loop",
    "montgomery_no_subtraction",
    "montgomery_trace",
    "montgomery_reduce",
]


@dataclass(frozen=True)
class MontgomeryStep:
    """One iteration of the Montgomery loop.

    Attributes
    ----------
    index:
        Iteration counter ``i``.
    x_digit:
        The multiplier digit ``x_i`` consumed this iteration.
    m_digit:
        The quotient digit ``m_i`` that makes ``T + x_i·y + m_i·N``
        divisible by the word base.
    t_after:
        The partial result ``T_i`` *after* the division by the word base.
    """

    index: int
    x_digit: int
    m_digit: int
    t_after: int


def _digits(value: int, count: int, alpha: int) -> List[int]:
    """Little-endian base-2^α digits of ``value``, padded to ``count``."""
    mask = (1 << alpha) - 1
    return [(value >> (alpha * i)) & mask for i in range(count)]


def montgomery_with_subtraction(
    ctx: MontgomeryContext, x: int, y: int
) -> int:
    """Algorithm 1: Montgomery multiplication *with* the final subtraction.

    Requires ``x, y ∈ [0, N)``; returns ``x·y·R1^{-1} mod N`` where
    ``R1 = (2^α)^l`` is the classical Montgomery parameter (just above N,
    not the enlarged ``2^(l+2)`` of Algorithm 2).

    The subtraction in steps 6–8 executes only when the accumulated T
    reaches N — the data-dependent behaviour the paper eliminates.
    """
    n = ctx.modulus
    if not 0 <= x < n:
        raise ParameterError(f"Algorithm 1 requires x in [0, N); got x={x}")
    if not 0 <= y < n:
        raise ParameterError(f"Algorithm 1 requires y in [0, N); got y={y}")
    alpha = ctx.word_bits
    base = 1 << alpha
    # Classical parameter: l digits, R1 = base^l >= N.
    l_digits = -(-ctx.l // alpha)
    xs = _digits(x, l_digits, alpha)
    t = 0
    for i in range(l_digits):
        t0 = t & (base - 1)
        m_i = ((t0 + xs[i] * (y & (base - 1))) * ctx.n_prime) % base
        t = (t + xs[i] * y + m_i * n) >> alpha
    if t >= n:
        t -= n
    return t


def montgomery_loop(
    x: int,
    y: int,
    n: int,
    iterations: int,
    steps: Optional[List[MontgomeryStep]] = None,
) -> int:
    """The radix-2 Montgomery recurrence, raw: ``x·y·2^{-iterations} mod N``.

    Runs ``T = (T + x_i·Y + m_i·N) / 2`` for ``i < iterations`` with no
    operand or window checks, appending one :class:`MontgomeryStep` per
    iteration to ``steps`` when given.  Every radix-2 multiplier in the
    library is this loop with its own iteration count: Algorithm 2
    (``l+2``), Blum–Paar (``l+3``), the classical Algorithm 1 multiply of
    the side-channel analysis (``l``) and the Walter-bound probe (any
    ``r``).
    """
    y0 = y & 1
    t = 0
    for i in range(iterations):
        x_i = (x >> i) & 1
        m_i = (t ^ (x_i & y0)) & 1  # (t0 + x_i*y0) mod 2, N' = 1
        t = (t + x_i * y + m_i * n) >> 1
        if steps is not None:
            steps.append(MontgomeryStep(index=i, x_digit=x_i, m_digit=m_i, t_after=t))
    return t


def montgomery_no_subtraction(ctx: MontgomeryContext, x: int, y: int) -> int:
    """Algorithm 2: radix-2 Montgomery multiplication *without* subtraction.

    Requires ``x, y ∈ [0, 2N)`` and ``R = 2^(l+2) > 4N`` (guaranteed by
    :class:`MontgomeryContext`); returns ``T ≡ x·y·R^{-1} (mod N)`` with
    ``T < 2N``, so the result feeds the next multiplication directly.
    """
    return _run_no_subtraction(ctx, x, y, None)


def montgomery_trace(
    ctx: MontgomeryContext, x: int, y: int
) -> Tuple[int, List[MontgomeryStep]]:
    """Algorithm 2 with a full per-iteration trace.

    Returns ``(T, steps)`` where ``steps[i]`` records ``x_i``, ``m_i`` and
    the partial result after iteration ``i``.  The hardware simulators are
    validated against this trace digit by digit.
    """
    steps: List[MontgomeryStep] = []
    return _run_no_subtraction(ctx, x, y, steps), steps


def _run_no_subtraction(
    ctx: MontgomeryContext,
    x: int,
    y: int,
    steps: Optional[List[MontgomeryStep]],
) -> int:
    if ctx.word_bits != 1:
        raise ParameterError(
            "Algorithm 2 is the radix-2 algorithm; use repro.montgomery.radix "
            f"for word_bits={ctx.word_bits}"
        )
    ctx.check_operand("x", x)
    ctx.check_operand("y", y)
    n = ctx.modulus
    t = montgomery_loop(x, y, n, ctx.iterations, steps)  # l + 2
    if t >= 2 * n:
        # The Walter bound guarantees this never happens; hitting it means
        # the context was constructed inconsistently.
        raise SimulationError(
            f"Algorithm 2 output {t} >= 2N={2 * n}: Walter bound violated"
        )
    return t


def montgomery_reduce(
    ctx: MontgomeryContext,
    value: int,
    mont: Callable[[MontgomeryContext, int, int], int] = montgomery_no_subtraction,
) -> int:
    """Montgomery reduction: ``Mont(value, 1) = value·R^{-1}``, bounded by N.

    This is the paper's post-processing step — one multiplication by 1
    converts out of the Montgomery domain.  The paper argues the result is
    ``<= N`` and equality cannot occur for nonzero residues; we return the
    value reduced into ``[0, N)`` and assert the paper's bound held.
    ``mont`` is the multiplier that performs the pass (the golden
    Algorithm 2 unless a hardware model is substituted), so the bound is
    checked on whatever engine produced the product.
    """
    t = mont(ctx, value, 1)
    if t > ctx.modulus:
        raise SimulationError(
            f"Mont(T, 1) = {t} exceeded N = {ctx.modulus}; bound argument violated"
        )
    return t % ctx.modulus
