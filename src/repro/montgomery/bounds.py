"""Walter-bound analysis (paper Section 3, Eq. (2)).

The paper's key enabling result (due to Walter [34, 37], refined in
Batina–Muurling [1]) is:

    write R >= k·N.  With inputs X, Y < 2N the Montgomery output satisfies

        T = (X·Y + m·N) / R < (4/k)·N + N ,

    so T < 2N as soon as k >= 4 — i.e. **R >= 4N suffices** to feed
    multiplication outputs straight back as inputs, with no subtraction.

This module provides that bound symbolically (:func:`output_bound`), the
minimal-R search (:func:`minimal_r_exponent`), and empirical verifiers used
by the property tests and the bound-ablation benchmark: they confirm both
that R = 2^(l+2) never overflows the 2N window and that the *smaller*
R = 2^l (Blum–Paar territory without their extra step) genuinely does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Tuple

from repro.errors import ParameterError
from repro.montgomery.algorithms import montgomery_loop
from repro.utils.validation import ensure_odd, ensure_positive

__all__ = [
    "output_bound",
    "minimal_r_exponent",
    "iteration_counts",
    "BoundProbe",
    "probe_window_stability",
    "worst_case_operands",
]


def output_bound(modulus: int, r: int) -> Fraction:
    """Upper bound on the Montgomery output for inputs below ``2N``.

    Implements Eq. (2): ``T < (4N²)/R + N`` exactly, as a fraction, so the
    k >= 4 threshold can be tested without floating-point slop.
    """
    ensure_odd("modulus", modulus)
    ensure_positive("r", r)
    return Fraction(4 * modulus * modulus, r) + modulus


def minimal_r_exponent(modulus: int) -> int:
    """Smallest ``r`` such that ``R = 2^r`` keeps Algorithm 2 closed on [0, 2N).

    By Eq. (2) the closure condition is ``R >= 4N``; the smallest power of
    two satisfying it is ``2^(bitlen(N) + 2)`` unless N is itself just below
    a power of two.  Returned from first principles (search), not from the
    formula, so tests can compare the two.
    """
    ensure_odd("modulus", modulus)
    r = 1
    exp = 0
    while r < 4 * modulus:
        r <<= 1
        exp += 1
    return exp


def iteration_counts(l: int) -> Tuple[int, int]:
    """Radix-2 iteration counts: (this paper, Blum–Paar [3]).

    The paper runs ``l + 2`` iterations (R = 2^(l+2)); Blum–Paar use
    R = 2^(l+3) and therefore ``l + 3`` — the per-multiplication saving the
    paper claims.  Returned as a pair for the ablation benchmark.
    """
    ensure_positive("l", l)
    return l + 2, l + 3


@dataclass(frozen=True)
class BoundProbe:
    """Result of an empirical window-stability probe.

    Attributes
    ----------
    r_exponent: the probed ``r`` (``R = 2^r``).
    closed: whether every probed product stayed inside ``[0, 2N)``.
    max_output: largest output observed.
    violations: operand pairs whose output escaped the window.
    """

    r_exponent: int
    closed: bool
    max_output: int
    violations: Tuple[Tuple[int, int], ...]


def probe_window_stability(
    modulus: int, r_exponent: int, operands: Iterable[Tuple[int, int]]
) -> BoundProbe:
    """Empirically test whether ``[0, 2N)`` is closed under Mont with ``2^r``.

    Runs the raw radix-2 recurrence (no safety checks) for every operand
    pair and records any output that escapes the window.  Used by the
    bound-ablation benchmark to show R = 2^(l+2) is safe while smaller R
    is not.
    """
    ensure_odd("modulus", modulus)
    violations: List[Tuple[int, int]] = []
    max_out = 0
    bound = 2 * modulus
    for x, y in operands:
        t = montgomery_loop(x, y, modulus, r_exponent)
        max_out = max(max_out, t)
        if t >= bound:
            violations.append((x, y))
    return BoundProbe(
        r_exponent=r_exponent,
        closed=not violations,
        max_output=max_out,
        violations=tuple(violations),
    )


def worst_case_operands(modulus: int) -> Tuple[int, int]:
    """Operands maximizing the Montgomery output: ``x = y = 2N - 1``.

    The bound Eq. (2) is monotone in X·Y, so the corner of the window is
    the stress case the probes and property tests should always include.
    """
    ensure_odd("modulus", modulus)
    return 2 * modulus - 1, 2 * modulus - 1
