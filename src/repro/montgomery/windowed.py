"""Windowed exponentiation methods over the Montgomery multiplier.

The paper's exponentiator uses plain binary square-and-multiply
(Algorithm 3): ``t-1`` squarings plus ``weight(E)-1`` multiplications.
Standard recodings trade a table of precomputed powers for fewer
multiplications — directly fewer ``3l+4``-cycle passes of the array:

* :func:`mary_schedule` — fixed-window (2^w-ary) exponentiation;
* :func:`sliding_window_schedule` — sliding windows over odd digits
  (smaller table, same window width);

Both produce an explicit :class:`OperationSchedule` — the exact sequence
of square/multiply operations with operand table indices — which
:func:`execute_schedule` runs through any Montgomery multiplier, and
whose length prices the method in multiplier cycles.  The window ablation
benchmark sweeps ``w`` and reports the optimum per exponent size —
the design study a user of the paper's exponentiator would run next.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import ParameterError
from repro.montgomery.algorithms import montgomery_no_subtraction
from repro.montgomery.params import MontgomeryContext
from repro.utils.validation import ensure_positive

__all__ = [
    "Op",
    "OperationSchedule",
    "binary_schedule",
    "mary_schedule",
    "sliding_window_schedule",
    "schedule_for",
    "execute_schedule",
    "windowed_modexp",
    "optimal_window",
]


@dataclass(frozen=True)
class Op:
    """One multiplier pass.

    ``kind``: ``"square"`` (A <- A·A) or ``"mult"`` (A <- A·table[index]).
    """

    kind: str
    index: int = 0


@dataclass
class OperationSchedule:
    """A complete exponentiation plan.

    Attributes
    ----------
    window:
        Window width the plan was built with (1 = binary).
    table_odd_only:
        Whether ``table[i]`` holds ``g^(2i+1)`` (sliding window) or
        ``g^i`` (m-ary).
    precomputation_mults:
        Multiplier passes needed to build the table (beyond g itself).
    ops:
        The main-loop operations, in execution order.
    """

    window: int
    table_odd_only: bool
    precomputation_mults: int
    ops: List[Op]

    @property
    def squares(self) -> int:
        return sum(1 for o in self.ops if o.kind == "square")

    @property
    def mults(self) -> int:
        return sum(1 for o in self.ops if o.kind == "mult")

    @property
    def total_multiplications(self) -> int:
        """Every multiplier pass: table build + loop (squares are passes too)."""
        return self.precomputation_mults + len(self.ops)


def binary_schedule(exponent: int) -> OperationSchedule:
    """Left-to-right binary plan — Algorithm 3's operation sequence."""
    ensure_positive("exponent", exponent)
    ops: List[Op] = []
    for i in reversed(range(exponent.bit_length() - 1)):
        ops.append(Op("square"))
        if (exponent >> i) & 1:
            ops.append(Op("mult", 1))
    return OperationSchedule(
        window=1, table_odd_only=False, precomputation_mults=0, ops=ops
    )


def mary_schedule(exponent: int, window: int) -> OperationSchedule:
    """Fixed-window 2^w-ary plan.

    Table: ``g^0..g^(2^w - 1)`` (2^w − 2 multiplications to build beyond
    g^0, g^1).  Loop: per digit, ``w`` squarings + one multiplication for
    nonzero digits.
    """
    ensure_positive("exponent", exponent)
    ensure_positive("window", window)
    if window == 1:
        return binary_schedule(exponent)
    digits: List[int] = []
    e = exponent
    while e:
        digits.append(e & ((1 << window) - 1))
        e >>= window
    ops: List[Op] = []
    first = True
    for d in reversed(digits):
        if not first:
            ops.extend(Op("square") for _ in range(window))
        if d and not first:
            ops.append(Op("mult", d))
        first = False
    # Leading digit handled by initializing A = table[digits[-1]]; account
    # for it as one mult when it isn't 1.
    lead = digits[-1]
    if lead != 1:
        ops.insert(0, Op("mult", lead))
    return OperationSchedule(
        window=window,
        table_odd_only=False,
        precomputation_mults=(1 << window) - 2,
        ops=ops,
    )


def sliding_window_schedule(exponent: int, window: int) -> OperationSchedule:
    """Sliding-window plan over odd window values.

    Table: odd powers ``g, g^3, ..., g^(2^w - 1)`` — one squaring (g²)
    plus ``2^(w-1) − 1`` multiplications.  Windows always start and end on
    set bits, so zero runs cost only squarings.
    """
    ensure_positive("exponent", exponent)
    ensure_positive("window", window)
    if window == 1:
        return binary_schedule(exponent)
    bits = [(exponent >> i) & 1 for i in range(exponent.bit_length())]
    n = len(bits)
    # Parse windows from the most significant end.
    segments: List[Tuple[str, int]] = []  # ("zeros", count) | ("win", value)
    i = n - 1
    while i >= 0:
        if bits[i] == 0:
            j = i
            while j >= 0 and bits[j] == 0:
                j -= 1
            segments.append(("zeros", i - j))
            i = j
        else:
            j = max(i - window + 1, 0)
            while bits[j] == 0:  # shrink so the window ends on a 1
                j += 1
            value = 0
            for k in range(i, j - 1, -1):
                value = (value << 1) | bits[k]
            segments.append(("win", value))
            i = j - 1
    ops: List[Op] = []
    first = True
    lead_value = None
    for kind, v in segments:
        if kind == "zeros":
            ops.extend(Op("square") for _ in range(v))
            continue
        width = v.bit_length()
        if first:
            lead_value = v
            first = False
            continue
        ops.extend(Op("square") for _ in range(width))
        ops.append(Op("mult", v))
    if lead_value is None:  # pragma: no cover - exponent >= 1 always has a 1
        raise ParameterError("exponent must have a set bit")
    if lead_value != 1:
        ops.insert(0, Op("mult", lead_value))
    return OperationSchedule(
        window=window,
        table_odd_only=True,
        precomputation_mults=(1 << (window - 1)),  # g^2 plus the odd chain
        ops=ops,
    )


def execute_schedule(
    ctx: MontgomeryContext,
    schedule: OperationSchedule,
    message: int,
    mont: Optional[Callable[[MontgomeryContext, int, int], int]] = None,
) -> int:
    """Run a schedule through a Montgomery multiplier; returns ``[0, N)``.

    The table is built in the Montgomery domain exactly as the hardware
    would (entry via Mont(M, R²), every power via multiplier passes);
    ``mont`` defaults to the golden Algorithm 2 and accepts the hardware
    models' signatures.
    """
    if not 0 <= message < ctx.modulus:
        raise ParameterError("message must be in [0, N)")
    mul = mont or montgomery_no_subtraction
    g = mul(ctx, message, ctx.r2_mod_n)
    # Build the table the schedule indexes into.
    table = {1: g}
    if schedule.table_odd_only:
        g2 = mul(ctx, g, g)
        prev = g
        for odd in range(3, (1 << schedule.window), 2):
            prev = mul(ctx, prev, g2)
            table[odd] = prev
    else:
        prev = g
        for v in range(2, 1 << schedule.window):
            prev = mul(ctx, prev, g)
            table[v] = prev
    # Initialize the accumulator: a leading "mult" op encodes A = table[v]
    # (the most significant window); otherwise A starts at g.
    ops = list(schedule.ops)
    if ops and ops[0].kind == "mult":
        a = table[ops[0].index]
        ops = ops[1:]
    else:
        a = g
    for op in ops:
        if op.kind == "square":
            a = mul(ctx, a, a)
        else:
            a = mul(ctx, a, table[op.index])
    return mul(ctx, a, 1) % ctx.modulus


def schedule_for(method: str, exponent: int, window: int) -> OperationSchedule:
    """The schedule named ``method``: ``"sliding"``, ``"mary"`` or ``"binary"``.

    ``window`` is ignored by ``"binary"``.  Raises
    :class:`~repro.errors.ParameterError` for any other method name.
    """
    if method == "sliding":
        return sliding_window_schedule(exponent, window)
    if method == "mary":
        return mary_schedule(exponent, window)
    if method == "binary":
        return binary_schedule(exponent)
    raise ParameterError(f"unknown method {method!r}")


def windowed_modexp(
    modulus: int, message: int, exponent: int, window: int = 4, method: str = "sliding"
) -> int:
    """Convenience: windowed modular exponentiation, result in ``[0, N)``."""
    ctx = MontgomeryContext(modulus)
    return execute_schedule(ctx, schedule_for(method, exponent, window), message)


def optimal_window(exponent_bits: int, method: str = "sliding") -> int:
    """Window width minimizing total multiplier passes for a random
    ``exponent_bits``-bit exponent (expected-case model)."""
    ensure_positive("exponent_bits", exponent_bits)
    best_w, best_cost = 1, None
    for w in range(1, 11):
        if method == "sliding":
            pre = (1 << (w - 1)) if w > 1 else 0
            loop = exponent_bits + exponent_bits / (w + 1)
        else:
            pre = (1 << w) - 2 if w > 1 else 0
            loop = exponent_bits + (exponent_bits / w) * (1 - 2 ** (-w))
        cost = pre + loop
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w
