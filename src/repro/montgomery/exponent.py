"""Algorithm 3: modular exponentiation by square-and-multiply.

Implements the paper's left-to-right square-and-multiply exponentiation both
as a plain modular algorithm (:func:`modexp_square_multiply`) and in the
Montgomery domain exactly as the exponentiator circuit schedules it
(:func:`modexp_chain`, the one schedule every GF(p) Montgomery
exponentiator in the library drives — :func:`montgomery_modexp`, the
systolic :class:`~repro.systolic.exponentiator.ModularExponentiator`, the
side-channel analysis and every serving backend):

1. pre-processing — Mont(M, R² mod N) maps the message into the domain;
2. the scan of the exponent from bit ``t-2`` downward, squaring every step
   and multiplying when the bit is 1;
3. post-processing — Mont(A, 1) strips the R factor.

:func:`montgomery_modexp` also returns an :class:`ExponentiationTrace`
recording every multiplication performed (kind, operands) plus the paper's
cycle accounting, so the RTL exponentiator and the Table 1 benchmark can be
validated against it operation by operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, List, Tuple

from repro.errors import ParameterError
from repro.montgomery.algorithms import montgomery_no_subtraction
from repro.montgomery.params import MontgomeryContext
from repro.utils.validation import ensure_positive

__all__ = [
    "Chain",
    "modexp_chain",
    "chain_length",
    "run_chain",
    "modexp_square_multiply",
    "montgomery_modexp",
    "montgomery_modexp_rtl",
    "montgomery_powering_ladder",
    "ExponentiationTrace",
    "MultOp",
]


@dataclass(frozen=True)
class MultOp:
    """One Montgomery multiplication issued by the exponentiator.

    ``kind`` is one of ``"pre"``, ``"square"``, ``"multiply"``, ``"post"``.
    """

    kind: str
    x: int
    y: int
    result: int


@dataclass
class ExponentiationTrace:
    """Complete record of one modular exponentiation.

    Attributes
    ----------
    operations:
        Every Montgomery multiplication in issue order.
    squares / multiplies:
        Counts of the two loop operation kinds (pre/post excluded).
    """

    operations: List[MultOp] = field(default_factory=list)

    @property
    def squares(self) -> int:
        return sum(1 for op in self.operations if op.kind == "square")

    @property
    def multiplies(self) -> int:
        return sum(1 for op in self.operations if op.kind == "multiply")

    @property
    def total_multiplications(self) -> int:
        """All Montgomery multiplications including pre- and post-processing."""
        return len(self.operations)


#: yields ``(kind, x, y)`` operations, receives each Montgomery product
#: back, returns the final ``Mont(A, 1)`` product.
Chain = Generator[Tuple[str, int, int], int, int]


def modexp_chain(base: int, exponent: int, r2: int) -> Chain:
    """Algorithm 3 as a coroutine: yield operations, receive products.

    ``r2`` is ``R² mod N`` in the multiplier's Montgomery convention, so
    the same schedule serves every radix and ``R``.  The sequence is the
    paper's: the conversion ``("pre", base, r2)``, MSB-first
    ``("square", A, A)`` with a ``("multiply", A, M̄)`` after every 1 bit,
    and the final ``("post", A, 1)``, whose product is the chain's return
    value.  Callers drive it one chain at a time (:func:`run_chain`), as K
    same-exponent chains in lock-step over bit-sliced lanes, or as
    interleaved chains on the multi-tile chip.  ``exponent`` must be
    >= 1; it issues :func:`chain_length` operations.
    """
    m_bar = yield ("pre", base, r2)
    a = m_bar
    for i in reversed(range(exponent.bit_length() - 1)):
        a = yield ("square", a, a)
        if (exponent >> i) & 1:
            a = yield ("multiply", a, m_bar)
    return (yield ("post", a, 1))


def chain_length(exponent: int) -> int:
    """Montgomery multiplications :func:`modexp_chain` issues for ``exponent``.

    Pre and post, ``bit_length - 1`` squares and ``popcount - 1``
    multiplies: ``bit_length + popcount`` in all.
    """
    return exponent.bit_length() + bin(exponent).count("1")


def run_chain(
    mont: Callable[[str, int, int], int], base: int, exponent: int, r2: int
) -> int:
    """Drive one :func:`modexp_chain` to completion; return its final product.

    ``mont(kind, x, y)`` performs each Montgomery multiplication.
    """
    chain = modexp_chain(base, exponent, r2)
    op = next(chain)
    while True:
        try:
            op = chain.send(mont(*op))
        except StopIteration as fin:
            return fin.value


def modexp_square_multiply(base: int, exponent: int, modulus: int) -> int:
    """Algorithm 3 verbatim: left-to-right binary square-and-multiply.

    Plain modular arithmetic (no Montgomery domain); serves as the reference
    the Montgomery pipeline is checked against, independent of ``pow``.
    """
    ensure_positive("modulus", modulus)
    if exponent < 0:
        raise ParameterError(f"exponent must be >= 0, got {exponent}")
    if exponent == 0:
        return 1 % modulus
    a = base % modulus
    for i in reversed(range(exponent.bit_length() - 1)):
        a = (a * a) % modulus
        if (exponent >> i) & 1:
            a = (a * base) % modulus
    return a


def montgomery_modexp(
    ctx: MontgomeryContext, message: int, exponent: int
) -> Tuple[int, ExponentiationTrace]:
    """Exponentiation through the Montgomery pipeline of Section 4.5.

    Returns ``(message^exponent mod N, trace)``.  The sequencing mirrors the
    circuit (:func:`modexp_chain`): one pre-multiplication by ``R² mod N``,
    the Algorithm 3 scan with every intermediate staying in the ``[0, 2N)``
    window (no reductions anywhere), and one final multiplication by 1.
    """
    if not 0 <= message < ctx.modulus:
        raise ParameterError(
            f"message must be in [0, N); got {message} for N={ctx.modulus}"
        )
    if exponent <= 0:
        raise ParameterError(f"exponent must be >= 1, got {exponent}")
    trace = ExponentiationTrace()

    def mont(kind: str, x: int, y: int) -> int:
        r = montgomery_no_subtraction(ctx, x, y)
        trace.operations.append(MultOp(kind=kind, x=x, y=y, result=r))
        return r

    result = run_chain(mont, message, exponent, ctx.r2_mod_n)
    return result % ctx.modulus, trace


def montgomery_modexp_rtl(
    ctx: MontgomeryContext, message: int, exponent: int
) -> Tuple[int, ExponentiationTrace]:
    """Right-to-left binary exponentiation through the Montgomery pipeline.

    Scans the exponent LSB-first with two accumulators: the running
    square chain ``S`` and the product accumulator ``A``.  Same operation
    count as left-to-right, but the square chain is *independent of the
    accumulator*: on hardware with two multipliers (or an overlapped
    issue pipeline, see :mod:`repro.systolic.pipeline`) the square and
    the conditional multiply of one step can proceed concurrently —
    the classic argument for R2L in hardware exponentiators.
    """
    if not 0 <= message < ctx.modulus:
        raise ParameterError(
            f"message must be in [0, N); got {message} for N={ctx.modulus}"
        )
    if exponent <= 0:
        raise ParameterError(f"exponent must be >= 1, got {exponent}")
    trace = ExponentiationTrace()

    def mont(kind: str, x: int, y: int) -> int:
        r = montgomery_no_subtraction(ctx, x, y)
        trace.operations.append(MultOp(kind=kind, x=x, y=y, result=r))
        return r

    s = mont("pre", message, ctx.r2_mod_n)
    a = ctx.r_mod_n  # domain 1
    e = exponent
    while e:
        if e & 1:
            a = mont("multiply", a, s)
        e >>= 1
        if e:
            s = mont("square", s, s)
    result = mont("post", a, 1)
    return result % ctx.modulus, trace


def montgomery_powering_ladder(
    ctx: MontgomeryContext, message: int, exponent: int
) -> Tuple[int, ExponentiationTrace]:
    """SPA-hardened exponentiation: the Montgomery powering ladder.

    Two multiplications per exponent bit, *always*, regardless of the
    bit's value — the operation **sequence** no longer leaks the exponent
    (plain square-and-multiply reveals every 1-bit to an SPA observer even
    when each multiplication is constant-time, because multiply-after-
    square events mark the 1s).  Costs ~33% more multiplications than
    Algorithm 3 on a balanced exponent; the side-channel benchmark
    quantifies the trade.

    Returns ``(message^exponent mod N, trace)`` exactly like
    :func:`montgomery_modexp`; the trace records the regular
    ladder-step / ladder-square rhythm.
    """
    if not 0 <= message < ctx.modulus:
        raise ParameterError(
            f"message must be in [0, N); got {message} for N={ctx.modulus}"
        )
    if exponent <= 0:
        raise ParameterError(f"exponent must be >= 1, got {exponent}")
    trace = ExponentiationTrace()

    def mont(kind: str, x: int, y: int) -> int:
        r = montgomery_no_subtraction(ctx, x, y)
        trace.operations.append(MultOp(kind=kind, x=x, y=y, result=r))
        return r

    m_bar = mont("pre", message, ctx.r2_mod_n)
    r0 = ctx.r_mod_n  # domain representation of 1
    r1 = m_bar
    for i in reversed(range(exponent.bit_length())):
        if (exponent >> i) & 1:
            r0 = mont("ladder-mul", r0, r1)
            r1 = mont("ladder-sq", r1, r1)
        else:
            r1 = mont("ladder-mul", r0, r1)
            r0 = mont("ladder-sq", r0, r0)
    result = mont("post", r0, 1)
    return result % ctx.modulus, trace
