"""Montgomery-domain convenience wrapper.

:class:`MontgomeryDomain` packages a :class:`~repro.montgomery.params.MontgomeryContext`
with the conversion and arithmetic operations applications actually call
(RSA in :mod:`repro.rsa`, GF(p) in :mod:`repro.ecc.field`).  Values held by
the domain live in the ``[0, 2N)`` window of Algorithm 2; conversion out
goes through Mont(·, 1) exactly as the hardware's post-processing does.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ParameterError
from repro.montgomery.algorithms import (
    montgomery_no_subtraction,
    montgomery_reduce,
)
from repro.montgomery.params import MontgomeryContext

__all__ = ["MontgomeryDomain"]


class MontgomeryDomain:
    """Arithmetic in the Montgomery domain modulo an odd N.

    Parameters
    ----------
    modulus:
        The odd modulus, or a pre-built :class:`MontgomeryContext`.
    multiplier:
        Optional override for the core multiplication, with the signature
        ``(ctx, x, y) -> x·y·R^{-1}``.  This is the hook through which the
        cycle-accurate hardware simulators substitute themselves for the
        big-integer algorithm — applications are agnostic to which engine
        runs underneath.
    """

    def __init__(
        self,
        modulus,
        multiplier: Optional[Callable[[MontgomeryContext, int, int], int]] = None,
    ) -> None:
        if isinstance(modulus, MontgomeryContext):
            self.ctx = modulus
        else:
            self.ctx = MontgomeryContext(modulus)
        self._mont = multiplier or montgomery_no_subtraction
        # Count of core multiplications issued, for cost accounting.
        self.mult_count = 0

    # ------------------------------------------------------------------
    @property
    def modulus(self) -> int:
        return self.ctx.modulus

    def mont(self, x: int, y: int) -> int:
        """Raw Montgomery product ``x·y·R^{-1}`` (inputs/outputs in [0, 2N))."""
        self.mult_count += 1
        return self._mont(self.ctx, x, y)

    def enter(self, value: int) -> int:
        """Convert ``value ∈ [0, N)`` into the domain: ``value·R mod 2N``."""
        if not 0 <= value < self.modulus:
            raise ParameterError(
                f"value {value} outside [0, N) for N={self.modulus}"
            )
        return self.mont(value, self.ctx.r2_mod_n)

    def leave(self, value: int) -> int:
        """Convert a domain value back to ``Z_N`` via Mont(value, 1)."""
        self.mult_count += 1
        return montgomery_reduce(self.ctx, value, self._mont)

    def mul(self, a: int, b: int) -> int:
        """Domain multiplication: the Montgomery product of two domain values."""
        return self.mont(a, b)

    def square(self, a: int) -> int:
        """Domain squaring (one Montgomery multiplication)."""
        return self.mont(a, a)

    def add(self, a: int, b: int) -> int:
        """Domain addition (linear, so representation-compatible), mod 2N window.

        A single reduction by 2N keeps the value inside the window; note the
        real circuit would do the same with one conditional subtractor.
        """
        s = a + b
        bound = self.ctx.operand_bound
        return s - bound if s >= bound else s

    def sub(self, a: int, b: int) -> int:
        """Domain subtraction into the [0, 2N) window."""
        d = a - b
        return d + self.ctx.operand_bound if d < 0 else d

    def exp(self, base_domain: int, exponent: int) -> int:
        """Square-and-multiply on domain values (result stays in the domain)."""
        if exponent < 0:
            raise ParameterError(f"exponent must be >= 0, got {exponent}")
        if exponent == 0:
            # R mod N is the domain representation of 1.
            return self.ctx.r_mod_n
        a = base_domain
        for i in reversed(range(exponent.bit_length() - 1)):
            a = self.square(a)
            if (exponent >> i) & 1:
                a = self.mul(a, base_domain)
        return a

    def inverse(self, a_domain: int) -> int:
        """Domain multiplicative inverse via Fermat/Euler exponentiation.

        Uses ``a^{φ(N)-1}`` only when N is prime (``a^{N-2}``); general
        moduli should invert outside the domain.  Raises if the value is
        not invertible.
        """
        a_int = self.leave(a_domain)
        try:
            inv = pow(a_int, -1, self.modulus)
        except ValueError as exc:  # non-invertible
            raise ParameterError(f"{a_int} is not invertible mod {self.modulus}") from exc
        return self.enter(inv)

    def equals(self, a_domain: int, b_domain: int) -> bool:
        """Equality of the residues two domain values represent.

        Domain values are only canonical mod N (the window is 2N wide), so
        equality must compare mod N.
        """
        return (a_domain - b_domain) % self.modulus == 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MontgomeryDomain(modulus={self.modulus}, mults={self.mult_count})"
