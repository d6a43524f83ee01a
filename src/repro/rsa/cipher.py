"""RSA encryption/decryption/signing through the hardware exponentiator.

:class:`RSACipher` binds a key pair to
:class:`~repro.systolic.exponentiator.ModularExponentiator` instances, so
every RSA operation runs the exact multiplication schedule the paper's
circuit would, with measured cycle counts.

Two decryption paths are provided:

* **direct** — one full-width exponentiation, the paper's configuration;
* **CRT** — two half-width exponentiations plus recombination, the
  standard speedup (the half-width multiplier runs ``(3(l/2)+4)``-cycle
  multiplications, so CRT costs roughly a quarter of the cycle-weighted
  work) — exercised by the CRT ablation benchmark.

Messages are integers in ``[0, N)``; padding schemes are outside the
paper's scope (it evaluates raw modular exponentiation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from repro.errors import ParameterError
from repro.montgomery.params import precompute_montgomery_constants
from repro.rsa.keygen import RSAKeyPair
from repro.systolic.exponentiator import ExponentiationRun, ModularExponentiator

__all__ = ["RSACipher", "RSAOperation", "crt_exponentiate"]


@dataclass(frozen=True)
class RSAOperation:
    """Result of one RSA primitive: the value plus the measured cycles."""

    value: int
    cycles: int
    multiplications: int


class RSACipher:
    """RSA primitives over the systolic exponentiator model.

    Parameters
    ----------
    key:
        The key pair (public operations need only modulus/E).
    engine:
        ``"golden"`` (default; big-int multiplications with exact RTL
        cycle accounting — practical at RSA sizes) or ``"rtl"`` (full
        cycle-accurate hardware model; practical for small/demo keys).
    """

    def __init__(self, key: RSAKeyPair, engine: Literal["rtl", "golden"] = "golden"):
        self.key = key
        self.engine = engine
        # The cached constants are shared with every other consumer of the
        # same modulus (notably the serving layer's batch scheduler).
        self._exp = ModularExponentiator(
            precompute_montgomery_constants(key.modulus), engine
        )
        self._exp_p = ModularExponentiator(precompute_montgomery_constants(key.p), engine)
        self._exp_q = ModularExponentiator(precompute_montgomery_constants(key.q), engine)

    # ------------------------------------------------------------------
    def _check_message(self, m: int) -> int:
        if not 0 <= m < self.key.modulus:
            raise ParameterError(
                f"message must be in [0, N); got {m} for N={self.key.modulus}"
            )
        return m

    def encrypt(self, message: int) -> RSAOperation:
        """``C = M^E mod N`` through the exponentiator."""
        self._check_message(message)
        run = self._exp.exponentiate(message, self.key.public_exponent)
        return RSAOperation(run.result, run.cycles, run.num_multiplications)

    def decrypt(self, ciphertext: int) -> RSAOperation:
        """``M = C^D mod N`` — one full-width exponentiation."""
        self._check_message(ciphertext)
        run = self._exp.exponentiate(ciphertext, self.key.private_exponent)
        return RSAOperation(run.result, run.cycles, run.num_multiplications)

    def decrypt_crt(self, ciphertext: int) -> RSAOperation:
        """CRT decryption: two half-width exponentiations + recombination
        (:func:`crt_exponentiate`)."""
        self._check_message(ciphertext)
        return crt_exponentiate(
            ciphertext, self.key.private_exponent, self._exp_p, self._exp_q
        )

    def sign(self, message: int) -> RSAOperation:
        """Textbook RSA signature: ``S = M^D mod N``."""
        return self.decrypt(message)

    def verify(self, message: int, signature: int) -> bool:
        """Check ``S^E ≡ M (mod N)``."""
        self._check_message(message)
        return self.encrypt(signature).value == message

    @property
    def total_cycles(self) -> int:
        """Cycles consumed across all operations on all three exponentiators."""
        return self._exp.cycles + self._exp_p.cycles + self._exp_q.cycles


def crt_exponentiate(
    base: int,
    exponent: int,
    exp_p: ModularExponentiator,
    exp_q: ModularExponentiator,
) -> RSAOperation:
    """``base^exponent mod p·q`` by the CRT, over one exponentiator per prime.

    Two half-width exponentiations with ``exponent mod (p-1)`` and
    ``exponent mod (q-1)``, then Garner recombination:
    ``h = q_inv·(m_p - m_q) mod p``, ``M = m_q + h·q``.  The recombination
    multiply is done host-side (it is one multiplication; a real device
    would reuse the multiplier), so the cycles reported are the two
    exponentiations — the dominant term.  A half-exponent of 0 (``p-1``
    divides the exponent, reachable only with toy keys) spends no
    multiplications: ``x^0`` is 1 for invertible ``x`` and 0 for ``x = 0``.
    """
    runs = []
    for exp in (exp_p, exp_q):
        prime = exp.ctx.modulus
        residue, d_half = base % prime, exponent % (prime - 1)
        if d_half == 0:
            runs.append(ExponentiationRun(result=1 % prime if residue else 0, cycles=0))
        else:
            runs.append(exp.exponentiate(residue, d_half))
    run_p, run_q = runs
    p, q = exp_p.ctx.modulus, exp_q.ctx.modulus
    h = (pow(q, -1, p) * (run_p.result - run_q.result)) % p
    return RSAOperation(
        run_q.result + h * q,
        run_p.cycles + run_q.cycles,
        run_p.num_multiplications + run_q.num_multiplications,
    )
