"""Seeded, reproducible serving workloads: keyrings, Zipf traffic, bursts.

Every scaling claim in this repository needs the same three ingredients —
a keyring of moduli, a skewed popularity distribution over them, and an
open-loop arrival process — and ad-hoc ``random.Random`` loops in each
benchmark make cross-benchmark comparisons meaningless.  This module is
the single generator: one :class:`WorkloadConfig` plus a seed maps to one
exact request sequence, forever.

* **Keyring** — ``keys`` odd moduli drawn per configured bit width
  (round-robin over ``bits``), derived from the seed; key ``k`` of a
  config is stable under changes to every other knob.
* **Popularity** — key ranks are Zipf-weighted (``1/(rank+1)^s``): a few
  hot keys dominate, the tail stays warm — the shape that makes
  per-modulus batch coalescing interesting.
* **Exponents** — a configurable share of requests uses the fixed RSA
  verification exponent 65537; the rest draw random exponents of a
  random configured bit size (mixed exponents split bit-sliced lane
  groups, since lock-stepped lanes need a shared schedule).
* **Arrivals** — open loop: exponential inter-arrival times at ``rate``
  requests/second, multiplied by ``burst_factor`` inside periodic burst
  windows (``burst_every`` seconds apart, ``burst_len`` long).  The
  arrival time lands in ``ModExpRequest.deadline``, so the batch
  scheduler processes traffic in arrival order and queue-depth dynamics
  follow the bursts.
* **Priority mix** — an ``interactive_share`` of requests (drawn
  per-request from the same trace RNG, so the mix is reproducible) is
  tagged ``priority="interactive"``; each class can carry its own
  relative deadline budget (``interactive_budget_s`` /
  ``batch_budget_s``), which the service turns into an absolute
  ``expires_at`` at admission.  This is what the overload drill uses to
  show interactive traffic surviving a 2× overload while batch sheds.

``repro loadgen`` writes the result as JSON-lines via
:func:`~repro.serving.wire.request_to_json`, directly consumable by
``repro batch`` / ``repro serve``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ParameterError
from repro.serving.request import ModExpRequest
from repro.utils.rng import random_odd_modulus

__all__ = ["WorkloadConfig", "Workload", "generate_workload"]

#: The ubiquitous RSA public exponent.
F4 = 65537


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of one reproducible workload.  See the module docstring."""

    requests: int = 200
    keys: int = 8
    bits: Tuple[int, ...] = (16, 24, 32)
    zipf_s: float = 1.1
    exponent_bits: Tuple[int, ...] = (8, 16)
    f4_share: float = 0.0
    rate: float = 200.0
    burst_factor: float = 1.0
    burst_every: float = 1.0
    burst_len: float = 0.25
    interactive_share: float = 0.0
    interactive_budget_s: Optional[float] = None
    batch_budget_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.requests < 0:
            raise ParameterError(f"requests must be >= 0, got {self.requests}")
        if self.keys < 1:
            raise ParameterError(f"keys must be >= 1, got {self.keys}")
        if not self.bits or any(b < 4 for b in self.bits):
            raise ParameterError(f"bits must be widths >= 4, got {self.bits}")
        if self.zipf_s < 0:
            raise ParameterError(f"zipf_s must be >= 0, got {self.zipf_s}")
        if not self.exponent_bits or any(b < 1 for b in self.exponent_bits):
            raise ParameterError(
                f"exponent_bits must be sizes >= 1, got {self.exponent_bits}"
            )
        if not 0.0 <= self.f4_share <= 1.0:
            raise ParameterError(f"f4_share must be in [0, 1], got {self.f4_share}")
        if self.rate <= 0:
            raise ParameterError(f"rate must be > 0, got {self.rate}")
        if self.burst_factor < 1.0:
            raise ParameterError(
                f"burst_factor must be >= 1, got {self.burst_factor}"
            )
        if self.burst_every <= 0 or not 0 <= self.burst_len <= self.burst_every:
            raise ParameterError(
                "need burst_every > 0 and 0 <= burst_len <= burst_every, got "
                f"{self.burst_every}/{self.burst_len}"
            )
        if not 0.0 <= self.interactive_share <= 1.0:
            raise ParameterError(
                f"interactive_share must be in [0, 1], got {self.interactive_share}"
            )
        for name in ("interactive_budget_s", "batch_budget_s"):
            budget = getattr(self, name)
            if budget is not None and budget <= 0:
                raise ParameterError(f"{name} must be > 0, got {budget}")


@dataclass(frozen=True)
class Workload:
    """The generated trace: requests (arrival order) and their keyring."""

    config: WorkloadConfig
    seed: str
    requests: List[ModExpRequest] = field(default_factory=list)
    keyring: List[int] = field(default_factory=list)
    arrivals: List[float] = field(default_factory=list)

    def key_histogram(self) -> Dict[int, int]:
        """Requests per keyring modulus (popularity check)."""
        counts: Dict[int, int] = {n: 0 for n in self.keyring}
        for r in self.requests:
            counts[r.modulus] += 1
        return counts

    def summary_rows(self) -> List[List[object]]:
        """Table rows for the CLI: rank, bits, share, requests."""
        counts = self.key_histogram()
        total = max(len(self.requests), 1)
        return [
            [rank, n.bit_length(), counts[n], f"{counts[n] / total:.1%}"]
            for rank, n in enumerate(self.keyring)
        ]


def _keyring(config: WorkloadConfig, seed: str) -> List[int]:
    ring: List[int] = []
    for k in range(config.keys):
        bits = config.bits[k % len(config.bits)]
        rng = random.Random(f"{seed}/key{k}/{bits}")
        n = random_odd_modulus(bits, rng)
        ring.append(n)
    return ring


def _zipf_weights(count: int, s: float) -> Sequence[float]:
    return [1.0 / (rank + 1) ** s for rank in range(count)]


def _in_burst(t: float, config: WorkloadConfig) -> bool:
    return config.burst_factor > 1.0 and (t % config.burst_every) < config.burst_len


def generate_workload(
    config: WorkloadConfig = WorkloadConfig(), seed: str = "workload"
) -> Workload:
    """The one exact request sequence for ``(config, seed)``."""
    keyring = _keyring(config, seed)
    weights = _zipf_weights(config.keys, config.zipf_s)
    rng = random.Random(f"{seed}/trace")
    requests: List[ModExpRequest] = []
    arrivals: List[float] = []
    t = 0.0
    for i in range(config.requests):
        rate = config.rate * (config.burst_factor if _in_burst(t, config) else 1.0)
        t += rng.expovariate(rate)
        n = rng.choices(keyring, weights=weights, k=1)[0]
        if config.f4_share and rng.random() < config.f4_share:
            exponent = F4
        else:
            ebits = rng.choice(config.exponent_bits)
            exponent = rng.randrange(1 << (ebits - 1), 1 << ebits) if ebits > 1 else 1
        interactive = (
            config.interactive_share > 0
            and rng.random() < config.interactive_share
        )
        priority = "interactive" if interactive else "batch"
        budget = (
            config.interactive_budget_s if interactive else config.batch_budget_s
        )
        requests.append(
            ModExpRequest(
                base=rng.randrange(1, n),
                exponent=exponent,
                modulus=n,
                request_id=f"{seed}-{i:05d}",
                deadline=t,
                priority=priority,
                budget_s=budget,
            )
        )
        arrivals.append(t)
    return Workload(
        config=config, seed=seed, requests=requests, keyring=keyring, arrivals=arrivals
    )
