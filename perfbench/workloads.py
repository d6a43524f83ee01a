"""The benchmark's workloads, their inputs and the two correctness checks.

Each workload is one traffic shape chosen so that a different layer of the
stack does most of its work (see README.md).  Inputs come from
:func:`repro.serving.workload.generate_workload`:

* the **keyring** is generated once per workload, from the workload's own
  name, so it is the same on every run.  With 4 or 8 keys on 2 shards, the
  consistent-hash placement of the keys decides how evenly the shard plane
  splits the work; a keyring drawn from ``--seed`` made ``shard_rps`` swing
  by 26 % (rsa-f4) and 55 % (gate-mixed) of its median between seeds;
* the **traffic** (which key each request uses, its base and exponent) is
  generated from ``--seed``, and each request is moved onto the key of the
  same Zipf rank in the fixed keyring.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from repro.serving import ModExpRequest, WorkloadConfig, generate_workload
from repro.systolic.timing import exponentiation_cycles_measured_model

#: Shard count of the shard plane: the 2 cores of the reference machine.
SHARDS = 2


@dataclass(frozen=True)
class Spec:
    """One workload: what it sends, on which backend, in what call sizes.

    ``config.requests`` is the length of the generated trace; a measuring
    window that outlasts it cycles through the trace again.
    """

    name: str
    why: str
    config: WorkloadConfig
    backend: str
    #: requests per ``process()`` call; also the service's ``max_batch``
    call_size: int
    #: calls per plane per interleaving round
    block: int
    #: calls replayed through each layer in isolation by the traced run
    replay_calls: int


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="rsa-f4",
            why=(
                "RSA public-key traffic: the Montgomery primitive and the "
                "exponentiator do >95% of the work, transport is noise"
            ),
            config=WorkloadConfig(
                requests=2048, keys=8, bits=(1024, 2048), f4_share=1.0
            ),
            backend="integer",
            call_size=16,
            block=1,
            replay_calls=4,
        ),
        Spec(
            name="tiny-rpc",
            why=(
                "one-request RPCs on 16-32 bit keys: admission, coalesce, "
                "frames, the pipe and future resolution set the latency"
            ),
            config=WorkloadConfig(
                requests=4096,
                keys=16,
                bits=(16, 24, 32),
                exponent_bits=(4, 5, 6, 7, 8),
            ),
            backend="integer",
            call_size=1,
            block=32,
            replay_calls=256,
        ),
        Spec(
            name="gate-mixed",
            why=(
                "bulk gate-level simulation on the rtl backend: compiled lane "
                "sweeps do the work, mixed exponents leave lanes empty"
            ),
            config=WorkloadConfig(
                requests=2048, keys=4, bits=(16, 32), exponent_bits=(8,)
            ),
            backend="rtl",
            call_size=128,
            block=1,
            replay_calls=1,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything one run sends: the fixed keyring, warm-up and calls."""

    keyring: List[int]
    warmup: List[ModExpRequest]
    calls: List[List[ModExpRequest]]


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """The exact inputs of ``spec`` for ``seed``."""
    keyring = generate_workload(replace(spec.config, requests=0), spec.name).keyring
    traffic = generate_workload(spec.config, str(seed))
    fixed = dict(zip(traffic.keyring, keyring))
    requests = [
        replace(r, modulus=fixed[r.modulus], base=r.base % fixed[r.modulus])
        for r in traffic.requests
    ]
    calls = [
        requests[lo : lo + spec.call_size]
        for lo in range(0, len(requests), spec.call_size)
    ]
    # One warm-up call touches every key once (constants, kernels, shard homes).
    warmup = [
        ModExpRequest(
            base=2,
            exponent=requests[0].exponent,
            modulus=n,
            request_id=f"warmup-{k}",
        )
        for k, n in enumerate(keyring)
    ]
    return Inputs(keyring=keyring, warmup=warmup, calls=calls)


def check(request: ModExpRequest, value, cycles) -> bool:
    """Both correctness checks: the ``pow()`` value and the Eq. (10) cycles."""
    return (
        value == pow(request.base, request.exponent, request.modulus)
        and cycles
        == exponentiation_cycles_measured_model(request.width, request.exponent).total
    )


class Tally:
    """Requests attempted and failed over a whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def results(self, requests: Sequence[ModExpRequest], results) -> int:
        """Check one call's results; returns how many passed both checks."""
        good = sum(
            1
            for request, result in zip(requests, results)
            if result.ok and check(request, result.value, result.cycles)
        )
        self.attempted += len(requests)
        self.failed += len(requests) - good
        return good

    def add(self, attempted: int, good: int) -> None:
        """Count results checked outside a ``process()`` call."""
        self.attempted += attempted
        self.failed += attempted - good

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
