"""Cross-backend equivalence: every engine computes the same modexp.

One seeded vector set per width class drives every registered backend —
small operands for the cycle-stepped simulators, larger ones for the
big-int paths — and each result is checked against CPython's ``pow``.
This is the contract that lets the scheduler treat backends as
interchangeable.
"""

from __future__ import annotations

import random

import pytest

from repro.montgomery.params import precompute_montgomery_constants
from repro.rsa.primes import generate_prime
from repro.serving.backends import default_registry
from repro.serving.request import ModExpRequest
from repro.utils.rng import random_odd_modulus

REGISTRY = default_registry()

#: vectors per vector set; simulators get few (they step every cycle).
#: A set is named after its backend; ``rtl@7`` is a second set for
#: ``rtl`` that keeps netlist widths up to 10 bits covered.
VECTORS = {
    "integer": 6,
    "crt-rsa": 4,
    "highradix": 6,
    "rtl": 3,
    "rtl@7": 2,
    "chip": 2,
}

#: modulus bit length per backend (simulators stay tiny).
BITS = {
    "integer": 96,
    "crt-rsa": 48,
    "highradix": 80,
    "rtl": 12,
    "rtl@7": 7,
    "chip": 10,
}


def _vectors(name: str) -> list:
    rng = random.Random(f"equivalence:{name}")  # str seeds are stable
    out = []
    for _ in range(VECTORS[name]):
        if name == "crt-rsa":
            p = generate_prime(BITS[name] // 2, rng)
            q = generate_prime(BITS[name] // 2, rng)
            while q == p:
                q = generate_prime(BITS[name] // 2, rng)
            n = p * q
            out.append(
                ModExpRequest(
                    rng.randrange(n), rng.randrange(1, n), n, factors=(p, q)
                )
            )
        else:
            n = random_odd_modulus(BITS[name], rng)
            out.append(ModExpRequest(rng.randrange(n), rng.randrange(1, n), n))
    return out


@pytest.mark.parametrize("name", REGISTRY.names() + ["rtl@7"])
def test_backend_matches_builtin_pow(name):
    backend = REGISTRY.get(name.partition("@")[0])
    for request in _vectors(name):
        assert backend.reject_reason(request) is None
        ctx = precompute_montgomery_constants(request.modulus, request.l)
        result = backend.execute(ctx, request)
        assert result.value % request.modulus == request.expected(), (
            f"{name} disagrees with pow() on {request}"
        )


@pytest.mark.parametrize("name", REGISTRY.names() + ["rtl@7"])
def test_backend_reports_cycles(name):
    backend = REGISTRY.get(name.partition("@")[0])
    request = _vectors(name)[0]
    ctx = precompute_montgomery_constants(request.modulus, request.l)
    result = backend.execute(ctx, request)
    assert result.cycles is not None and result.cycles > 0
    # One cost source: the scheduler's model is the count execute reports.
    assert backend.model_cycles(request) == result.cycles
    assert backend.estimate_cost(request) > 0


def test_same_vector_across_all_software_backends():
    """One shared vector through every width-unlimited factor-free backend.

    The same vector drives the Tenca–Koç scalable kernel in
    ``tests/baselines/test_scalable.py``.
    """
    rng = random.Random(2003)
    n = random_odd_modulus(64, rng)
    request = ModExpRequest(rng.randrange(n), rng.randrange(1, n), n)
    ctx = precompute_montgomery_constants(n)
    values = {
        name: REGISTRY.get(name).execute(ctx, request).value % n
        for name in ("integer", "highradix")
    }
    assert set(values.values()) == {request.expected()}


@pytest.mark.parametrize("l", [16, 32, 64])
def test_estimate_cost_ranks_capable_backends_by_measured_wall_time(l):
    """Failover and brownout pick the cheapest capable backend; the cost
    order must be the measured wall-time order at full-width exponents."""
    rng = random.Random(f"rank:{l}")
    n = random_odd_modulus(l, rng)
    request = ModExpRequest(rng.randrange(n), n - 2, n)
    capable = [b for b in REGISTRY if b.reject_reason(request) is None]
    ranked = sorted(capable, key=lambda b: b.estimate_cost(request))
    assert [b.name for b in ranked] == ["highradix", "integer", "rtl", "chip"]
    costs = [b.estimate_cost(request) for b in ranked]
    assert costs == sorted(set(costs))  # strict: no ties to break
