"""The backend registry: every modexp engine behind one protocol.

The repository has five ways to compute ``base^exponent mod N`` — the
pure-integer Algorithm 2 fast path, CRT-RSA, the systolic MMMC on
compiled gate-level kernels, word-based high-radix software and the
multi-tile chip.  The serving layer treats them as interchangeable
:class:`ModExpBackend` implementations, each declaring
:class:`BackendCapabilities` (operand-width ceiling, whether its cycle
counts are measured or modelled, whether it is safe to ship to process
workers) and a cost the batch scheduler orders dispatch by.  Every
backend drives the library's one Algorithm 3 schedule,
:func:`repro.montgomery.exponent.modexp_chain` — the two golden ones
(``integer``, ``crt-rsa``) through
:class:`~repro.systolic.exponentiator.ModularExponentiator`, the rest
directly — and its cost is an exact count of that schedule,
:func:`~repro.montgomery.exponent.chain_length` multiplications times the
backend's per-multiplication latency, so ``model_cycles`` equals the
cycles ``execute`` reports.

All backends receive the batch's pre-computed
:class:`~repro.montgomery.params.MontgomeryContext`, so the Montgomery
constants are derived once per distinct modulus per batch, never per
request (see :mod:`repro.serving.scheduler`).

The :func:`default_registry` registers everything under its canonical
name; worker processes re-resolve backends by name through it, so only
*custom* backends (tests, experiments) are restricted to thread/inline
pools.
"""

from __future__ import annotations

import functools
import threading
from abc import ABC, abstractmethod
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional

from repro.errors import FaultDetected, ParameterError
from repro.montgomery.exponent import chain_length, modexp_chain, run_chain
from repro.montgomery.params import MontgomeryContext
from repro.robustness.verify import walter_bound_ok
from repro.serving.request import ModExpRequest

__all__ = [
    "BackendCapabilities",
    "BackendResult",
    "ModExpBackend",
    "BackendRegistry",
    "default_registry",
    "IntegerBackend",
    "CRTBackend",
    "RTLBackend",
    "HighRadixBackend",
]


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can serve and how its costs should be read.

    Attributes
    ----------
    description:
        One-line summary for ``repro backends`` and the docs matrix.
    max_bits:
        Operand-width ceiling (``None`` = unbounded).  The simulators are
        capped where a single exponentiation stays interactive.
    cycle_accurate:
        True when reported cycles are measured (the simulators) or proven
        equal to measured (the golden accounting); False when modelled.
    simulator:
        True for backends that step a hardware model cycle by cycle.
    process_safe:
        True when ``worker_kind="auto"`` may put the backend on shard
        worker processes (resolvable by name in a fresh interpreter,
        CPU-bound big-int work).  Simulators default to thread workers
        so their observability hooks keep feeding the parent's metrics
        registry.
    requires_factors:
        True when requests must carry ``factors=(p, q)``.
    lanes:
        Bit-sliced lane width (``1`` = scalar only).  When greater than 1
        the service hands :meth:`ModExpBackend.execute_many` whole groups
        of same-modulus, same-exponent requests, which the backend packs
        as bit-slices of one netlist sweep (see
        :meth:`~repro.systolic.mmmc_netlist.GateLevelMMMC.multiply_lanes`).
    mixed_exponent_lanes:
        True when ``execute_many`` groups need *not* share an exponent.
        Bit-sliced sweeps advance every lane in lock-step, so they demand
        a common square-and-multiply schedule; the chip backend instead
        interleaves independent multiplication chains, so the service may
        pack any same-modulus requests of one batch into a group.
    """

    description: str
    max_bits: Optional[int] = None
    cycle_accurate: bool = True
    simulator: bool = False
    process_safe: bool = True
    requires_factors: bool = False
    lanes: int = 1
    mixed_exponent_lanes: bool = False


@dataclass(frozen=True)
class BackendResult:
    """Value plus the backend's cycle accounting for one request."""

    value: int
    cycles: Optional[int] = None


class ModExpBackend(ABC):
    """One modular-exponentiation engine behind the serving layer.

    Subclasses set ``name`` and ``capabilities`` and implement
    :meth:`estimate_cost` / :meth:`execute`.  ``execute`` may assume the
    request passed :meth:`reject_reason` (the service checks before
    dispatch).
    """

    name: str = ""
    capabilities: BackendCapabilities

    #: Rough wall-time per modelled cycle *relative to the integer
    #: backend* — simulators pay orders of magnitude more per cycle, and
    #: the scheduler's cost ordering should reflect wall time, not only
    #: the hardware cycle count.
    wall_weight: float = 1.0

    def reject_reason(self, request: ModExpRequest) -> Optional[str]:
        """Why this backend cannot serve ``request`` (``None`` = it can)."""
        caps = self.capabilities
        if caps.max_bits is not None and request.width > caps.max_bits:
            return (
                f"operand width {request.width} exceeds backend "
                f"{self.name!r} limit of {caps.max_bits} bits"
            )
        if caps.requires_factors and request.factors is None:
            return f"backend {self.name!r} needs factors=(p, q) on the request"
        return None

    def estimate_cost(self, request: ModExpRequest) -> float:
        """Scheduler cost: modelled cycles weighted by wall-time factor."""
        return self.model_cycles(request) * self.wall_weight

    def model_cycles(self, request: ModExpRequest) -> int:
        """Hardware cycles of one exponentiation: the cycles ``execute`` reports.

        Default: the :func:`~repro.montgomery.exponent.chain_length`
        multiplications of Algorithm 3 (pre and post included), each
        costing the corrected array latency ``3l+5``.
        """
        from repro.systolic.timing import mmm_cycles_corrected

        return chain_length(request.exponent) * mmm_cycles_corrected(request.width)

    @abstractmethod
    def execute(
        self, ctx: MontgomeryContext, request: ModExpRequest
    ) -> BackendResult:
        """Run the exponentiation with the batch's shared constants."""

    def execute_many(
        self, ctx: MontgomeryContext, requests: List[ModExpRequest]
    ) -> List[BackendResult]:
        """Run several requests sharing ``ctx``; results in input order.

        The service calls this (instead of per-request :meth:`execute`
        tasks) for backends declaring ``capabilities.lanes > 1``, passing
        same-modulus groups from one coalesced batch.  The default runs
        them sequentially; lane-capable backends override it to pack
        same-exponent requests into one bit-sliced sweep.
        """
        return [self.execute(ctx, request) for request in requests]


def _check_walter(t: int, n: int, what: str = "Montgomery product") -> int:
    """Return ``t`` if it satisfies Walter's ``T < 2N`` bound, else raise.

    The bound is the invariant the paper's ``R > 4N`` choice guarantees,
    so a register upset that pushes a product out of range fails loudly
    (:class:`~repro.errors.FaultDetected`) in the worker instead of
    propagating into a silently wrong result.
    """
    if not walter_bound_ok(t, n):
        raise FaultDetected(
            f"{what} {t} outside [0, {2 * n}) — Walter T < 2N invariant "
            "violated mid-exponentiation",
            check="walter-bound",
        )
    return t


def _square_multiply(mont, r2: int, base: int, exponent: int, n: int) -> int:
    """Drive one Algorithm 3 chain over a Montgomery-multiply callable.

    ``mont(x, y)`` must compute ``x·y·R⁻¹ mod N`` for whatever ``R`` the
    backend uses; ``r2`` is ``R² mod N`` in the same convention.  Every
    product is checked against Walter's bound (:func:`_check_walter`).
    """
    return run_chain(
        lambda _kind, x, y: _check_walter(mont(x, y), n), base, exponent, r2
    )


def _check_cycles(l: int, exponent: int, cycles: int) -> None:
    """Eq. (10) cross-check: measured cycles equal the closed-form model."""
    from repro.systolic.timing import exponentiation_cycles_measured_model

    expected = exponentiation_cycles_measured_model(l, exponent).total
    if cycles != expected:
        raise AssertionError(f"measured {cycles} cycles, cost model says {expected}")


# ----------------------------------------------------------------------
# Concrete backends
# ----------------------------------------------------------------------
class IntegerBackend(ModExpBackend):
    """Pure-integer Algorithm 2 with the proven RTL cycle accounting.

    The production fast path: big-int multiplications at any width, with
    cycle counts the test suite proves identical to the measured RTL
    model.  Process-safe and the default backend of ``repro serve``.
    """

    name = "integer"
    capabilities = BackendCapabilities(
        description="big-integer Algorithm 2, exact 3l+5 cycle accounting",
        max_bits=None,
        cycle_accurate=True,
        simulator=False,
        process_safe=True,
    )

    def execute(self, ctx, request):
        from repro.systolic.exponentiator import ModularExponentiator

        run = ModularExponentiator(ctx, engine="golden").exponentiate(
            request.base, request.exponent
        )
        return BackendResult(run.result, run.cycles)


class CRTBackend(ModExpBackend):
    """CRT-RSA: two half-width exponentiations plus Garner recombination.

    Requires ``factors=(p, q)`` with p, q prime (the standard RSA private
    operation).  Roughly 4× cheaper in cycle-weighted work because the
    half-width multiplier runs ``3(l/2)+5``-cycle multiplications over
    half-length exponents.
    """

    name = "crt-rsa"
    capabilities = BackendCapabilities(
        description="two half-width golden exponentiations + Garner",
        max_bits=None,
        cycle_accurate=True,
        simulator=False,
        process_safe=True,
        requires_factors=True,
    )

    def model_cycles(self, request):
        """Both half-width chains, as :func:`~repro.rsa.cipher.crt_exponentiate`
        runs them; a zero half-exponent spends no multiplications."""
        from repro.systolic.timing import mmm_cycles_corrected

        return sum(
            chain_length(request.exponent % (prime - 1))
            * mmm_cycles_corrected(prime.bit_length())
            for prime in request.factors
        )

    def execute(self, ctx, request):
        from repro.rsa.cipher import crt_exponentiate
        from repro.systolic.exponentiator import ModularExponentiator

        exp_p, exp_q = (
            ModularExponentiator.for_modulus(prime) for prime in request.factors
        )
        op = crt_exponentiate(request.base, request.exponent, exp_p, exp_q)
        return BackendResult(op.value, op.cycles)


class RTLBackend(ModExpBackend):
    """Cycle-accurate systolic MMMC (the paper's datapath) on compiled kernels.

    Every multiplication runs through the gate-level netlist of the MMMC
    (:class:`~repro.systolic.mmmc_netlist.GateLevelMMMC`) on the compiled
    kernel engine, which the equivalence suite proves cycle- and
    bit-identical to the behavioral :class:`~repro.systolic.mmmc.MMMC`
    and to the interpreted simulator.  Each operand width gets one scalar
    instance for :meth:`execute` and one K-lane instance for the
    bit-sliced :meth:`execute_many` path; they share one codegen'd kernel
    through the structural-key cache (lane count is bound per simulator,
    not per kernel).  The simulators are stateful, so a lock keeps thread
    workers from interleaving multiplications on one instance.
    """

    name = "rtl"
    capabilities = BackendCapabilities(
        description="cycle-accurate MMMC on compiled gate-level kernels",
        max_bits=64,
        cycle_accurate=True,
        simulator=True,
        process_safe=False,
        lanes=64,
    )
    wall_weight = 200.0

    def __init__(self) -> None:
        self._scalar: Dict[int, object] = {}
        self._vector: Dict[int, object] = {}
        self._lock = threading.Lock()

    def _mmmc(self, l: int, lanes: int = 1):
        cache = self._scalar if lanes <= 1 else self._vector
        inst = cache.get(l)
        if inst is None:
            from repro.systolic.mmmc_netlist import GateLevelMMMC

            inst = cache[l] = GateLevelMMMC(l, simulator="compiled", lanes=lanes)
        return inst

    def execute(self, ctx, request):
        n = ctx.modulus
        cycles = 0
        with self._lock:
            gate = self._mmmc(ctx.l)

            def mont(x: int, y: int) -> int:
                nonlocal cycles
                rec = gate.multiply(x, y, n)
                cycles += rec.cycles
                return rec.result

            value = _square_multiply(
                mont, ctx.r2_mod_n, request.base, request.exponent, n
            )
        _check_cycles(ctx.l, request.exponent, cycles)
        return BackendResult(value % n, cycles)

    def _execute_lanes(
        self, ctx: MontgomeryContext, requests: List[ModExpRequest]
    ) -> List[BackendResult]:
        """K same-exponent chains in lock-step, one bit-sliced sweep a step.

        Caller holds ``self._lock`` and guarantees every request shares
        ``ctx`` and the exponent: the lanes advance together, so the
        multiplication schedule must be common.
        """
        n = ctx.modulus
        gate = self._mmmc(ctx.l, self.capabilities.lanes)
        chains = [modexp_chain(r.base, r.exponent, ctx.r2_mod_n) for r in requests]
        ops = [next(chain) for chain in chains]
        ns = [n] * len(requests)
        cycles = 0
        while True:
            xs, ys = [x for _, x, _ in ops], [y for _, _, y in ops]
            runs = gate.multiply_lanes(xs, ys, ns)
            cycles += runs[0].cycles  # lock-step: every lane pays the same
            products = [
                _check_walter(run.result, n, f"lane {k}: Montgomery product")
                for k, run in enumerate(runs)
            ]
            try:
                ops = [chain.send(p) for chain, p in zip(chains, products)]
            except StopIteration:
                # A shared exponent is a shared schedule: every chain ends
                # on this step, returning the product it was just sent.
                break
        _check_cycles(ctx.l, requests[0].exponent, cycles)
        return [BackendResult(p % n, cycles) for p in products]

    def execute_many(self, ctx, requests):
        """Same-exponent lane groups as one sweep each; singletons scalar.

        A one-request group stays on the scalar instance: sweeping one
        live lane of a 64-lane kernel costs more than the scalar kernel.
        """
        # Imported here: repro.serving.scheduler imports this module.
        from repro.serving.scheduler import lane_groups

        done: Dict[int, Deque[BackendResult]] = defaultdict(deque)
        for group in lane_groups(requests, self.capabilities.lanes):
            if len(group) == 1:
                outs = [self.execute(ctx, group[0])]
            else:
                with self._lock:
                    outs = self._execute_lanes(ctx, group)
            done[group[0].exponent].extend(outs)
        # lane_groups keeps batch order within an exponent.
        return [done[r.exponent].popleft() for r in requests]

    def execute_with_register_fault(self, ctx, request, rng):
        """Chaos hook: one seeded register bit flip mid-exponentiation.

        Runs the request on the width's scalar netlist instance with a
        single-event upset scheduled into one randomly chosen
        multiplication (register class, bit and cycle drawn from
        ``rng``).  The flip may be masked (shadow-phase state), detected
        in-worker by the Walter-bound check, or surface as a silently
        wrong value for the service verifier to catch — the same three
        outcomes a real SEU has.
        """
        from repro.analysis.fault import REGISTER_CLASSES, FaultSite

        n = ctx.modulus
        l = ctx.l
        reg_class = rng.choice(REGISTER_CLASSES)
        cycles = 0
        mults = 0
        with self._lock:
            gate = self._mmmc(l)
            widths = {r: len(ws) for r, ws in gate.fault_sites().items()}
            site = FaultSite(
                cycle=rng.randrange(3 * l + 4),
                register=reg_class,
                index=rng.randrange(widths[reg_class]),
            )
            target = rng.randrange(chain_length(request.exponent))

            def mont(x: int, y: int) -> int:
                nonlocal cycles, mults
                if mults == target:
                    gate.schedule_fault(site)
                mults += 1
                rec = gate.multiply(x, y, n)
                cycles += rec.cycles
                return rec.result

            value = _square_multiply(
                mont, ctx.r2_mod_n, request.base, request.exponent, n=n
            )
        return BackendResult(value % n, cycles)


class HighRadixBackend(ModExpBackend):
    """Word-based (radix-2^α) CIOS software baseline.

    Functional arithmetic from :mod:`repro.montgomery.radix`; cycles come
    from the :class:`~repro.baselines.highradix.HighRadixModel` latency
    model (modelled, not measured — ``cycle_accurate=False``).
    """

    name = "highradix"
    capabilities = BackendCapabilities(
        description="word-based CIOS Montgomery, modelled cycles",
        max_bits=None,
        cycle_accurate=False,
        simulator=False,
        process_safe=True,
    )

    word_bits = 16  # radix 2^16: one CIOS word per 16 operand bits

    def model_cycles(self, request):
        from repro.baselines.highradix import HighRadixModel

        mmm = HighRadixModel(request.width, self.word_bits).mmm_cycles
        return chain_length(request.exponent) * mmm

    def execute(self, ctx, request):
        from repro.montgomery.radix import WordMontgomeryParams, mont_mul_cios

        n = ctx.modulus
        params = WordMontgomeryParams(n, self.word_bits)
        r2 = (params.R * params.R) % n
        mont = functools.partial(mont_mul_cios, params)
        value = _square_multiply(mont, r2, request.base, request.exponent, n=n)
        return BackendResult(value % n, self.model_cycles(request))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class BackendRegistry:
    """Name → backend mapping with a capability matrix for docs/CLI."""

    def __init__(self) -> None:
        self._backends: Dict[str, ModExpBackend] = {}

    def register(self, backend: ModExpBackend, *, replace: bool = False) -> None:
        if not backend.name:
            raise ParameterError("backend must declare a non-empty name")
        if backend.name in self._backends and not replace:
            raise ParameterError(f"backend {backend.name!r} already registered")
        self._backends[backend.name] = backend

    def get(self, name: str) -> ModExpBackend:
        try:
            return self._backends[name]
        except KeyError:
            raise ParameterError(
                f"unknown backend {name!r}; registered: {', '.join(self.names())}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._backends)

    def __contains__(self, name: str) -> bool:
        return name in self._backends

    def __len__(self) -> int:
        return len(self._backends)

    def __iter__(self) -> Iterator[ModExpBackend]:
        return iter(self._backends[n] for n in self.names())

    def capability_rows(self) -> List[List[object]]:
        """Rows for ``repro backends`` / the docs capability matrix."""
        rows = []
        for b in self:
            caps = b.capabilities
            rows.append(
                [
                    b.name,
                    "∞" if caps.max_bits is None else caps.max_bits,
                    "measured" if caps.cycle_accurate else "modelled",
                    "yes" if caps.simulator else "no",
                    "shard" if caps.process_safe else "thread",
                    "yes" if caps.requires_factors else "no",
                    caps.description,
                ]
            )
        return rows


def default_registry() -> BackendRegistry:
    """A fresh registry holding every built-in backend."""
    # Imported here, not at module top: repro.chip.backend subclasses
    # ModExpBackend from this module, so a top-level import would cycle.
    from repro.chip.backend import ChipBackend

    reg = BackendRegistry()
    for backend in (
        IntegerBackend(),
        CRTBackend(),
        RTLBackend(),
        HighRadixBackend(),
        ChipBackend(),
    ):
        reg.register(backend)
    return reg
