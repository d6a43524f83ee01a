"""W-way wave interleaving of independent MMM streams through one array.

The idea (see :mod:`repro.chip.schedule` for the math): the ``2i+j``
schedule uses each cell only on cycles matching the cell's parity, and a
multiplication's productive rows sweep a bounded window of same-parity
cells.  A second, *independent* operand stream issued on the opposite
clock parity — or on the same parity at least ``2(l+2)`` cycles later —
computes in a provably disjoint register lattice.  The hardware cost of a
``W``-wave array is one extra X register, x/m pipeline pair and top-T
register per wave (the cell adders and the T/C0/C1 lattice are shared);
the payoff is idle fraction dropping from ``1-(l+2)/(3l+4)`` (~66% at
l=64) toward zero as ``W`` grows.

Engines
-------
``engine="rtl"`` steps one :class:`~repro.systolic.array.SystolicArrayRTL`
per in-flight wave in true lock-step on a shared chip clock.  Each chip
cycle the per-wave busy masks are OR-merged and checked **pairwise
disjoint** — the structural-hazard proof obligation: if two waves ever
claimed the same cell on the same cycle, the shared adder lattice of a
real W-wave array would compute garbage, and the model raises
:class:`~repro.errors.SimulationError` instead of silently modelling an
unbuildable machine.  The merged mask feeds the occupancy recorder as a
single track, so measured idle fractions account the *shared* cell
lattice, not W copies of it.

``engine="gate"`` runs each wave's multiplication through the gate-level
:class:`~repro.systolic.mmmc_netlist.GateLevelMMMC` at issue time (the
netlist drives its own controller and cannot be single-stepped from
outside), then replays the closed-form
:func:`~repro.observability.occupancy.schedule_busy_mask` stream at the
scheduled wave offsets — the same closed form the gate engine itself
samples, which the tier-1 suite pins mask-for-mask to the RTL predicate.
Results are bit-exact netlist outputs; timing is the scheduled model.

Occupancy is sampled once per chip cycle (only while at least one wave is
in flight) under this instance's ``source`` name; the wrapped engines'
own per-cycle sampling is suppressed while they step inside the wrapper,
so a profiled interleaved run counts each shared-lattice cycle exactly
once instead of once per wave.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, List, Optional

from repro.errors import ParameterError, SimulationError
from repro.observability import OBS
from repro.observability.occupancy import schedule_busy_mask
from repro.chip.schedule import datapath_cycles, issue_interval

__all__ = ["MMMOp", "WaveOutcome", "InterleavedArray"]

_ENGINES = ("rtl", "gate")


@dataclass(frozen=True)
class MMMOp:
    """One Montgomery multiplication job: ``x·y·2^{-(l+2)} mod 2N``.

    ``tag`` is opaque routing context (``repro chip`` stores the operation
    index there); it rides along unmodified into the outcome.
    """

    x: int
    y: int
    n: int
    tag: Any = None


@dataclass(frozen=True)
class WaveOutcome:
    """One retired multiplication: result plus its wave-level timing."""

    op: MMMOp
    value: int
    cycles: int  #: the engine's own per-MMM cycle count (latency, not span)
    wave: int  #: slot index the op ran in
    issue_cycle: int  #: chip cycle the op entered the array
    done_cycle: int  #: chip cycle count at which the result existed
    tile: Optional[int] = None  #: stamped by the Tile harness


class _Flight:
    """One in-flight wave: the op, its slot engine and schedule anchors."""

    __slots__ = ("op", "start", "engine", "value", "cycles", "done")

    def __init__(self, op: MMMOp, start: int, done: int) -> None:
        self.op = op
        self.start = start
        self.done = done
        self.engine = None  # SystolicArrayRTL for the rtl engine
        self.value: Optional[int] = None  # pre-computed for the gate engine
        self.cycles: Optional[int] = None


class InterleavedArray:
    """Up to ``waves`` independent MMM streams through one cell lattice.

    Issue governor (shared with :func:`repro.chip.schedule.issue_schedule`,
    which the tests pin the simulated stream against): slot ``w`` accepts
    an op only on chip cycles of parity ``w % 2`` (vacuous at ``waves=1``)
    and only if the previous start on that parity is at least
    ``issue_interval(l)`` cycles old; the slot frees after
    ``datapath_cycles`` cycles.  :meth:`try_issue` applies the governor at
    the current cycle; :meth:`step` advances the shared clock.
    """

    def __init__(
        self,
        l: int,
        *,
        waves: int = 2,
        mode: str = "corrected",
        engine: str = "rtl",
        source: str = "interleaved",
        check_hazards: bool = True,
    ) -> None:
        if waves < 1:
            raise ParameterError(f"waves must be >= 1, got {waves}")
        if engine not in _ENGINES:
            raise ParameterError(f"engine must be one of {_ENGINES}, got {engine!r}")
        self.l = l
        self.waves = waves
        self.mode = mode
        self.engine = engine
        self.source = source
        self.check_hazards = check_hazards
        self.top_cell = l + 1 if mode == "corrected" else l
        self.num_cells = self.top_cell + 1
        self.datapath_cycles = datapath_cycles(l, mode)
        self.issue_interval = issue_interval(l)
        self.cycle = 0
        self.issued = 0
        self.retired = 0
        self.last_step_active = False
        self._slots: List[Optional[_Flight]] = [None] * waves
        self._last_start: List[Optional[int]] = [None, None]
        self._completed: List[WaveOutcome] = []
        self._rtl_engines: List[Any] = [None] * waves
        self._gate: Any = None
        self._gate_masks: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return sum(1 for f in self._slots if f is not None)

    def _ready_slot(self) -> Optional[int]:
        c = self.cycle
        for w in range(self.waves):
            if self._slots[w] is not None:
                continue
            if self.waves >= 2:
                p = w % 2
                if c % 2 != p:
                    continue
                last = self._last_start[p]
                if last is not None and c - last < self.issue_interval:
                    continue
            return w
        return None

    def can_issue(self) -> bool:
        """True when the governor admits an op at the current cycle."""
        return self._ready_slot() is not None

    def try_issue(self, op: MMMOp) -> Optional[int]:
        """Issue ``op`` now if a slot and the governor allow; returns the slot."""
        w = self._ready_slot()
        if w is None:
            return None
        flight = _Flight(op, self.cycle, self.cycle + self.datapath_cycles)
        if self.engine == "rtl":
            eng = self._rtl_engines[w]
            if eng is None:
                from repro.systolic.array import SystolicArrayRTL

                eng = self._rtl_engines[w] = SystolicArrayRTL(self.l, mode=self.mode)
            eng.load(op.x, op.y, op.n)
            flight.engine = eng
        else:
            self._gate_issue(flight)
        self._slots[w] = flight
        if self.waves >= 2:
            self._last_start[w % 2] = self.cycle
        self.issued += 1
        if OBS.enabled:
            OBS.count("chip.ops_issued", wave=str(w))
        return w

    def _gate_issue(self, flight: _Flight) -> None:
        """Gate engine: run the netlist now, schedule its mask stream."""
        if self._gate is None:
            from repro.systolic.mmmc_netlist import GateLevelMMMC

            self._gate = GateLevelMMMC(self.l, mode=self.mode, simulator="compiled")
        op = flight.op
        occ = OBS.occupancy
        OBS.occupancy = None  # the wrapper samples the merged stream itself
        try:
            run = self._gate.multiply(op.x, op.y, op.n)
        finally:
            OBS.occupancy = occ
        flight.value = run.result
        flight.cycles = run.cycles
        masks = self._gate_masks
        for tau in range(self.datapath_cycles):
            mask = schedule_busy_mask(tau, self.l, self.top_cell)
            at = flight.start + tau
            prior = masks.get(at, 0)
            if self.check_hazards and prior & mask:
                raise SimulationError(
                    f"wave hazard at chip cycle {at}: scheduled masks "
                    f"{prior:#x} and {mask:#x} overlap — issue governor bug"
                )
            masks[at] = prior | mask
        self._gate_masks = masks

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the shared chip clock one cycle; retire drained waves."""
        c = self.cycle
        active = any(f is not None for f in self._slots)
        self.last_step_active = active
        union = 0
        if self.engine == "rtl":
            occ_saved = OBS.occupancy
            OBS.occupancy = None  # suppress per-wave "array" sampling
            try:
                for w, flight in enumerate(self._slots):
                    if flight is None:
                        continue
                    eng = flight.engine
                    mask = eng.busy_mask(eng.cycle)
                    if self.check_hazards and union & mask:
                        raise SimulationError(
                            f"wave hazard at chip cycle {c}: wave {w} claims "
                            f"cells {mask:#x} already busy ({union:#x}) — two "
                            "streams collided in the shared lattice"
                        )
                    union |= mask
                    eng.step()
                    if eng.cycle >= self.datapath_cycles:
                        self._retire(w, eng.result_value(), self.datapath_cycles + 1)
            finally:
                OBS.occupancy = occ_saved
        else:
            union = self._gate_masks.pop(c, 0)
            for w, flight in enumerate(self._slots):
                if flight is not None and flight.done == c + 1:
                    self._retire(w, flight.value, flight.cycles)
        if active and OBS.enabled:
            occ = OBS.occupancy
            if occ is not None:
                busy = occ.sample(self.source, c, union, self.num_cells)
                OBS.counter_event("occupancy." + self.source, busy, cat="chip")
        self.cycle = c + 1

    def _retire(self, w: int, value: int, cycles: int) -> None:
        flight = self._slots[w]
        assert flight is not None
        self._slots[w] = None
        self.retired += 1
        self._completed.append(
            WaveOutcome(
                op=flight.op,
                value=value,
                cycles=cycles,
                wave=w,
                issue_cycle=flight.start,
                done_cycle=self.cycle + 1,
            )
        )
        if OBS.enabled:
            OBS.count("chip.ops_retired", wave=str(w))

    def take_completed(self) -> List[WaveOutcome]:
        """Retired outcomes since the last call, in retirement order."""
        out = self._completed
        self._completed = []
        return out

    # ------------------------------------------------------------------
    # Convenience driver
    # ------------------------------------------------------------------
    def run(
        self, ops: Iterable[MMMOp], max_cycles: Optional[int] = None
    ) -> List[WaveOutcome]:
        """Feed ``ops`` back-to-back and run until every result drained.

        Issues greedily (head-of-line, one op per admissible cycle — the
        exact :func:`~repro.chip.schedule.issue_schedule` stream) and
        returns outcomes in retirement order.
        """
        queue: Deque[MMMOp] = deque(ops)
        limit = max_cycles
        if limit is None:
            limit = self.cycle + (len(queue) + self.in_flight + 1) * (
                self.datapath_cycles + self.issue_interval
            )
        out: List[WaveOutcome] = []
        while queue or self.in_flight:
            if queue and self.try_issue(queue[0]) is not None:
                queue.popleft()
            self.step()
            out.extend(self.take_completed())
            if self.cycle > limit:
                raise SimulationError(
                    f"interleaved run exceeded {limit} cycles with "
                    f"{len(queue)} queued / {self.in_flight} in flight"
                )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InterleavedArray(l={self.l}, waves={self.waves}, "
            f"engine={self.engine!r}, cycle={self.cycle}, "
            f"in_flight={self.in_flight})"
        )
