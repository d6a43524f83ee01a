"""Multi-array chip: wave-interleaved tiles with FIFOs and dispatch.

Reclaims the ``2i+j`` schedule's ~66% cell idle time the hardware-faithful
way (see ``docs/CHIP.md``):

* :mod:`repro.chip.schedule` — parity/spacing issue-governor math, the
  steady-state idle/throughput closed forms, and tile-occupancy-aware
  completion estimates;
* :mod:`repro.chip.interleave` — :class:`InterleavedArray`, up to W
  independent MMM streams lock-stepped through one cell lattice with
  structural-hazard checking;
* :mod:`repro.chip.fifo` / :mod:`repro.chip.tile` — the bounded-FIFO tile
  harness;
* :mod:`repro.chip.dispatch` / :mod:`repro.chip.chip` — round-robin and
  least-queue-depth dispatchers over :class:`ChipModel`, N tiles on one
  shared clock.

The chip is a model for ``repro chip`` and the chip benchmarks; serving
runs the array through the ``rtl`` backend, which reports the same
per-request cycles and is faster in wall time at every measured width.
"""

from repro.chip.chip import ChipModel
from repro.chip.dispatch import (
    Dispatcher,
    LeastDepthDispatcher,
    RoundRobinDispatcher,
    make_dispatcher,
)
from repro.chip.fifo import BoundedFIFO
from repro.chip.interleave import InterleavedArray, MMMOp, WaveOutcome
from repro.chip.schedule import (
    chip_makespan_cycles,
    completion_estimate_cycles,
    datapath_cycles,
    interleaved_idle_model,
    issue_interval,
    issue_schedule,
    makespan_cycles,
    speedup_model,
    steady_state_idle_fraction,
    steady_state_issue_rate,
)
from repro.chip.tile import Tile

__all__ = [
    "BoundedFIFO",
    "ChipModel",
    "Dispatcher",
    "InterleavedArray",
    "LeastDepthDispatcher",
    "MMMOp",
    "RoundRobinDispatcher",
    "Tile",
    "WaveOutcome",
    "chip_makespan_cycles",
    "completion_estimate_cycles",
    "datapath_cycles",
    "interleaved_idle_model",
    "issue_interval",
    "issue_schedule",
    "make_dispatcher",
    "makespan_cycles",
    "speedup_model",
    "steady_state_idle_fraction",
    "steady_state_issue_rate",
]
