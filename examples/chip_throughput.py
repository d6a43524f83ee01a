#!/usr/bin/env python
"""Multi-array chip walkthrough: interleaved waves and tiles.

Two acts, each verified as it runs:

1. **Wave interleaving** — two multiplications share one systolic
   lattice on opposite clock parities.  The per-cycle hazard checker
   proves their busy masks never overlap, the results stay bit-identical
   to a sequential run, and the measured idle fraction matches the
   closed-form greedy-schedule model.
2. **The tiled chip** — a 2-tile x 2-wave ``ChipModel`` retires a batch
   behind bounded FIFOs and a dispatcher, ~4x faster than one array.

Serving runs the array through the ``rtl`` backend; the chip is a
hardware model, not a serving backend.

    python examples/chip_throughput.py [l] [chip_ops]
"""

import random
import sys

from repro.chip import ChipModel, InterleavedArray, MMMOp
from repro.chip.schedule import (
    datapath_cycles,
    interleaved_idle_model,
    speedup_model,
)
from repro.montgomery.algorithms import montgomery_no_subtraction
from repro.montgomery.params import precompute_montgomery_constants
from repro.observability import OccupancyRecorder, observe
from repro.utils.rng import random_odd_modulus


def _ops(l: int, count: int, rng: random.Random):
    n = random_odd_modulus(l, rng)
    ctx = precompute_montgomery_constants(n)
    ops = [
        MMMOp(rng.randrange(n), rng.randrange(n), n, tag=i)
        for i in range(count)
    ]
    golden = {op.tag: montgomery_no_subtraction(ctx, op.x, op.y) for op in ops}
    return ops, golden


def main(l: int = 32, chip_ops: int = 12) -> None:
    rng = random.Random(2003)
    per_mmm = datapath_cycles(l) + 1

    # Act 1: two waves through one lattice, hazard-proven.
    print(f"[1] wave interleaving at l={l}")
    ops, golden = _ops(l, 4, rng)
    occ = OccupancyRecorder()
    arr = InterleavedArray(l, waves=2)
    with observe(occupancy=occ):
        outcomes = arr.run(ops)
    assert all(o.value == golden[o.op.tag] for o in outcomes)
    idle = occ.idle_fraction("interleaved")
    model = interleaved_idle_model(len(ops), l, waves=2)
    lone = interleaved_idle_model(1, l, waves=1)
    print(f"    {len(ops)} MMMs bit-identical to a sequential array")
    print(f"    idle: single-stream {lone:.1%} -> measured {idle:.1%} "
          f"(greedy model {model:.1%})")

    # Act 2: the tiled chip vs one sequential array.
    print(f"[2] 2-tile x 2-wave chip, {chip_ops} MMMs")
    ops, golden = _ops(l, chip_ops, rng)
    chip = ChipModel(l, tiles=2, waves=2, dispatcher="least-depth")
    with observe(occupancy=(chip_occ := OccupancyRecorder())):
        results = chip.run(ops)
    assert all(o.value == golden[o.op.tag] for o in results)
    sequential = chip_ops * per_mmm
    print(f"    makespan {chip.cycle} cycles vs sequential {sequential}")
    print(f"    speedup {sequential / chip.cycle:.2f}x  "
          f"(steady-state model {speedup_model(l, tiles=2, waves=2):.1f}x)")
    for line in chip_occ.heatmap("chip.tiles", unit="tile").splitlines():
        print(f"    {line}")


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 32,
        int(sys.argv[2]) if len(sys.argv) > 2 else 12,
    )
