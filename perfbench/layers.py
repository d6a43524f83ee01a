"""The traced pass: per-layer metrics of one workload.

Two sources feed it, both driven from this file without editing the
program:

* **Spans.**  Wrappers patched onto public entry points of each module
  record name, start, end, parent span and request id for every call the
  parent process makes during the traced rounds, and are removed again
  after each round.  Untraced rounds of the same calls interleave with the
  traced ones; their difference is ``bench.tracing_overhead_pct``.  Shard
  workers are forked before any wrapper is installed, so nothing inside a
  worker is traced.  Spans stay in memory and are written to
  ``perfbench/out/`` when the pass ends.
* **Isolation replays.**  The workload's first ``spec.replay_calls`` calls
  go through each layer's public functions on their own: the Montgomery
  primitive, the golden exponentiator, backend execution, the gate-level
  multiplier, the frame codecs and the kernel compiler.

:data:`LAYERS` lists every per-layer metric with the end-to-end metric and
workload it should move; the traced output repeats that prediction next to
each value.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from planes import close, rounds, set_up, timed_call
from workloads import SHARDS, check

OUT = Path(__file__).resolve().parent / "out"

#: Minimum wall time spent timing one micro-measurement.
MIN_TIMING_S = 0.2

#: metric -> (unit, better, what it should move)
LAYERS: Dict[str, Tuple[str, str, str]] = {
    "montgomery.mmm_us": (
        "us",
        "lower",
        "rps on rsa-f4, inline_p50_ms on tiny-rpc; 0 on gate-mixed",
    ),
    "montgomery.precompute_us": ("us", "lower", "setup_s"),
    "montgomery.cache_hit_ratio": ("ratio", "higher", "inline_p50_ms on tiny-rpc when below 1"),
    "systolic.exponentiate_us": ("us", "lower", "rps on rsa-f4"),
    "systolic.mmm_per_exp": ("count", "lower", "rps on rsa-f4"),
    "systolic.exp_overhead_ratio": ("ratio", "lower", "rps on rsa-f4, p50 on tiny-rpc"),
    "systolic.cycles_per_req": ("cycles", "lower", "exact count; repeats across runs"),
    "systolic.gate_mmm_us": ("us", "lower", "rps on gate-mixed; none elsewhere"),
    "systolic.lane_sweep_us": ("us", "lower", "rps on gate-mixed; none elsewhere"),
    "hdl.compile_s": ("s", "lower", "setup_s on gate-mixed"),
    "hdl.kernel_cache_hit_ratio": ("ratio", "higher", "setup_s on gate-mixed"),
    "backends.execute_us": ("us", "lower", "rps on rsa-f4"),
    "backends.lane_fill": ("ratio", "higher", "rps on gate-mixed"),
    "backends.sweeps_per_req": ("count", "lower", "rps on gate-mixed"),
    "scheduler.coalesce_us": ("us", "lower", "p50 on tiny-rpc"),
    "scheduler.batch_size": ("count", "higher", "shard_rps on rsa-f4 and gate-mixed"),
    "scheduler.lane_group_size": ("count", "higher", "shard_rps on rsa-f4 and gate-mixed"),
    "wire.encode_batch_us": ("us", "lower", "shard p50/tail on tiny-rpc"),
    "wire.decode_batch_us": ("us", "lower", "shard p50/tail on tiny-rpc"),
    "wire.encode_result_us": ("us", "lower", "shard p50/tail on tiny-rpc"),
    "wire.decode_result_us": ("us", "lower", "shard p50/tail on tiny-rpc"),
    "wire.bytes_per_req": ("bytes", "lower", "shard p50/tail on tiny-rpc; exact count"),
    "shard.batch_rtt_us": ("us", "lower", "shard p50/tail on tiny-rpc"),
    "shard.dataplane_us_per_req": ("us", "lower", "shard p50/tail on tiny-rpc"),
    "shard.requeues": ("count", "lower", "shard p50/tail on tiny-rpc"),
    "service.process_us": ("us", "lower", "inline_p50_ms on tiny-rpc"),
    "service.self_us": ("us", "lower", "inline_p50_ms on tiny-rpc"),
    "bench.tracing_overhead_pct": ("%", "lower", "none: traced vs untraced rounds"),
}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory span log; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.rows: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request_id: Optional[str] = None) -> tuple:
        stack = self._stack()
        parent, inherited = stack[-1][:2] if stack else (None, None)
        span = (next(self._ids), parent, name, request_id or inherited)
        stack.append((span[0], span[3]))
        return span + (time.perf_counter(),)

    def end(self, span: tuple) -> None:
        self._stack().pop()
        self.finish(span)

    def finish(self, span: tuple) -> None:
        """Log ``span`` as ending now (it may have been opened elsewhere)."""
        sid, parent, name, rid, start = span
        self.rows.append(
            (sid, parent, name, start, time.perf_counter(), rid, threading.get_ident())
        )

    def wrap(
        self,
        name: Callable[[tuple], str],
        request_id: Callable[[tuple], Optional[str]] = lambda args: None,
    ):
        """Decorator factory: a span around every call of the wrapped function."""

        def decorate(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = self.begin(name(args), request_id(args))
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(span)

            return traced

        return decorate

    def wrap_submit_batch(self, fn):
        """``ShardPool.submit_batch``: the call itself, and the batch round trip.

        The round-trip span runs from submission until the batch's last
        future resolves, which happens on the pool's reader thread.
        """

        @functools.wraps(fn)
        def traced(pool, requests, **kwargs):
            rid = requests[0].request_id if requests else None
            call = self.begin("shard.submit_batch", rid)
            rtt = (next(self._ids), call[1], "shard.batch_rtt", rid, call[4])
            try:
                futures = fn(pool, requests, **kwargs)
            finally:
                self.end(call)
            pending = [len(futures)]
            lock = threading.Lock()

            def resolved(_future) -> None:
                with lock:
                    pending[0] -= 1
                    last = pending[0] == 0
                if last:
                    self.finish(rtt)

            for future in futures:
                future.add_done_callback(resolved)
            return futures

        return traced

    def named(self, prefix: str) -> List[tuple]:
        return [row for row in self.rows if row[2].startswith(prefix)]


@contextmanager
def patched(targets):
    """Install ``(owner, attribute, decorator)`` wrappers; restore on exit."""
    missing = object()
    saved = []
    try:
        for owner, attr, decorate in targets:
            saved.append((owner, attr, vars(owner).get(attr, missing)))
            setattr(owner, attr, decorate(getattr(owner, attr)))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            if original is missing:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _span_targets(spans: Spans, backend_cls, counters: Dict[str, int]):
    import repro.serving.service as service_mod
    import repro.serving.shard as shard_mod
    import repro.systolic.exponentiator as exponentiator_mod
    from repro.serving import ModExpService
    from repro.serving.shard import ShardPool
    from repro.systolic.exponentiator import ModularExponentiator
    from repro.systolic.mmmc_netlist import GateLevelMMMC

    def fixed(name):
        return spans.wrap(lambda args: name)

    def count_requeues(fn):
        @functools.wraps(fn)
        def counted(pool, pending, *args, **kwargs):
            counters["requeues"] += len(pending.requests)
            return fn(pool, pending, *args, **kwargs)

        return counted

    return [
        (
            ModExpService,
            "process",
            spans.wrap(
                lambda args: f"service.process.{args[0].pool.kind}",
                lambda args: args[1][0].request_id if args[1] else None,
            ),
        ),
        (service_mod, "coalesce", fixed("scheduler.coalesce")),
        (
            backend_cls,
            "execute",
            spans.wrap(lambda args: "backends.execute", lambda args: args[2].request_id),
        ),
        (
            backend_cls,
            "execute_many",
            spans.wrap(
                lambda args: "backends.execute_many", lambda args: args[2][0].request_id
            ),
        ),
        (ModularExponentiator, "exponentiate", fixed("systolic.exponentiate")),
        (exponentiator_mod, "montgomery_no_subtraction", fixed("montgomery.mmm")),
        (GateLevelMMMC, "multiply", fixed("systolic.gate_mmm")),
        (GateLevelMMMC, "multiply_lanes", fixed("systolic.lane_sweep")),
        (ShardPool, "submit_batch", spans.wrap_submit_batch),
        (shard_mod, "encode_batch_frame", fixed("wire.encode_batch")),
        (shard_mod, "decode_result_frame", fixed("wire.decode_result")),
        # Requeues have no public counter while observability is off.
        (ShardPool, "_requeue", count_requeues),
    ]


def _self_us(spans: Spans, name: str) -> Tuple[float, float]:
    """Mean duration and mean self time (µs) of the spans called ``name``.

    Self time is the span's duration minus the union of its direct
    children's intervals.
    """
    children = defaultdict(list)
    for row in spans.rows:
        if row[1] is not None:
            children[row[1]].append((row[3], row[4]))
    totals, selfs = [], []
    for row in spans.named(name):
        covered, reach = 0.0, row[3]
        for start, end in sorted(children[row[0]]):
            start, end = max(start, reach), min(end, row[4])
            if end > start:
                covered += end - start
                reach = end
        totals.append(row[4] - row[3])
        selfs.append(row[4] - row[3] - covered)
    return _mean_us(totals), _mean_us(selfs)


def _mean_us(seconds: List[float]) -> float:
    return statistics.fmean(seconds) * 1e6 if seconds else 0.0


# ----------------------------------------------------------------------
# Isolation replays
# ----------------------------------------------------------------------
def per_call_us(fn: Callable, argument_sets: List[tuple]) -> float:
    """Mean µs per ``fn(*args)`` over ``argument_sets``, repeated to fill
    at least :data:`MIN_TIMING_S`."""
    calls = 0
    started = time.perf_counter()
    while True:
        for args in argument_sets:
            fn(*args)
        calls += len(argument_sets)
        elapsed = time.perf_counter() - started
        if elapsed >= MIN_TIMING_S:
            return elapsed / calls * 1e6


class Sweeps:
    """Counts gate-level sweeps and the lanes they carried."""

    def __init__(self) -> None:
        self.sweeps = 0
        self.used = 0

    def targets(self):
        from repro.systolic.mmmc_netlist import GateLevelMMMC

        def scalar(fn):
            @functools.wraps(fn)
            def counted(mmmc, *args, **kwargs):
                self.sweeps += 1
                self.used += 1
                return fn(mmmc, *args, **kwargs)

            return counted

        def lanes(fn):
            @functools.wraps(fn)
            def counted(mmmc, xs, *args, **kwargs):
                self.sweeps += 1
                self.used += len(xs)
                return fn(mmmc, xs, *args, **kwargs)

            return counted

        return [
            (GateLevelMMMC, "multiply", scalar),
            (GateLevelMMMC, "multiply_lanes", lanes),
        ]


class KernelLookups:
    """``compile_kernel`` calls: hits, and the time of each miss.

    A lookup is a miss when ``kernel_cache_info()`` grew during it.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.miss_seconds: List[float] = []

    def targets(self):
        import repro.hdl.compiled as compiled_mod

        def timed(fn):
            @functools.wraps(fn)
            def lookup(*args, **kwargs):
                before = compiled_mod.kernel_cache_info()["size"]
                started = time.perf_counter()
                kernel = fn(*args, **kwargs)
                elapsed = time.perf_counter() - started
                if compiled_mod.kernel_cache_info()["size"] > before:
                    self.miss_seconds.append(elapsed)
                else:
                    self.hits += 1
                return kernel

            return lookup

        return [(compiled_mod, "compile_kernel", timed)]

    @property
    def hit_ratio(self) -> float:
        lookups = self.hits + len(self.miss_seconds)
        return self.hits / lookups if lookups else 0.0


def _execute(spec, calls, tally, details):
    """Backend execution of the replay calls, grouped as the service does.

    Returns ``(metrics, {request_id: µs}, batches, [(request, result)])``;
    a lane group's requests share its sweep time evenly.
    """
    from repro.serving.backends import default_registry
    from repro.serving.scheduler import coalesce, lane_groups

    backend = default_registry().get(spec.backend)
    caps = backend.capabilities
    batches = [b for call in calls for b in coalesce(call, backend, max_batch=spec.call_size)]
    groups = [
        (batch, group)
        for batch in batches
        for group in (
            lane_groups(batch.requests, caps.lanes, mixed=caps.mixed_exponent_lanes)
            if caps.lanes > 1
            else [[r] for r in batch.requests]
        )
    ]
    # Elaborate the backend's scalar and lane multipliers before timing.
    first = {batch.modulus: batch for batch in reversed(batches)}
    for batch in first.values():
        probe = batch.requests[0]
        outs = [backend.execute(batch.context, probe)]
        outs += backend.execute_many(batch.context, [probe, probe])
        tally.add(len(outs), sum(check(probe, o.value, o.cycles) for o in outs))

    sweeps = Sweeps()
    exec_us: Dict[str, float] = {}
    outputs = []
    with patched(sweeps.targets()):
        for batch, group in groups:
            started = time.perf_counter()
            if len(group) == 1:
                outs = [backend.execute(batch.context, group[0])]
            else:
                outs = backend.execute_many(batch.context, group)
            share = (time.perf_counter() - started) * 1e6 / len(group)
            for request, out in zip(group, outs):
                exec_us[request.request_id] = share
                outputs.append((request, out))
    tally.add(len(outputs), sum(check(r, o.value, o.cycles) for r, o in outputs))
    n = len(outputs)
    details["batches"] = len(batches)
    details["lane_groups"] = len(groups)
    details["sweeps"] = sweeps.sweeps
    return {
        "backends.execute_us": sum(exec_us.values()) / n,
        "backends.lane_fill": (
            sweeps.used / (sweeps.sweeps * caps.lanes) if sweeps.sweeps else 0.0
        ),
        "backends.sweeps_per_req": sweeps.sweeps / n,
        "scheduler.batch_size": statistics.fmean(b.size for b in batches),
        "scheduler.lane_group_size": statistics.fmean(len(g) for _, g in groups),
        "systolic.cycles_per_req": statistics.fmean(o.cycles for _, o in outputs),
    }, exec_us, batches, outputs


def _montgomery(requests, keyring, tally, details):
    """The software Montgomery primitive and the golden exponentiator."""
    from repro.montgomery.algorithms import montgomery_no_subtraction
    from repro.montgomery.params import (
        montgomery_cache_clear,
        precompute_montgomery_constants,
    )
    from repro.systolic.exponentiator import ModularExponentiator

    by_width = defaultdict(list)
    for r in requests:
        ctx = precompute_montgomery_constants(r.modulus, r.l)
        by_width[ctx.l].append((ctx, r.base, ctx.r2_mod_n))
    mmm_us = {w: per_call_us(montgomery_no_subtraction, ops) for w, ops in by_width.items()}

    exp_us, counts, expected_us, good = [], [], 0.0, 0
    for r in requests:
        ctx = precompute_montgomery_constants(r.modulus, r.l)
        exponentiator = ModularExponentiator(ctx, engine="golden")
        started = time.perf_counter()
        run = exponentiator.exponentiate(r.base, r.exponent)
        exp_us.append((time.perf_counter() - started) * 1e6)
        counts.append(run.num_multiplications)
        expected_us += run.num_multiplications * mmm_us[ctx.l]
        good += check(r, run.result, run.cycles)
    tally.add(len(requests), good)

    def cold_precompute(n):
        montgomery_cache_clear()
        precompute_montgomery_constants(n)

    details["montgomery.mmm_us_by_width"] = mmm_us
    return {
        "montgomery.mmm_us": statistics.fmean(
            mmm_us[w] for w, ops in by_width.items() for _ in ops
        ),
        "montgomery.precompute_us": per_call_us(cold_precompute, [(n,) for n in keyring]),
        "systolic.exponentiate_us": statistics.fmean(exp_us),
        "systolic.mmm_per_exp": statistics.fmean(counts),
        "systolic.exp_overhead_ratio": sum(exp_us) / expected_us,
    }


def _gate(requests, lookups: KernelLookups, details):
    """Gate-level multiplier, full-width lane sweep and cold kernel compile.

    Keys wider than the ``rtl`` backend's width ceiling are measured on
    their top bits up to that ceiling (forced odd), so every workload
    reports these layers.
    """
    from repro.hdl.compiled import clear_kernel_cache
    from repro.montgomery.params import MontgomeryContext
    from repro.serving.backends import RTLBackend
    from repro.systolic.mmmc_netlist import GateLevelMMMC

    max_bits = RTLBackend.capabilities.max_bits
    lane_width = RTLBackend.capabilities.lanes
    by_width = defaultdict(list)
    for r in requests:
        width = r.modulus.bit_length()
        n = r.modulus
        if width > max_bits:
            n = (n >> (width - max_bits)) | 1
        ctx = MontgomeryContext(n)
        by_width[ctx.l].append((r.base % n, ctx.r2_mod_n, n))
    weights = {w: len(ops) for w, ops in by_width.items()}
    mmm, sweep, compile_s = {}, {}, {}
    for width, ops in by_width.items():
        clear_kernel_cache()
        misses = len(lookups.miss_seconds)
        with patched(lookups.targets()):
            scalar = GateLevelMMMC(width, simulator="compiled")
            vector = GateLevelMMMC(width, simulator="compiled", lanes=lane_width)
        compile_s[width] = sum(lookups.miss_seconds[misses:])
        mmm[width] = per_call_us(scalar.multiply, ops)
        lanes = [ops[k % len(ops)] for k in range(lane_width)]
        sweep[width] = per_call_us(vector.multiply_lanes, [tuple(zip(*lanes))])
    details["gate_widths"] = sorted(by_width)
    details["systolic.gate_mmm_us_by_width"] = mmm
    details["systolic.lane_sweep_us_by_width"] = sweep
    details["hdl.compile_s_by_width"] = compile_s

    def weighted(values):
        return sum(values[w] * weights[w] for w in values) / sum(weights.values())

    return {
        "systolic.gate_mmm_us": weighted(mmm),
        "systolic.lane_sweep_us": weighted(sweep),
        "hdl.compile_s": weighted(compile_s),
    }


def _wire(batches, outputs, exec_us):
    """Frame codecs on frames built from the replay's real batches."""
    from repro.serving.wire import (
        decode_batch_frame,
        decode_result_frame,
        encode_batch_frame,
        encode_result_frame,
    )

    out_by_id = {r.request_id: o for r, o in outputs}
    batch_args, result_args = [], []
    for index, batch in enumerate(batches, start=1):
        batch_args.append((index, batch.requests))
        rows = [
            {
                "id": r.request_id,
                "value": out_by_id[r.request_id].value,
                "cycles": out_by_id[r.request_id].cycles,
                "wall_us": exec_us[r.request_id],
            }
            for r in batch.requests
        ]
        result_args.append((index, rows))

    def encode_batch(index, requests):
        return encode_batch_frame(index, requests, want_telemetry=False)

    batch_frames = [(encode_batch(*args),) for args in batch_args]
    result_frames = [(encode_result_frame(*args),) for args in result_args]
    frame_bytes = sum(len(f) for (f,) in batch_frames + result_frames)
    return {
        "wire.encode_batch_us": per_call_us(encode_batch, batch_args),
        "wire.decode_batch_us": per_call_us(decode_batch_frame, batch_frames),
        "wire.encode_result_us": per_call_us(encode_result_frame, result_args),
        "wire.decode_result_us": per_call_us(decode_result_frame, result_frames),
        "wire.bytes_per_req": frame_bytes / len(outputs),
    }


def _dataplane_us(service, call, elapsed: float, results) -> float:
    """One shard call's time minus execution on its busiest shard, in µs.

    Execution is what the shard workers measured around the backend for
    these very requests (``ModExpResult.wall_us``).
    """
    from repro.serving.shard import placement_key

    busy = defaultdict(float)
    for request, result in zip(call, results):
        owner = service.pool.map.owner(placement_key(request.modulus, request.l))
        busy[owner] += result.wall_us or 0.0
    return elapsed * 1e6 - max(busy.values())


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
def _window(spec, inputs, planes, seconds, tally, spans, counters):
    """Interleaved untraced and traced rounds of the same calls.

    Each round runs its calls untraced and traced on both planes; odd
    rounds reverse both orders.  Returns the window's totals.
    """
    from repro.montgomery.params import montgomery_cache_info

    targets = _span_targets(spans, type(planes["inline"].backend), counters)
    totals = {"untraced": 0.0, "traced": 0.0, "dataplane_us": 0.0, "shard_requests": 0}
    before = montgomery_cache_info()
    for index, calls in rounds(spec, inputs, seconds):
        flip = slice(None, None, -1 if index % 2 else 1)
        for mode in ("untraced", "traced")[flip]:
            for kind in ("inline", "shard")[flip]:
                with patched(targets if mode == "traced" else []):
                    for call in calls:
                        elapsed, results = timed_call(planes[kind], call)
                        tally.results(call, results)
                        totals[mode] += elapsed
                        if kind == "shard" and mode == "untraced":
                            totals["dataplane_us"] += _dataplane_us(
                                planes[kind], call, elapsed, results
                            )
                            totals["shard_requests"] += len(call)
    after = montgomery_cache_info()
    lookups = (after.hits - before.hits) + (after.misses - before.misses)
    totals["rounds"] = index + 1
    totals["cache_hit_ratio"] = (after.hits - before.hits) / lookups if lookups else 0.0
    return totals


def traced_run(spec, inputs, seed: int, seconds: float, tally):
    """Set up, trace interleaved rounds for ``seconds``, then replay."""
    lookups = KernelLookups()
    with patched(lookups.targets()):
        setup_s, planes = set_up(spec, inputs, tally)
    spans = Spans()
    counters = {"requeues": 0}
    try:
        window = _window(spec, inputs, planes, seconds, tally, spans, counters)
    finally:
        close(planes)
    details: Dict[str, object] = {"setup_s": setup_s, "rounds": window["rounds"]}
    replay = inputs.calls[: spec.replay_calls]
    requests = [r for call in replay for r in call]
    metrics, exec_us, batches, outputs = _execute(spec, replay, tally, details)
    metrics.update(_montgomery(requests, inputs.keyring, tally, details))
    metrics.update(_gate(requests, lookups, details))
    metrics.update(_wire(batches, outputs, exec_us))

    process_us, self_us = _self_us(spans, "service.process.inline")
    metrics.update(
        {
            "montgomery.cache_hit_ratio": window["cache_hit_ratio"],
            "hdl.kernel_cache_hit_ratio": lookups.hit_ratio,
            "scheduler.coalesce_us": _mean_us(
                [row[4] - row[3] for row in spans.named("scheduler.coalesce")]
            ),
            "shard.batch_rtt_us": _mean_us(
                [row[4] - row[3] for row in spans.named("shard.batch_rtt")]
            ),
            "shard.dataplane_us_per_req": window["dataplane_us"] / window["shard_requests"],
            "shard.requeues": float(counters["requeues"]),
            "service.process_us": process_us,
            "service.self_us": self_us,
            "bench.tracing_overhead_pct": (
                100.0 * (window["traced"] / window["untraced"] - 1.0)
            ),
        }
    )
    path = _write(spec, seed, spans, details)
    print(f"# spans: {len(spans.rows)} written to {path.relative_to(OUT.parent.parent)}")
    for key, value in details.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, (unit, _, moves) in LAYERS.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}  (moves: {moves})")
    return {name: (metrics[name], LAYERS[name][0]) for name in LAYERS}


def _write(spec, seed, spans: Spans, details) -> Path:
    """Spans as gzipped JSON: times in µs from the first span, names indexed."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{spec.name}-seed{seed}.json.gz"
    origin = min((row[3] for row in spans.rows), default=0.0)
    names = sorted({row[2] for row in spans.rows})
    threads = sorted({row[6] for row in spans.rows})
    rows = [
        [
            sid,
            parent,
            names.index(name),
            round((start - origin) * 1e6, 1),
            round((end - origin) * 1e6, 1),
            rid,
            threads.index(thread),
        ]
        for sid, parent, name, start, end, rid, thread in spans.rows
    ]
    with gzip.open(path, "wt") as fh:
        json.dump(
            {
                "workload": spec.name,
                "seed": seed,
                "shards": SHARDS,
                "columns": ["id", "parent", "name", "start_us", "end_us", "request_id", "thread"],
                "names": names,
                "spans": rows,
                "details": details,
            },
            fh,
        )
    return path
