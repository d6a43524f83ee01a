"""The two data planes under test and the closed loop that drives them.

Both planes are :class:`repro.serving.ModExpService` instances built with
library defaults except ``backend``, ``worker_kind``, ``workers`` and
``max_batch`` (= the workload's call size, so one call is one coalescing
window).  Verify, chaos, retry and overload stay off.
"""

from __future__ import annotations

import time

from workloads import SHARDS

#: (worker_kind, workers) of each plane.
PLANES = (("inline", 1), ("shard", SHARDS))


def set_up(spec, inputs, tally):
    """Both planes from cold caches, plus one warm-up call on each.

    Returns ``(seconds, planes)``.  Cold means the Montgomery constant
    cache and the compiled-kernel cache are empty, so the time covers the
    shard fork, constant precompute and kernel compile.
    """
    from repro.hdl.compiled import clear_kernel_cache
    from repro.montgomery.params import montgomery_cache_clear
    from repro.serving import ModExpService

    montgomery_cache_clear()
    clear_kernel_cache()
    planes = {}
    started = time.perf_counter()
    try:
        for kind, workers in PLANES:
            planes[kind] = ModExpService(
                backend=spec.backend,
                worker_kind=kind,
                workers=workers,
                max_batch=spec.call_size,
            )
        for service in planes.values():
            tally.results(inputs.warmup, service.process(inputs.warmup))
    except BaseException:
        close(planes)
        raise
    return time.perf_counter() - started, planes


def close(planes) -> None:
    for service in planes.values():
        service.close()


def timed_call(service, call):
    """One closed-loop ``process()`` call with observability off throughout."""
    from repro.observability import OBS

    if OBS.enabled:
        raise RuntimeError("observability is on inside a timed window")
    started = time.perf_counter()
    results = service.process(call)
    elapsed = time.perf_counter() - started
    if OBS.enabled:
        raise RuntimeError("observability came on inside a timed window")
    return elapsed, results


def rounds(spec, inputs, seconds):
    """Rounds of ``spec.block`` calls, until ``seconds`` have passed.

    Yields ``(round_index, calls)``.  Callers run every plane on each
    round's calls and reverse the plane order on odd rounds, so drift on
    the shared machine hits both planes alike.
    """
    started = time.perf_counter()
    cursor = 0
    index = 0
    while index == 0 or time.perf_counter() - started < seconds:
        calls = [
            inputs.calls[(cursor + k) % len(inputs.calls)] for k in range(spec.block)
        ]
        cursor += spec.block
        yield index, calls
        index += 1
