"""Batch coalescing: group by modulus, dispatch by deadline and cost.

Montgomery exponentiation pays a fixed pre-computation per modulus —
``R``, ``R² mod N`` and ``N'`` (a modular squaring plus an inversion).
A naive service repeats it for every request; :func:`coalesce` instead
groups pending requests by ``(modulus, l)`` into :class:`Batch` objects,
derives the constants **once per batch** through the shared
:func:`~repro.montgomery.params.precompute_montgomery_constants` cache,
and attaches the resulting context to the batch so workers never touch
the cache at all.

Dispatch order is interactive-first, then earliest-deadline-first, ties
broken by the batch's summed
:meth:`~repro.serving.backends.ModExpBackend.model_cycles` (cheap
batches first, so a long batch cannot convoy short ones with equal
urgency).  Every batch of one call shares one backend, so the modelled
cycles alone order them.  A batch containing any interactive-priority
request outranks every pure-batch one — under overload the dispatch
queue is where interactive latency is won or lost.

Metrics (when observation is enabled):

* ``serving.batches`` — batches formed;
* ``serving.batch_size`` — histogram of requests per batch;
* ``serving.coalesced_precomputes`` — one per distinct ``(modulus, l)``
  per coalescing round, i.e. the number of pre-computations actually
  needed (compare with ``serving.requests`` to see the savings);
* ``serving.coalesce_group_size`` — pre-chunk requests per distinct
  ``(modulus, l)`` key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.montgomery.params import (
    MontgomeryContext,
    precompute_montgomery_constants,
)
from repro.observability import OBS
from repro.serving.backends import ModExpBackend
from repro.serving.request import ModExpRequest

__all__ = ["Batch", "coalesce", "lane_groups"]

T = TypeVar("T")


def lane_groups(
    items: Sequence[T],
    lanes: int,
    *,
    mixed: bool = False,
) -> List[List[T]]:
    """Partition one batch's items into lane-packable groups.

    Bit-sliced lane packing needs a shared square-and-multiply schedule,
    so only requests with identical exponents share a group; groups are
    capped at the backend's lane width.  ``mixed=True`` (a backend
    declaring ``capabilities.mixed_exponent_lanes``, which interleaves
    independent chains instead of lock-stepping lanes) groups the whole
    batch regardless of exponent.  Order within a group follows batch
    order.  :func:`~repro.serving.pool.execute_batch` groups with it on
    every data plane.
    """
    by_exponent: Dict[Any, List[T]] = {}
    for item in items:
        key = None if mixed else item.exponent
        by_exponent.setdefault(key, []).append(item)
    groups: List[List[T]] = []
    for members in by_exponent.values():
        for lo in range(0, len(members), lanes):
            groups.append(members[lo : lo + lanes])
    return groups


@dataclass
class Batch:
    """Requests sharing one modulus (hence one set of constants).

    ``context`` is the pre-computed parameter set every request in the
    batch reuses; ``model_cycles`` is the backend's
    :meth:`~repro.serving.backends.ModExpBackend.model_cycles` summed
    over the batch (the dispatch tie-breaker).
    """

    index: int
    modulus: int
    l: int
    context: MontgomeryContext
    requests: List[ModExpRequest] = field(default_factory=list)
    model_cycles: int = 0

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def deadline(self) -> float:
        """Earliest deadline in the batch (``inf`` when none set)."""
        deadlines = [r.deadline for r in self.requests if r.deadline is not None]
        return min(deadlines) if deadlines else math.inf

    @property
    def priority_rank(self) -> int:
        """0 when any request is interactive, 1 otherwise.

        The primary dispatch key: under overload the queue in front of
        the pool is exactly where interactive latency is won or lost, so
        a batch carrying interactive traffic jumps every pure-batch one
        regardless of deadlines.
        """
        return 0 if any(r.priority == "interactive" for r in self.requests) else 1


def coalesce(
    requests: Sequence[ModExpRequest],
    backend: ModExpBackend,
    *,
    max_batch: int = 0,
    start_index: int = 0,
) -> List[Batch]:
    """Group ``requests`` into per-modulus batches, dispatch-ordered.

    One Montgomery pre-computation happens here per distinct
    ``(modulus, l)`` key, regardless of how many requests share it.
    Groups larger than ``max_batch`` (when positive) are split into
    chunks, which still share the single pre-computed context.  Returned
    batches are sorted by ``(priority_rank, deadline, model_cycles)`` and
    re-indexed from ``start_index``.
    """
    groups: Dict[Tuple[int, int], List[ModExpRequest]] = {}
    for request in requests:
        groups.setdefault(request.coalesce_key, []).append(request)

    batches: List[Batch] = []
    for (modulus, l), members in groups.items():
        context = precompute_montgomery_constants(modulus, l)
        if OBS.enabled:
            OBS.count("serving.coalesced_precomputes")
            # Pre-chunk group size: how much sharing each distinct
            # (modulus, l) key actually yields on this traffic mix.
            OBS.record("serving.coalesce_group_size", len(members))
        chunk = max_batch if max_batch > 0 else len(members)
        for lo in range(0, len(members), chunk):
            part = members[lo : lo + chunk]
            batches.append(
                Batch(
                    index=0,  # assigned after sorting
                    modulus=modulus,
                    l=l,
                    context=context,
                    requests=part,
                    model_cycles=sum(backend.model_cycles(r) for r in part),
                )
            )

    batches.sort(key=lambda b: (b.priority_rank, b.deadline, b.model_cycles))
    for offset, batch in enumerate(batches):
        batch.index = start_index + offset
        if OBS.enabled:
            OBS.count("serving.batches")
            OBS.record("serving.batch_size", batch.size)
    return batches
