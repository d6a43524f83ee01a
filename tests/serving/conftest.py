"""Shared serving-test helpers: a backend that blocks on an Event."""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import List, Optional

from repro.montgomery.params import precompute_montgomery_constants
from repro.serving.backends import BackendCapabilities, BackendResult, ModExpBackend
from repro.serving.request import ModExpRequest

MODULUS = 0xC5AF


class GatedBackend(ModExpBackend):
    """Test backend: every execution waits until ``release`` is set.

    Records the thread each execution ran on; requests with exponent 2
    raise :class:`ValueError` instead of returning.
    """

    name = "gated"
    capabilities = BackendCapabilities(
        description="test-only gated backend", process_safe=False
    )

    def __init__(self, release: Optional[threading.Event] = None) -> None:
        self.release = release
        self.threads: List[int] = []

    def model_cycles(self, request):
        return 1.0

    def execute(self, ctx, request):
        self.threads.append(threading.get_ident())
        if self.release is not None:
            self.release.wait(30)
        if request.exponent == 2:
            raise ValueError("gated backend refuses exponent 2")
        return BackendResult(request.expected(), 1)


def submit_one(pool, base: int = 3, exponent: int = 65537) -> Future:
    """Submit one request as its own batch; return its future."""
    request = ModExpRequest(base, exponent, MODULUS)
    ctx = precompute_montgomery_constants(MODULUS, 0)
    return pool.submit_batch([request], context=ctx)[0]
