"""Worker identity for the serving layer's per-worker metric labels.

Inline and thread workers run in the caller's interpreter, so their
``OBS`` hook sites already feed the caller's registry; all the service
adds is a ``worker=`` label naming where a request executed.  Shard
workers are labelled by the shard pool itself (``shardN``).
"""

from __future__ import annotations

import threading

__all__ = ["worker_label"]


def worker_label() -> str:
    """Identity of the executing worker, stable within one pool.

    The executor thread's name on a thread pool, ``main`` for inline
    execution on the main thread.
    """
    thread = threading.current_thread()
    if thread is threading.main_thread():
        return "main"
    return thread.name
