"""Deterministic data-parallel mapping.

Work items are independent and seeded, so parallel execution must not
change any result: outputs are merged in input order and the worker count
only affects wall time. TMX_THREADS caps the pool size (default: the CPUs
this process may run on); one worker short-circuits to a plain serial map.

The process pool is imported only where one starts. concurrent.futures'
process module pulls in multiprocessing, about 15 ms of start-up that a
serial command, or a plain ``import tracemax.cli``, never needs.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    raw = os.environ.get("TMX_THREADS", "")
    if raw.strip():
        count = int(raw)
        if count < 1:
            raise ValueError(f"TMX_THREADS must be >= 1, got {raw!r}")
        return count
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """map(fn, items) with results in input order.

    fn and items must be picklable when more than one worker is in play.
    """
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))
