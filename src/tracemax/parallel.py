"""Deterministic data-parallel mapping.

Work items are independent and seeded, so parallel execution must not
change any result: outputs are merged in input order and the worker count
only affects wall time. TMX_THREADS caps the worker count (default: the
CPUs this process may run on). One worker, at most one item, or a platform
other than Linux short-circuits to a plain serial map.

Workers are forked from the calling process, so they start with its
modules and data: neither the function nor the items are pickled. They
pull task indices one at a time from one shared pipe, so a slow task holds
up only its own worker. Each worker sends every outcome it computed, a
result or the exception raised, as one pickle over its own pipe, and leaves
by os._exit, so no atexit handler and no inherited buffer runs twice. The
parent reads every pipe to EOF, reaps every worker and raises the
exception of the lowest failing index, as a serial map would; a rerun at
TMX_THREADS=1 shows that task's own traceback.

The parent of a parallel command only plans the tasks, forks and merges,
and draws no random number: each task draws from streams it derives
itself, a search's restart block from its cell's seed, which it derives
and returns. So numpy.random, with its secrets/OpenSSL import chain, loads
only in the processes that draw, and no worker inherits it.

No executor, queue or feeder thread is involved: the standard library's
process-pool executor took about 15 ms and 1.3 MB to import (2-vCPU VM,
Python 3.11), which every worker inherited, and on Linux it forks its
workers too.
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# Task indices travel as four-byte ints, written a chunk at a time. POSIX
# makes a pipe write of at most 512 bytes atomic, so every read of one index
# by a worker gets a whole index while another worker reads the same pipe.
_INDEX = 4
_CHUNK = 512 // _INDEX


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
    """map(fn, items) with results in input order; the first exception in
    input order is raised.

    With more than one worker the results must be picklable.
    """
    workers = worker_count()
    if workers <= 1 or len(items) <= 1 or sys.platform != "linux":
        return [fn(item) for item in items]
    return _forked_map(fn, items, min(workers, len(items)))


def _forked_map(fn: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    sys.stdout.flush()
    sys.stderr.flush()
    task_read, task_write = os.pipe()
    open_fds = {task_read, task_write}
    pids: list[int] = []
    readers: list[int] = []
    unreaped: set[int] = set()
    try:
        for _ in range(workers):
            result_read, result_write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(fn, items, task_read, result_write,
                        [task_write, result_read, *readers])
            os.close(result_write)
            open_fds.add(result_read)
            pids.append(pid)
            readers.append(result_read)
            unreaped.add(pid)
        os.close(task_read)
        open_fds.discard(task_read)
        try:
            # written after the forks: a pipe holds 16384 indices, and no
            # worker would be there to read the rest
            for start in range(0, len(items), _CHUNK):
                chunk = range(start, min(start + _CHUNK, len(items)))
                os.write(task_write, b"".join(i.to_bytes(_INDEX, "little") for i in chunk))
        except BrokenPipeError:  # every worker has ended; reaping says how
            pass
        os.close(task_write)
        open_fds.discard(task_write)
        outcomes: dict[int, tuple[bool, object]] = {}
        failures = []
        for k, (pid, reader) in enumerate(zip(pids, readers)):
            with open(reader, "rb", closefd=False) as pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            unreaped.discard(pid)
            code = os.waitstatus_to_exitcode(status)
            why = f"exit code {code}" if code >= 0 else f"signal {-code}"
            try:
                sent = pickle.loads(payload) if code == 0 else None
            except Exception as exc:  # e.g. a result that pickles but does not unpickle
                sent, why = None, repr(exc)
            if sent is None:
                failures.append(f"worker {k} (pid {pid}) sent no readable result: {why}")
            else:
                outcomes.update(sent)
    finally:
        for fd in open_fds:
            os.close(fd)
        for pid in unreaped:  # only left on an exception in this process
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failures:
        raise RuntimeError("; ".join(failures))
    results = []
    for index in range(len(items)):
        returned, value = outcomes[index]
        if not returned:
            raise value
        results.append(value)
    return results


def _worker(fn, items, task_read: int, result_write: int, inherited: list[int]) -> None:
    """A forked worker: run each task index it pulls, send the outcomes, exit."""
    code = 1
    try:
        for fd in inherited:  # the parent's task write end first, or EOF never comes
            os.close(fd)
        outcomes = {}
        while index := os.read(task_read, _INDEX):
            i = int.from_bytes(index, "little")
            try:
                outcomes[i] = (True, fn(items[i]))
            except Exception as exc:
                outcomes[i] = (False, exc)
        with open(result_write, "wb") as pipe:
            pickle.dump(outcomes, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    except BaseException:
        import traceback

        traceback.print_exc()  # why no result comes, e.g. one that cannot be pickled
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
