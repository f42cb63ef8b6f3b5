"""Worker pool: order preservation, env-controlled sizing, the serial
short-circuit, forked workers that never outlive the map, and no process
pool module in any tmx process."""

import operator
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import tracemax
from tracemax.parallel import parallel_map, worker_count

SRC = Path(tracemax.__file__).resolve().parents[1]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this process after ``seconds``; forked workers
    inherit the handler but not the timer."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_worker_count_reads_env(monkeypatch):
    monkeypatch.setenv("TMX_THREADS", "3")
    assert worker_count() == 3


def test_worker_count_defaults_to_machine(monkeypatch):
    monkeypatch.delenv("TMX_THREADS", raising=False)
    assert worker_count() >= 1


def test_worker_count_defaults_to_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.delenv("TMX_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # pinned to one CPU (taskset -c 0): one worker, not one per machine CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert worker_count() == 3
    # without affinity support, the machine count, and 1 when that is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert worker_count() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count() == 1


def test_worker_count_blank_env_means_default(monkeypatch):
    monkeypatch.setenv("TMX_THREADS", "  ")
    assert worker_count() >= 1


def test_worker_count_rejects_nonpositive(monkeypatch):
    monkeypatch.setenv("TMX_THREADS", "0")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.setenv("TMX_THREADS", "-2")
    with pytest.raises(ValueError):
        worker_count()


def test_worker_count_rejects_garbage(monkeypatch):
    monkeypatch.setenv("TMX_THREADS", "many")
    with pytest.raises(ValueError):
        worker_count()


def test_serial_map_preserves_order(monkeypatch):
    monkeypatch.setenv("TMX_THREADS", "1")
    items = list(range(20))
    assert parallel_map(operator.neg, items) == [-i for i in items]


def test_parallel_map_matches_serial(monkeypatch):
    items = list(range(24))
    monkeypatch.setenv("TMX_THREADS", "1")
    serial = parallel_map(operator.neg, items)
    monkeypatch.setenv("TMX_THREADS", "2")
    parallel = parallel_map(operator.neg, items)
    assert parallel == serial


def test_single_item_stays_serial(monkeypatch):
    # len <= 1 never spawns a pool, so even unpicklable closures work
    monkeypatch.setenv("TMX_THREADS", "8")
    local = 5
    assert parallel_map(lambda x: x + local, [1]) == [6]


def test_empty_input(monkeypatch):
    monkeypatch.setenv("TMX_THREADS", "4")
    assert parallel_map(operator.neg, []) == []


def _lowest_fails_last(i):
    # index 2 fails after index 5 has failed on the other worker
    if i == 2:
        time.sleep(0.2)
        raise KeyError("item 2")
    if i == 5:
        raise TypeError("item 5")
    return i


def test_parallel_map_raises_the_lowest_failing_index(monkeypatch):
    monkeypatch.setenv("TMX_THREADS", "2")
    with pytest.raises(KeyError, match="item 2"):
        parallel_map(_lowest_fails_last, list(range(8)))
    _no_child_left()


def test_a_worker_that_exits_makes_the_map_raise(monkeypatch):
    def exits(i):
        if i == 3:
            os._exit(3)
        return i

    monkeypatch.setenv("TMX_THREADS", "2")
    with pytest.raises(RuntimeError, match="sent no readable result: exit code 3"):
        parallel_map(exits, list(range(8)))
    _no_child_left()


def test_more_items_than_a_pipe_holds(monkeypatch):
    # a pipe holds 16384 four-byte task indices
    items = list(range(20000))
    monkeypatch.setenv("TMX_THREADS", "2")
    with _deadline(60):
        assert parallel_map(operator.neg, items) == [-i for i in items]
    _no_child_left()


def test_a_closure_runs_at_two_workers(monkeypatch):
    # forked workers need neither fn nor items pickled
    monkeypatch.setenv("TMX_THREADS", "2")
    local = 5
    assert parallel_map(lambda x: x + local, [1, 2, 3, 4]) == [6, 7, 8, 9]


def test_no_worker_outlives_an_exception_in_the_parent(monkeypatch):
    monkeypatch.setenv("TMX_THREADS", "2")
    started = time.perf_counter()
    with pytest.raises(TimeoutError), _deadline(0.5):
        parallel_map(time.sleep, [30, 30])
    assert time.perf_counter() - started < 10
    _no_child_left()


def test_other_platforms_map_serially(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setenv("TMX_THREADS", "2")
    monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.setattr(os, "fork", no_fork)
    assert parallel_map(operator.neg, [1, 2, 3]) == [-1, -2, -3]


def test_output_buffered_before_the_fork_is_written_once():
    # workers flush stdout before os._exit, so an unflushed parent buffer
    # would be written once per worker too; stdout must be buffered for that
    probe = (
        "import operator; from tracemax.parallel import parallel_map; "
        "print('before', end=''); parallel_map(operator.neg, [1, 2, 3]); print()"
    )
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={**env, "PYTHONPATH": str(SRC), "TMX_THREADS": "2"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "before\n"


def test_parallel_commands_load_no_process_pool(tmp_path):
    # both batch commands at two workers, each a single pool start
    probe = (
        "import sys, tracemax.cli as cli; "
        "assert cli.main(['verify-lemmas', '--trials', '260', '--dim-max', '2', "
        "'--p-max', '4', '--seed', '0']) == 0; "
        "assert cli.main(['search', '--n', '1,2', '--members', '1', '--p', '2', "
        "'--restarts', '2', '--steps', '4', '--sampler-trials', '20', '--seed', '0', "
        "'--out', 'sweep.csv']) == 0; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules), file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC), "TMX_THREADS": "2"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[]"


def test_importing_the_cli_loads_no_process_pool():
    # numpy.random, with its secrets and OpenSSL chain, would raise the
    # import's peak RSS from 29.6 to 35.2 MB (2-vCPU VM, numpy 2.4.6);
    # commands load it on their first draw
    probe = (
        "import sys, tracemax.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing', "
        "'numpy.random') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
