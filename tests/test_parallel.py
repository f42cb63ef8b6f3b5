"""Worker pool: order preservation, env-controlled sizing, the serial
short-circuit, and a pool module loaded only where a pool starts."""

import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracemax
from tracemax.parallel import parallel_map, worker_count


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


def test_importing_the_cli_loads_no_process_pool():
    src = Path(tracemax.__file__).resolve().parents[1]
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
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
