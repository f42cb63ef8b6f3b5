"""Run one tmx command in this process with tracemax's public functions traced.

    python3 perfbench/tracer.py --scope full --spans OUT.npz -- search --n 1 ...

The tracer imports tracemax, replaces every module-level binding of each
public function with a wrapper that records a span (name, start, end,
parent span, outcome), runs ``tracemax.cli.main`` with the arguments after
``--`` and exits with its return code. Spans live in growable arrays and are
written once, after the command returns, as one ``.npz`` file together with
the counters the wrappers keep.

``--scope full`` wraps every public function of every layer module, the
``FiniteEnsemble`` constructor and the ``SymMatrix.eig`` cached property.
``--scope pool`` wraps only ``parallel.parallel_map``, so a run at several
workers measures the parent's view of the pool without slowing the workers.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from functools import cached_property, wraps
from time import perf_counter

LAYERS = ("cli", "parallel", "search", "checks", "ensembles", "extremal",
          "linalg", "words", "rng")

# Outcome of a traced call.
RETURNED, RETURNED_NONE, RAISED = 0, 1, 2


class Recorder:
    """Spans of one process, kept in arrays until the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("b")
        self.counters: Counter[str] = Counter()
        self._open = [-1]

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def call(self, nid, fn, hook, args, kwargs):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.outcome.append(RAISED)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self._open.pop()
        self.outcome[i] = RETURNED_NONE if result is None else RETURNED
        if hook is not None:
            hook(self.counters, args, kwargs)
        return result

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(nid, fn, hook, args, kwargs)

        return traced

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            outcome=np.frombuffer(self.outcome, dtype=np.int8),
            meta=np.array(json.dumps({"names": self.names, "counters": self.counters})),
        )


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_trace_power(counters, args, kwargs) -> None:
    # Operation count of binary exponentiation over a (k, n, n) stack:
    # p.bit_length() - 1 squarings and popcount(p) - 1 multiplies, each a
    # batched matmul of 2n^3 flop per matrix reading two stacks and writing
    # one. Computed from the shape, not measured.
    stack = _arg(args, kwargs, 0, "stack")
    p = int(_arg(args, kwargs, 1, "p"))
    k, n, _ = stack.shape
    matmuls = p.bit_length() - 1 + bin(p).count("1") - 1
    counters["linalg.batched_trace_power.flop"] += matmuls * k * 2 * n**3
    counters["linalg.batched_trace_power.bytes"] += 8 * (
        k * n * n + matmuls * 3 * k * n * n + k * n
    )


def _count_outcomes(counters, args, kwargs) -> None:
    family = _arg(args, kwargs, 0, "family")
    outcomes = 1
    for member in family.members:
        outcomes *= member.support_size
    counters["ensembles.exact_trace_moment.outcomes"] += outcomes


def _count_proposals(counters, args, kwargs) -> None:
    config = _arg(args, kwargs, 3, "config")
    counters["search.proposals"] += config.restarts * config.steps_per_restart


def _count_pool_starts(worker_count):
    def hook(counters, args, kwargs) -> None:
        if len(_arg(args, kwargs, 1, "items")) > 1 and worker_count() > 1:
            counters["parallel.pool_starts"] += 1
    return hook


def _traced_tasks(recorder: Recorder, parallel_map):
    """parallel_map whose task function gets a span in its caller's layer.

    Tasks are usually private functions (a search restart, a block of lemma
    trials); without a span of their own, their self time would be charged
    to the parallel layer. Only valid at one worker: the wrapper cannot be
    pickled for a pool.
    """
    @wraps(parallel_map)
    def mapped(fn, items):
        layer = fn.__module__.rpartition(".")[2]
        return parallel_map(recorder.wrap(f"{layer}.{fn.__name__}", fn), items)

    return mapped


def _rebind(original, replacement) -> None:
    """Point every tracemax module attribute bound to ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "tracemax" or module_name.startswith("tracemax.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder, scope: str) -> None:
    importlib.import_module("tracemax")
    modules = {layer: importlib.import_module(f"tracemax.{layer}") for layer in LAYERS}
    parallel = modules["parallel"]
    hooks = {
        "linalg.batched_trace_power": _count_trace_power,
        "ensembles.exact_trace_moment": _count_outcomes,
        "search.maximize": _count_proposals,
        "parallel.parallel_map": _count_pool_starts(parallel.worker_count),
    }
    if scope == "pool":
        fn = parallel.parallel_map
        _rebind(fn, recorder.wrap("parallel.parallel_map", fn, hooks["parallel.parallel_map"]))
        return

    for layer, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            target = _traced_tasks(recorder, fn) if name == "parallel.parallel_map" else fn
            _rebind(fn, recorder.wrap(name, target, hooks.get(name)))

    ensemble = modules["ensembles"].FiniteEnsemble
    ensemble.__init__ = recorder.wrap("ensembles.FiniteEnsemble", ensemble.__init__)

    sym = modules["linalg"].SymMatrix
    eig = cached_property(recorder.wrap("linalg.eig", vars(sym)["eig"].func))
    eig.__set_name__(sym, "eig")
    sym.eig = eig


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scope", choices=("full", "pool"), required=True)
    parser.add_argument("--spans", required=True, help="output .npz path")
    parser.add_argument("tmx_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    tmx_args = args.tmx_args[1:] if args.tmx_args[:1] == ["--"] else args.tmx_args

    recorder = Recorder()
    install(recorder, args.scope)
    from tracemax import cli

    code = cli.main(tmx_args)
    recorder.save(args.spans)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
