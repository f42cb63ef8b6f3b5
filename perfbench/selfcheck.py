"""Self-check of the benchmark at tiny budgets.

    python3 perfbench/selfcheck.py

Runs every workload once with tracing off and once with tracing on, at tiny
budgets and a one-second window, and fails unless:

* BENCHMARK.json declares the metrics below, with the units that run.py
  reports, and every workload but search_sweep (see run.BUDGETS);
* each run prints, as its last line, exactly the declared metrics of its
  mode, each with its declared unit and a finite value;
* every command of every run passed its checks (``failed == 0``);
* run.py exits nonzero, without a result line, in a directory that holds
  only BENCHMARK.json and the benchmark's own files.

Takes about a minute on two cores.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY_BUDGETS = {
    "lemma_sweep": {"trials": 260},  # two trial blocks, so one pool start
    "search_sweep": {"restarts": 1, "steps": 3, "sampler_trials": 20},
    "large_support": {"restarts": 2, "steps": 2},
}

WORKLOADS = {"lemma_sweep", "search_sweep", "large_support"}
DECLARED_WORKLOADS = {"lemma_sweep", "large_support"}  # see run.BUDGETS
END_TO_END = {"wall_s", "serial_wall_s", "setup_s", "peak_rss_mb"}
PER_LAYER = {
    *(f"linalg.eig.{m}" for m in ("calls", "self_s", "p50_us", "p99_us")),
    *(f"linalg.batched_trace_power.{m}"
      for m in ("calls", "self_s", "gflop_computed", "gflops_computed", "gbytes_computed")),
    *(f"ensembles.exact_trace_moment.{m}"
      for m in ("calls", "self_s", "outcomes", "outcomes_per_s")),
    *(f"ensembles.project_mean_shell.{m}"
      for m in ("calls", "self_s", "p50_us", "p99_us", "none_frac")),
    "ensembles.sample_with_retry.calls", "ensembles.sample_with_retry.self_s",
    *(f"ensembles.FiniteEnsemble.{m}" for m in ("calls", "self_s", "reject_frac")),
    "search.maximize.calls", "search.maximize.self_s",
    "search.step_us", "search.useful_frac", "search.audit_s",
    *(f"checks.{c}.self_s" for c in (
        "check_holder", "check_alt", "check_alt_schatten", "check_word_bound",
        "check_expectation_word_bound", "check_binomial_reduction", "check_theorem_max")),
    "words.eval_word_trace.calls", "words.eval_word_trace.self_s",
    "rng.stream.calls", "rng.stream.self_s",
    "extremal.theorem_max_value.calls", "extremal.theorem_max_value.self_s",
    "parallel.pool_starts", "parallel.map_wall_s", "parallel.efficiency",
    "trace.overhead_frac", "trace.uncovered_frac",
    *(f"{layer}.self_s" for layer in (
        "cli", "parallel", "search", "checks", "ensembles", "extremal",
        "linalg", "words", "rng")),
}


def check_declaration(spec: dict) -> None:
    assert {w["name"] for w in spec["workloads"]} == DECLARED_WORKLOADS, spec["workloads"]
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END_UNITS, declared
    assert END_TO_END <= set(declared), END_TO_END - set(declared)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == run.PER_LAYER_UNITS, set(declared) ^ set(run.PER_LAYER_UNITS)
    assert PER_LAYER <= set(declared), PER_LAYER - set(declared)
    assert set(run.BUDGETS) == WORKLOADS == set(TINY_BUDGETS)


def check_run(workload: str, trace: int, units: dict) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace)], budgets=TINY_BUDGETS)
    lines = out.getvalue().splitlines()
    assert code == 0, (workload, trace, lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1 and result["failed"] == 0, (workload, trace, lines)
    assert result["correct"] is True
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, (workload, trace, set(got) ^ set(units))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
    print(f"ok {workload} --trace {trace}: {len(got)} metrics, "
          f"{result['attempted']} commands, 0 failed")


def check_refuses_without_program() -> None:
    root = run.ROOT
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-bare-", dir=root))
    try:
        shutil.copy2(root / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "lemma_sweep",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, done.stdout
    assert '"metrics"' not in done.stdout, done.stdout
    print(f"ok refuses to run without src/: exit {done.returncode}")


def main() -> int:
    if not __debug__:
        raise SystemExit("run without -O: the checks are assert statements")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_declaration(spec)
    for workload in sorted(WORKLOADS):
        check_run(workload, 0, run.END_TO_END_UNITS)
        check_run(workload, 1, run.PER_LAYER_UNITS)
    check_refuses_without_program()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
