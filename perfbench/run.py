"""tracemax benchmark: closed batches of `tmx` commands, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the checkout root is the parent of this file's
directory, and the program is imported from its ``src/``. This one process
runs one command at a time (a closed loop with one client), repeating
while the next repetition still fits in ``--seconds``; the first always runs.
Repetition ``i`` gives tmx the seed ``1000 * seed + i``, so a run covers
several inputs, and the same ``--seed`` always yields the same inputs.

``--trace 0`` (tracing off) runs each repetition at ``TMX_THREADS=1`` and at
``TMX_THREADS=nproc``, alternating which goes first, and reports medians:

  wall_s         wall time of the command at nproc workers
  serial_wall_s  wall time of the command at one worker
  setup_s        a fresh interpreter importing ``tracemax.cli`` and exiting
  peak_rss_mb    peak RSS of the largest process of the nproc command

``--trace 1`` runs, per repetition, the untraced serial command, the same
command under ``perfbench/tracer.py`` with every public tracemax function
traced, and the nproc command with only ``parallel_map`` traced; the per-layer
metrics are per-command means over the repetitions (see ``layer_metrics``).

Every command is checked: exit code 0, a clean verdict in its output file,
and byte-identical output files (by sha256) across worker counts and with
tracing on. A failure counts in ``failed``; ``failed / attempted`` is printed
as ``failed_frac``. BLAS, OpenMP and MKL are pinned to one thread in every
child, so workers times BLAS threads never exceed nproc. The last stdout line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give quartiles, counts and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import LAYERS, RAISED, RETURNED_NONE

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

COMMAND_TIMEOUT_S = 150
MAX_REPS = 999  # repetition seeds 1000*seed + i must not collide across seeds
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Budgets are per command. lemma_sweep needs more than one 256-trial block
# so that it starts its single pool; search_sweep needs two restarts so that
# every cell starts a pool; large_support needs many restarts so that the
# drawn atom counts (1..6 per member) average out.
#
# search_sweep is not declared in BENCHMARK.json. Its nproc command starts
# 54 two-worker pools that each run a few tens of milliseconds of work, so
# its wall time is mostly the host's cross-CPU wake-up latency: on a
# 2-vCPU VM the two vCPUs lost 4-6 s to steal time during its 7-8 s, and it
# drifted from 4.5 s to 8 s within twenty minutes, while its serial time
# moved about 15%. It stays
# runnable here, traced and untraced, for hand measurements of pool and
# projection work.
BUDGETS = {
    "lemma_sweep": {"trials": 512},
    "search_sweep": {"restarts": 2, "steps": 15, "sampler_trials": 300},
    "large_support": {"restarts": 24, "steps": 8},
}

END_TO_END_UNITS = {"wall_s": "s", "serial_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

CHECKERS = ("check_holder", "check_alt", "check_alt_schatten", "check_word_bound",
            "check_expectation_word_bound", "check_binomial_reduction",
            "check_theorem_max")

PER_LAYER_UNITS = {
    "linalg.eig.calls": "count",
    "linalg.eig.self_s": "s",
    "linalg.eig.p50_us": "us",
    "linalg.eig.p99_us": "us",
    "linalg.batched_trace_power.calls": "count",
    "linalg.batched_trace_power.self_s": "s",
    "linalg.batched_trace_power.gflop_computed": "Gflop",
    "linalg.batched_trace_power.gbytes_computed": "GB",
    "linalg.batched_trace_power.gflops_computed": "Gflop/s",
    "ensembles.exact_trace_moment.calls": "count",
    "ensembles.exact_trace_moment.self_s": "s",
    "ensembles.exact_trace_moment.incl_s": "s",
    "ensembles.exact_trace_moment.outcomes": "count",
    "ensembles.exact_trace_moment.outcomes_per_s": "1/s",
    "ensembles.project_mean_shell.calls": "count",
    "ensembles.project_mean_shell.self_s": "s",
    "ensembles.project_mean_shell.p50_us": "us",
    "ensembles.project_mean_shell.p99_us": "us",
    "ensembles.project_mean_shell.none_frac": "fraction",
    "ensembles.sample_with_retry.calls": "count",
    "ensembles.sample_with_retry.self_s": "s",
    "ensembles.FiniteEnsemble.calls": "count",
    "ensembles.FiniteEnsemble.self_s": "s",
    "ensembles.FiniteEnsemble.reject_frac": "fraction",
    "search.maximize.calls": "count",
    "search.maximize.self_s": "s",
    "search.step_us": "us",
    "search.useful_frac": "fraction",
    "search.audit_s": "s",
    **{f"checks.{name}.self_s": "s" for name in CHECKERS},
    "words.eval_word_trace.calls": "count",
    "words.eval_word_trace.self_s": "s",
    "rng.stream.calls": "count",
    "rng.stream.self_s": "s",
    "extremal.theorem_max_value.calls": "count",
    "extremal.theorem_max_value.self_s": "s",
    "parallel.pool_starts": "count",
    "parallel.map_wall_s": "s",
    "parallel.efficiency": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.uncovered_frac": "fraction",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


def tmx_args(workload: str, budget: dict, seed: int) -> list[str]:
    if workload == "lemma_sweep":
        return ["verify-lemmas", "--trials", str(budget["trials"]), "--dim-max", "5",
                "--p-max", "8", "--seed", str(seed), "--out", "lemmas.json"]
    if workload == "search_sweep":
        grid = ["--n", "1,2,3", "--members", "1,2,3", "--p", "1,2,3,4,5,6", "--atoms", "3",
                "--sampler-trials", str(budget["sampler_trials"])]
    elif workload == "large_support":
        grid = ["--n", "8", "--members", "6", "--p", "30", "--atoms", "6"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ["search", *grid, "--alpha", "0.5", "--L", "1.0",
            "--restarts", str(budget["restarts"]), "--steps", str(budget["steps"]),
            "--seed", str(seed), "--out", "sweep.csv"]


def verdict_failure(workload: str, budget: dict, run_dir: Path) -> str | None:
    """Why the command's output is not a clean verdict, or None if it is."""
    if workload == "lemma_sweep":
        doc = json.loads((run_dir / "lemmas.json").read_text(encoding="utf-8"))
        if len(doc["lemmas"]) != 6 or not doc["all_passed"]:
            return f"{len(doc['lemmas'])} lemmas, all_passed={doc['all_passed']}"
        for entry in doc["lemmas"]:
            if not entry["passes"] == entry["trials"] == budget["trials"]:
                return f"{entry['lemma']}: {entry['passes']}/{entry['trials']} passed"
        return None
    doc = json.loads((run_dir / "sweep.csv.manifest.json").read_text(encoding="utf-8"))
    cells = 54 if workload == "search_sweep" else 1
    if doc["cells"] != cells or doc["violations"] or doc["errors"]:
        return f"cells={doc['cells']} violations={doc['violations']} errors={doc['errors']}"
    audit_trials = budget.get("sampler_trials", 0)
    if audit_trials:
        audit = doc["sampler_audit"]
        if not audit["passes"] == audit["trials"] == audit_trials:
            return f"sampler audit {audit['passes']}/{audit['trials']} passed"
    return None


def tree_digest(run_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(run_dir)).encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


@dataclass
class Command:
    wall_s: float
    rss_mb: float
    digest: str
    failure: str | None


@dataclass
class Harness:
    workload: str
    budget: dict
    work: Path
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def env(self, threads: int) -> dict:
        env = dict(os.environ)
        env.update(BLAS_PINS)
        env.update(PYTHONPATH=str(SRC), TMX_THREADS=str(threads), TMPDIR=str(self.work))
        return env

    def spawn(self, argv: list[str], threads: int, cwd: Path, log: Path):
        """Run argv to completion; return (wall seconds, peak RSS MB, exit code)."""
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env(threads), stdout=out,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            # On timeout, kill the pool workers along with the command.
            timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                # wait4 reports the peak RSS of the child and of every
                # descendant it reaped, which covers the pool workers.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def command(self, tag: str, seed: int, threads: int, prefix: list[str] = ()) -> Command:
        run_dir = self.work / tag
        run_dir.mkdir()
        log = self.work / f"{tag}.log"
        argv = [sys.executable, *prefix] if prefix else [sys.executable, "-m", "tracemax"]
        if prefix:
            argv.append("--")
        argv += tmx_args(self.workload, self.budget, seed)
        wall, rss, code = self.spawn(argv, threads, run_dir, log)
        self.attempted += 1
        failure = None
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-400:]
            failure = f"exit code {code}: {tail}"
        else:
            try:
                failure = verdict_failure(self.workload, self.budget, run_dir)
            except (OSError, KeyError, ValueError) as exc:
                failure = f"unreadable output: {exc!r}"
        if failure:
            self.failures.append(f"{tag}: {failure}")
        return Command(wall, rss, tree_digest(run_dir), failure)

    def compare(self, tag: str, reference: Command, other: Command) -> None:
        """Count a byte mismatch against ``other`` unless it already failed."""
        if other.failure is None and reference.failure is None and other.digest != reference.digest:
            other.failure = "output bytes differ"
            self.failures.append(f"{tag}: output files differ from the serial run")

    def setup_time(self) -> float:
        wall, _, code = self.spawn([sys.executable, "-c", "import tracemax.cli"], 1,
                                   self.work, self.work / "setup.log")
        if code != 0:
            raise RuntimeError(f"importing tracemax.cli failed with exit code {code}")
        return wall


def check_checkout(work: Path) -> None:
    """Fail unless this checkout's src/ provides the tracemax being measured."""
    if not (SRC / "tracemax" / "cli.py").is_file():
        raise RuntimeError(f"no tracemax sources under {SRC}")
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work), **BLAS_PINS)
    found = subprocess.run(
        [sys.executable, "-c", "import tracemax.cli; print(tracemax.cli.__file__)"],
        cwd=work, env=env, capture_output=True, text=True, timeout=60,
    )
    if found.returncode != 0 or not found.stdout.strip():
        raise RuntimeError(f"cannot import tracemax.cli: {found.stderr.strip()}")
    if Path(found.stdout.strip()).resolve().parent != (SRC / "tracemax").resolve():
        raise RuntimeError(f"tracemax imported from {found.stdout.strip()}, not {SRC}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def source_identity() -> dict:
    sha = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            sha = done.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for path in sorted((SRC / "tracemax").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def repetitions(seconds: float):
    """Yield repetition indices 0, 1, ... while the next one fits in ``seconds``.

    The first repetition always runs; a later one starts only if the slowest
    so far would still end within the window, so a run never overshoots it
    by a whole repetition.
    """
    deadline = time.perf_counter() + seconds
    slowest = 0.0
    for rep in range(MAX_REPS):
        begun = time.perf_counter()
        if rep and begun + slowest > deadline:
            return
        yield rep
        slowest = max(slowest, time.perf_counter() - begun)


def measure_end_to_end(h: Harness, seed: int, seconds: float) -> dict:
    # The host's speed drifts by tens of percent over seconds, so set-up is
    # sampled before every command rather than in one burst.
    setup, serial, parallel, rss = [], [], [], []
    for rep in repetitions(seconds):
        tmx_seed = 1000 * seed + rep
        runs = {}
        for i, threads in enumerate((1, NPROC) if rep % 2 == 0 else (NPROC, 1)):
            setup.append(h.setup_time())
            runs[threads] = h.command(f"r{rep}-t{threads}-{i}", tmx_seed, threads)
        h.compare(f"r{rep}-t{NPROC}", runs[1], runs[NPROC])
        serial.append(runs[1].wall_s)
        parallel.append(runs[NPROC].wall_s)
        rss.append(runs[NPROC].rss_mb)
    return {"wall_s": parallel, "serial_wall_s": serial, "setup_s": setup, "peak_rss_mb": rss}


def measure_traced(h: Harness, seed: int, seconds: float) -> dict:
    full, pool = [], []
    serial, traced, parallel = [], [], []
    for rep in repetitions(seconds):
        tmx_seed = 1000 * seed + rep
        base = h.command(f"r{rep}-serial", tmx_seed, 1)
        spans = h.work / f"r{rep}-full.npz"
        run = h.command(f"r{rep}-traced", tmx_seed, 1,
                        [str(TRACER), "--scope", "full", "--spans", str(spans)])
        h.compare(f"r{rep}-traced", base, run)
        pool_spans = h.work / f"r{rep}-pool.npz"
        par = h.command(f"r{rep}-pool", tmx_seed, NPROC,
                        [str(TRACER), "--scope", "pool", "--spans", str(pool_spans)])
        h.compare(f"r{rep}-pool", base, par)
        if not (spans.exists() and pool_spans.exists()):
            raise RuntimeError(f"traced run wrote no spans: {run.failure or par.failure}")
        full.append(load_spans(spans))
        pool.append(load_spans(pool_spans))
        serial.append(base.wall_s)
        traced.append(run.wall_s)
        parallel.append(par.wall_s)
    return layer_metrics(full, pool, serial, traced, parallel)


def load_spans(path: Path) -> dict:
    with np.load(path) as data:
        spans = {key: data[key] for key in ("name", "parent", "start", "end", "outcome")}
        meta = json.loads(data["meta"].item())
    spans["names"] = meta["names"]
    spans["counters"] = meta["counters"]
    return spans


def layer_metrics(full: list[dict], pool: list[dict], serial: list[float],
                  traced: list[float], parallel: list[float]) -> dict:
    """Per-layer metrics, as means per traced command.

    A span's self time is its duration minus that of its direct child spans;
    a layer's self time sums the self times of its module's spans. Latency
    percentiles pool the calls of every repetition. The uncovered share is
    taken of the traced command's wall time measured from outside, so
    interpreter start-up and imports count as uncovered.
    """
    reps = len(full)
    totals: dict[str, float] = {}
    samples: dict[str, list] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    for spans, traced_wall in zip(full, traced):
        names = spans["names"]
        name, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        calls = np.bincount(name, minlength=len(names))
        self_s = np.bincount(name, weights=own, minlength=len(names))
        incl_s = np.bincount(name, weights=dur, minlength=len(names))
        ident = {n: i for i, n in enumerate(names)}
        for i, n in enumerate(names):
            add(f"{n}.calls", float(calls[i]))
            add(f"{n}.self_s", float(self_s[i]))
            add(f"{n}.incl_s", float(incl_s[i]))
            add(f"{n.split('.')[0]}.self_s", float(self_s[i]))
            if n in ("linalg.eig", "ensembles.project_mean_shell"):
                samples.setdefault(n, []).append(dur[name == i])
        for key, value in spans["counters"].items():
            add(key, float(value))

        search_ids = [i for i, n in enumerate(names) if n.startswith("search.")]

        def outcome_count(fn: str, outcome: int, from_search: bool = False) -> int:
            if fn not in ident:
                return 0
            mask = (name == ident[fn]) & (spans["outcome"] == outcome)
            if from_search:
                # A rejected proposal: the projection or validation that
                # search called directly, as opposed to inside the sampler.
                mask &= np.isin(name[parent], search_ids) & has_parent
            return int(np.count_nonzero(mask))

        add("pms.none", outcome_count("ensembles.project_mean_shell", RETURNED_NONE))
        add("fe.raised", outcome_count("ensembles.FiniteEnsemble", RAISED))
        add("search.rejected",
            outcome_count("ensembles.project_mean_shell", RETURNED_NONE, True)
            + outcome_count("ensembles.FiniteEnsemble", RAISED, True))
        add("trace.uncovered", 1.0 - float(dur[~has_parent].sum()) / traced_wall)

    for spans in pool:
        dur = spans["end"] - spans["start"]
        add("parallel.map_wall_s", float(dur[spans["parent"] < 0].sum()))
        add("parallel.pool_starts", float(spans["counters"].get("parallel.pool_starts", 0)))

    def per_command(key: str) -> float:
        return totals.get(key, 0.0) / reps

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def percentile_us(fn: str, q: float) -> float:
        values = np.concatenate(samples[fn]) if fn in samples else np.zeros(0)
        return float(np.percentile(values, q)) * 1e6 if values.size else 0.0

    metrics = {}
    for key in PER_LAYER_UNITS:
        if key.endswith((".calls", ".self_s")) or key in ("parallel.pool_starts",
                                                          "parallel.map_wall_s"):
            metrics[key] = per_command(key)
    flop = per_command("linalg.batched_trace_power.flop")
    maximize_s = per_command("search.maximize.incl_s")
    proposals = per_command("search.proposals")
    etm_s = per_command("ensembles.exact_trace_moment.incl_s")
    metrics.update({
        "linalg.eig.p50_us": percentile_us("linalg.eig", 50),
        "linalg.eig.p99_us": percentile_us("linalg.eig", 99),
        "linalg.batched_trace_power.gflop_computed": flop / 1e9,
        "linalg.batched_trace_power.gbytes_computed":
            per_command("linalg.batched_trace_power.bytes") / 1e9,
        "linalg.batched_trace_power.gflops_computed":
            ratio(flop / 1e9, per_command("linalg.batched_trace_power.self_s")),
        "ensembles.exact_trace_moment.incl_s": etm_s,
        "ensembles.exact_trace_moment.outcomes":
            per_command("ensembles.exact_trace_moment.outcomes"),
        "ensembles.exact_trace_moment.outcomes_per_s":
            ratio(per_command("ensembles.exact_trace_moment.outcomes"), etm_s),
        "ensembles.project_mean_shell.p50_us": percentile_us("ensembles.project_mean_shell", 50),
        "ensembles.project_mean_shell.p99_us": percentile_us("ensembles.project_mean_shell", 99),
        "ensembles.project_mean_shell.none_frac":
            ratio(per_command("pms.none"), per_command("ensembles.project_mean_shell.calls")),
        "ensembles.FiniteEnsemble.reject_frac":
            ratio(per_command("fe.raised"), per_command("ensembles.FiniteEnsemble.calls")),
        "search.step_us": ratio(maximize_s, proposals) * 1e6,
        "search.useful_frac": ratio(proposals - per_command("search.rejected"), proposals),
        "search.audit_s": per_command("search.gap_sweep.incl_s") - maximize_s,
        "parallel.efficiency": statistics.median(serial) / (NPROC * statistics.median(parallel)),
        "trace.overhead_frac": statistics.median([t / s for t, s in zip(traced, serial)]) - 1.0,
        "trace.uncovered_frac": per_command("trace.uncovered"),
    })
    return metrics


def main(argv: list[str] | None = None, budgets: dict = BUDGETS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(budgets))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**40 or args.seconds <= 0:
        parser.error("need 0 <= seed < 2**40 and seconds > 0")
    budget = budgets[args.workload]
    # Let a SIGTERM unwind through the clean-up below, which also kills the
    # command in flight.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        check_checkout(work)
        h = Harness(args.workload, budget, work)
        if args.trace:
            metrics = measure_traced(h, args.seed, args.seconds)
            units = PER_LAYER_UNITS
        else:
            samples = measure_end_to_end(h, args.seed, args.seconds)
            units = END_TO_END_UNITS
            metrics = {}
            for name, values in samples.items():
                q1, median, q3 = quartiles(values)
                metrics[name] = median
                print(f"{name}: median {median:.6g} {units[name]} "
                      f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = {
        "workload": args.workload, "seed": args.seed, "budget": budget,
        "tmx_args": tmx_args(args.workload, budget, 1000 * args.seed),
        "nproc": NPROC, "blas_pins": BLAS_PINS,
        "python": platform.python_version(), "numpy": np.__version__,
        **source_identity(),
    }
    print("env: " + json.dumps(env, sort_keys=True))
    for failure in h.failures:
        print(f"FAILED {failure}")
    print(f"failed_frac: {len(h.failures) / h.attempted:.6g} fraction "
          f"({len(h.failures)} of {h.attempted} commands)")
    result = {
        "correct": not h.failures,
        "attempted": h.attempted,
        "failed": len(h.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
