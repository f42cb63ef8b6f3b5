"""Check that this checkout and another one produce byte-identical outputs.

Runs a fixed list of tmx commands from this checkout's src/ and from
--base's src/ (a clone or worktree of another commit), at TMX_THREADS=1,
2 and 3, each in a fresh directory. Three workers is an odd count, and
more than a 2-core host has, so tasks are handed out in another order. Compares every file a command writes,
its stdout, its stderr and its exit code, prints one line per command
and worker count, and exits 1 if anything differs.

    python scripts/compare_outputs.py --base ../tracemax-parent
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

_SWEEP = ["--dim-max", "5", "--out", "lemmas.json"]

COMMANDS = [
    # acceptance criterion 1
    ("criterion-1", ["verify-lemmas", "--trials", "10000", "--p-max", "8", "--seed", "0", *_SWEEP]),
    # the benchmark's lemma_sweep command
    *(
        (f"lemma-sweep-{seed}",
         ["verify-lemmas", "--trials", "512", "--p-max", "8", "--seed", str(seed), *_SWEEP])
        for seed in (7000, 7001, 7002)
    ),
    # every trial of one dimension: the sampled lemmas' largest batches
    ("dim-max-1", [
        "verify-lemmas", "--trials", "512", "--dim-max", "1", "--p-max", "8", "--seed", "5",
        "--out", "lemmas.json",
    ]),
    # a last block of one trial
    ("trials-257", ["verify-lemmas", "--trials", "257", "--p-max", "8", "--seed", "6", *_SWEEP]),
    # powers above the moment budget, rejected before any trial runs
    ("p-max-40", ["verify-lemmas", "--trials", "300", "--p-max", "40", "--seed", "0", *_SWEEP]),
    # a power whose word bounds overflow unless it is rejected first
    ("p-max-4000", ["verify-lemmas", "--trials", "100", "--p-max", "4000", "--seed", "1"]),
    ("extremal-oracle", [
        "extremal", "--n", "3", "--L", "1.0,2.0,0.5", "--alpha", "0.5,0.25,0.75", "--p", "6",
        "--oracle", "--out", "extremal.json",
    ]),
    ("corollary", ["corollary", "--p-max", "30", "--n-max", "50", "--out", "growth.csv"]),
    # --out as ./name: a JSON report's manifest records the flag as given,
    # a CSV table's the Path-normalised name
    ("corollary-dot-out", ["corollary", "--p-max", "12", "--n-max", "9", "--out", "./growth.csv"]),
    ("lemmas-dot-out", [
        "verify-lemmas", "--trials", "300", "--dim-max", "5", "--p-max", "8", "--seed", "3",
        "--out", "./lemmas.json",
    ]),
    # the benchmark's large_support command at its first repetition seed
    ("large-support", [
        "search", "--n", "8", "--members", "6", "--p", "30", "--atoms", "6", "--alpha", "0.5",
        "--L", "1.0", "--restarts", "24", "--steps", "8", "--seed", "1400000", "--out", "sweep.csv",
    ]),
    # the criterion-3 grid at reduced budgets, at alpha near and at its extremes
    ("criterion-3-reduced", [
        "search", "--n", "1,2,3", "--members", "1,2,3", "--p", "1,2,3,4,5,6",
        "--alpha", "0.5,0.999,1.0,0.0", "--L", "1.0", "--restarts", "3", "--steps", "40",
        "--atoms", "3", "--sampler-trials", "300", "--seed", "0", "--out", "sweep.csv",
    ]),
    # restarts whose supports exceed the budget: cell errors
    ("support-errors", [
        "search", "--n", "1,2", "--members", "6", "--p", "2", "--atoms", "20",
        "--restarts", "6", "--steps", "3", "--seed", "0", "--out", "sweep.csv",
    ]),
    # cells whose theorem value overflows run no block, and alternate with
    # searched cells, which still get the seeds of their own grid indices
    ("overflow-cells", [
        "search", "--n", "1,2", "--members", "2", "--p", "3", "--alpha", "0.5",
        "--L", "1e300,1.0", "--restarts", "3", "--steps", "5", "--sampler-trials", "20",
        "--seed", "4", "--out", "sweep.csv",
    ]),
]

THREADS = (1, 2, 3)


def run(root: Path, argv: list[str], threads: int, cwd: Path) -> tuple[dict, float]:
    """Run tmx from root/src in cwd; return its outputs by name and its wall time."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), TMX_THREADS=str(threads))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "tracemax", *argv], cwd=cwd, env=env, capture_output=True
    )
    elapsed = time.perf_counter() - started
    outputs = {
        "<stdout>": proc.stdout,
        "<stderr>": proc.stderr,
        "<exit code>": str(proc.returncode).encode(),
    }
    for path in sorted(cwd.rglob("*")):
        if path.is_file():
            outputs[str(path.relative_to(cwd))] = path.read_bytes()
    return outputs, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    args = parser.parse_args(argv)
    base = args.base.resolve()
    if not (base / "src" / "tracemax").is_dir():
        parser.error(f"{base} has no src/tracemax")

    differing = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as scratch:
        for name, command in COMMANDS:
            for threads in THREADS:
                runs = []
                for side, root in (("this", HERE), ("base", base)):
                    cwd = Path(scratch) / f"{name}-{threads}-{side}"
                    cwd.mkdir()
                    runs.append(run(root, command, threads, cwd))
                (ours, our_s), (theirs, their_s) = runs
                names = sorted(ours.keys() | theirs.keys())
                diffs = [k for k in names if ours.get(k) != theirs.get(k)]
                differing += bool(diffs)
                verdict = "DIFF " + ", ".join(diffs) if diffs else f"same ({len(ours) - 3} files)"
                timing = f"{our_s:6.1f} s / {their_s:6.1f} s"
                print(f"{name:20} TMX_THREADS={threads}  {timing}  {verdict}", flush=True)
    total = len(COMMANDS) * len(THREADS)
    print(f"{total - differing} of {total} runs identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
