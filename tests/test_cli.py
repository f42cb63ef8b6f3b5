"""Command line surface: exit codes, output formats, and byte-level
determinism of every file the tool writes."""

import concurrent.futures
import csv
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracemax.cli as cli
from tracemax.checks import LemmaId, LemmaSummary
from tracemax.search import SearchConfig, SweepOutcome, SweepRow


def run_cli(argv):
    return cli.main(argv)


# verify-lemmas -------------------------------------------------------------------

def test_verify_lemmas_small_run(capsys, tmp_path):
    out = tmp_path / "lemmas.json"
    code = run_cli([
        "verify-lemmas", "--trials", "3", "--dim-max", "2", "--p-max", "4",
        "--seed", "0", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "all lemmas passed" in captured.out
    assert captured.out.count("passed,") == 6
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is True
    assert [entry["lemma"] for entry in doc["lemmas"]] == [
        "Holder", "ALT", "ALT_Schatten", "WordBound",
        "ExpectationWordBound", "BinomialReduction",
    ]
    for entry in doc["lemmas"]:
        assert entry["passes"] == entry["trials"] == 3
        assert entry["min_norm_slack"] >= -1e-9
    assert doc["manifest"]["command"] == "verify-lemmas"
    assert doc["manifest"]["seed"] == 0


def test_verify_lemmas_requires_seed():
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify-lemmas", "--trials", "1"])
    assert exc.value.code == 2


def test_verify_lemmas_unwritable_out(capsys, tmp_path):
    target = tmp_path / "missing" / "deep" / "out.json"
    code = run_cli([
        "verify-lemmas", "--trials", "1", "--dim-max", "2", "--p-max", "2",
        "--seed", "0", "--out", str(target),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "i/o error" in captured.err


def test_verify_lemmas_rejects_zero_trials(capsys):
    code = run_cli([
        "verify-lemmas", "--trials", "0", "--dim-max", "2", "--p-max", "2",
        "--seed", "0",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


# extremal ------------------------------------------------------------------------

def test_extremal_prints_the_reduction(capsys, tmp_path):
    out = tmp_path / "extremal.json"
    code = run_cli([
        "extremal", "--n", "2", "--L", "1.0,1.0", "--alpha", "0.5,0.5",
        "--p", "2", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "reduce member 1:" in captured.out
    assert "reduce member 2:" in captured.out
    assert "maximum: n * E(f_1+...+f_2)^2 = 3.0" in captured.out
    doc = json.loads(out.read_text())
    assert doc["value"] == 3.0
    assert len(doc["steps"]) == 2


def test_extremal_oracle_flag(capsys):
    code = run_cli([
        "extremal", "--n", "1", "--L", "1.0,2.0", "--alpha", "0.5,0.25",
        "--p", "3", "--oracle",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "enumeration oracle:" in captured.out
    assert "relative difference" in captured.out


def test_extremal_rejects_alpha_above_one(capsys):
    code = run_cli(["extremal", "--n", "2", "--L", "1.0", "--alpha", "1.5", "--p", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def test_extremal_rejects_mismatched_lists(capsys):
    code = run_cli([
        "extremal", "--n", "2", "--L", "1.0,2.0", "--alpha", "0.5", "--p", "2",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# search ----------------------------------------------------------------------------

def _search_args(out):
    return [
        "search", "--n", "1,2", "--members", "1", "--p", "1,2",
        "--alpha", "0.5", "--L", "1.0", "--restarts", "1", "--steps", "8",
        "--seed", "0", "--out", str(out),
    ]


def test_search_writes_csv_and_manifest(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(_search_args(out))
    captured = capsys.readouterr()
    assert code == 0
    assert "no violations" in captured.out
    with out.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4
    assert list(rows[0]) == [
        "n", "N", "p", "alphas", "Ls", "best_value", "theorem_value", "gap", "seed",
    ]
    for row in rows:
        gap = float(row["gap"])
        assert gap >= -1e-9 * (1.0 + float(row["theorem_value"]))
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["manifest"]["command"] == "search"
    assert manifest["cells"] == 4
    assert manifest["violations"] == 0


def test_search_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "sweep.csv"
    run_cli(_search_args(out))
    first_csv = out.read_bytes()
    first_manifest = (tmp_path / "sweep.csv.manifest.json").read_bytes()
    run_cli(_search_args(out))
    assert out.read_bytes() == first_csv
    assert (tmp_path / "sweep.csv.manifest.json").read_bytes() == first_manifest


def test_search_worker_count_does_not_change_output_bytes(monkeypatch, tmp_path):
    # two restarts per cell, so every cell engages the pool at two workers
    argv = [
        "search", "--n", "1,2", "--members", "1,2", "--p", "2", "--restarts", "2",
        "--steps", "4", "--sampler-trials", "20", "--seed", "5", "--out", "sweep.csv",
    ]
    outputs = {}
    for threads in ("1", "2"):
        run_dir = tmp_path / threads
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        monkeypatch.setenv("TMX_THREADS", threads)
        assert run_cli(argv) == 0
        outputs[threads] = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    assert "sweep.csv.manifest.json" in outputs["1"]
    assert any(".near" in name for name in outputs["1"])
    assert outputs["1"] == outputs["2"]


def test_search_near_miss_dumps_are_replayable(tmp_path):
    out = tmp_path / "sweep.csv"
    run_cli(_search_args(out))
    dump = json.loads(out.with_suffix(".near0.json").read_text())
    assert "cell" in dump and "family" in dump
    assert dump["family"]["members"]


def test_search_starts_one_pool(monkeypatch, tmp_path):
    # four cells of three restarts and a two-block audit are one parallel_map
    started = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setenv("TMX_THREADS", "2")
    assert run_cli([
        "search", "--n", "1,2", "--members", "1,2", "--p", "2", "--restarts", "3",
        "--steps", "4", "--sampler-trials", "300", "--seed", "5",
        "--out", str(tmp_path / "sweep.csv"),
    ]) == 0
    assert started == [2]


def test_dump_names_match_the_manifest_and_the_readme(tmp_path):
    # dumps replace the extension of --out; the manifest appends to it
    run_cli(_search_args(tmp_path / "sweep.csv"))
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    outputs = [Path(path).name for path in manifest["manifest"]["outputs"]]
    assert outputs[0] == "sweep.csv"
    assert outputs[1:] == [f"sweep.near{k}.json" for k in range(manifest["near_misses"])]
    assert manifest["near_misses"] == 4
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(outputs + ["sweep.csv.manifest.json"])
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for name in ("sweep.near0.json", "sweep.violation0.json", "sweep.csv.manifest.json"):
        assert name in readme


def test_search_manifest_records_every_search_setting(monkeypatch, tmp_path):
    # A SearchConfig field the manifest does not record would make a run
    # impossible to reproduce from its manifest.
    manifest_key = {
        "restarts": "restarts", "steps_per_restart": "steps",
        "max_atoms": "atoms", "seed": "seed",
    }
    seen = []

    def fake_sweep(*args, **kwargs):
        seen.append(args[5])
        return SweepOutcome(rows=(), violations=(), near_misses=(), errors=(), audit=None)

    monkeypatch.setattr(cli, "gap_sweep", fake_sweep)
    out = tmp_path / "sweep.csv"
    assert run_cli([
        "search", "--n", "1", "--members", "1", "--p", "2", "--restarts", "3",
        "--steps", "7", "--atoms", "2", "--seed", "11", "--out", str(out),
    ]) == 0
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    recorded = {**manifest["manifest"]["parameters"], "seed": manifest["manifest"]["seed"]}
    (config,) = seen
    for field in dataclasses.fields(SearchConfig):
        assert recorded[manifest_key[field.name]] == getattr(config, field.name)


def test_search_violation_exits_two(monkeypatch, capsys, tmp_path):
    row = SweepRow(
        n=1, members=1, p=2, alphas=(0.5,), caps=(1.0,),
        best_value=2.0, theorem_value=1.0, gap=-1.0, seed=0,
    )
    fake = SweepOutcome(
        rows=(row,),
        violations=({"cell": "n=1;N=1;p=2;alpha=0.5;L=1.0", "family": {}},),
        near_misses=(),
        errors=(),
        audit=None,
    )
    monkeypatch.setattr(cli, "gap_sweep", lambda *a, **k: fake)
    out = tmp_path / "sweep.csv"
    code = run_cli(_search_args(out))
    captured = capsys.readouterr()
    assert code == 2
    assert "VIOLATION FOUND" in captured.out
    assert "VIOLATION dumped" in captured.err
    assert out.with_suffix(".violation0.json").exists()


def test_search_audit_failure_exits_two(monkeypatch, capsys, tmp_path):
    fake = SweepOutcome(
        rows=(),
        violations=(),
        near_misses=(),
        errors=(),
        audit=LemmaSummary(
            lemma_id=LemmaId.THEOREM_MAX, trials=5, passes=4, min_slack=-1.0,
            min_norm_slack=-0.5, worst_digest="trial=3",
        ),
    )
    monkeypatch.setattr(cli, "gap_sweep", lambda *a, **k: fake)
    out = tmp_path / "sweep.csv"
    code = run_cli(_search_args(out) + ["--sampler-trials", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "SAMPLER AUDIT FAILED" in captured.out


# corollary -------------------------------------------------------------------------

def test_corollary_minimal_grid(capsys, tmp_path):
    out = tmp_path / "growth.csv"
    code = run_cli(["corollary", "--p-max", "2", "--n-max", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "1 grid points" in captured.out
    with out.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1
    assert rows[0]["n"] == "2" and rows[0]["p"] == "2"
    assert float(rows[0]["value"]) == 1.5
    manifest = json.loads((tmp_path / "growth.csv.manifest.json").read_text())
    assert manifest["ratio_supremum"] == float(rows[0]["ratio"])


def test_corollary_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "growth.csv"
    args = ["corollary", "--p-max", "4", "--n-max", "3", "--out", str(out)]
    run_cli(args)
    first = out.read_bytes()
    run_cli(args)
    assert out.read_bytes() == first


def test_corollary_rejects_degenerate_grid(capsys):
    code = run_cli(["corollary", "--p-max", "1", "--n-max", "2"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# module entry ----------------------------------------------------------------------

def test_module_invocation_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tracemax", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "tmx 0.1.0"


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2
