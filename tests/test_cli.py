"""Command line surface: exit codes, output formats, and byte-level
determinism of every file the tool writes."""

import argparse
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tracemax
import tracemax.checks as checks
import tracemax.cli as cli
import tracemax.search as search
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


def test_verify_lemmas_requires_seed(capsys):
    assert run_cli(["verify-lemmas", "--trials", "1"]) == 1
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command, seed", [
    (["verify-lemmas", "--trials", "300", "--dim-max", "2", "--p-max", "4"], -1),
    (["search", "--n", "1,2", "--members", "1", "--p", "2", "--restarts", "2", "--steps", "2",
      "--sampler-trials", "20"], -5),
])
def test_a_negative_seed_is_rejected_before_any_work(
    monkeypatch, capsys, tmp_path, threads, command, seed
):
    # rejected in the parent, before a worker could meet it in SeedSequence
    monkeypatch.setenv("TMX_THREADS", threads)
    out = tmp_path / "out.csv"
    assert run_cli([*command, "--seed", str(seed), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --seed must be >= 0, got {seed}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_verify_lemmas_unwritable_out(capsys, tmp_path):
    target = tmp_path / "missing" / "deep" / "out.json"
    code = run_cli([
        "verify-lemmas", "--trials", "1", "--dim-max", "2", "--p-max", "2",
        "--seed", "0", "--out", str(target),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "i/o error" in captured.err


def test_verify_lemmas_rejects_a_power_above_the_budget_before_any_trial(capsys):
    # p_max = 4000 overflowed a word bound into an OverflowError traceback
    # or a RuntimeWarning before any power was checked
    code = run_cli(["verify-lemmas", "--trials", "100", "--p-max", "4000", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: moment order 4000 exceeds budget 30\n"
    assert captured.out == ""


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


def test_extremal_rejects_a_zero_dimension(capsys):
    # theorem_max_value owns the dimension rule, and nothing prints first
    code = run_cli(["extremal", "--n", "0", "--L", "1.0", "--alpha", "0.5", "--p", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: dimension must be a positive integer, got 0\n"
    assert captured.out == ""


def test_extremal_rejects_an_empty_list_entry(capsys):
    # the empty entries were dropped: a one-member maximum, exit 0
    code = run_cli(["extremal", "--n", "1", "--L", "1.0,", "--alpha", "0.5,,", "--p", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: empty entry in list argument: '1.0,'\n"
    assert captured.out == ""


def test_extremal_rejects_mismatched_lists(capsys):
    code = run_cli([
        "extremal", "--n", "2", "--L", "1.0,2.0", "--alpha", "0.5", "--p", "2",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("caps, n, message", [
    ("inf", "2", "finite"),
    ("nan", "2", "finite"),
    ("1e300", "2", "overflows"),
    ("1e300,1.0", "2", "overflows"),
    ("1e102", "1000", "overflows"),
])
def test_extremal_rejects_non_finite_and_overflowing_caps(capsys, caps, n, message):
    # an infinite cap printed a NaN maximum and exited 0; a huge one raised
    # an OverflowError traceback, or overflowed n * E S^p to inf
    alphas = ",".join("0.5" for _ in caps.split(","))
    code = run_cli(["extremal", "--n", n, "--L", caps, "--alpha", alphas, "--p", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and message in captured.err
    assert "maximum:" not in captured.out and "nan" not in captured.out


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


def test_search_rejects_negative_sampler_trials(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli([*_search_args(out), "--sampler-trials", "-7"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err and "sampler_trials" in captured.err
    assert "no violations" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_search_rejects_an_empty_list_entry(capsys, tmp_path):
    # "1,,2" searched n = 1 and 2
    out = tmp_path / "sweep.csv"
    args = _search_args(out)
    args[args.index("--n") + 1] = "1,,2"
    code = run_cli(args)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: empty entry in list argument: '1,,2'\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_search_rejects_an_infinite_cap(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    args = _search_args(out)
    args[args.index("--L") + 1] = "inf"
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert list(tmp_path.iterdir()) == []


def test_search_records_an_overflowing_cell_as_an_error(capsys, tmp_path):
    # p = 1 stays finite at L = 1e200 and is searched; p = 2 overflows
    out = tmp_path / "sweep.csv"
    args = _search_args(out)
    args[args.index("--L") + 1] = "1e200"
    assert run_cli(args) == 2
    assert "sweep incomplete: 2 cells errored" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert [e["cell"] for e in manifest["errors"]] == [
        "n=1;N=1;p=2;alpha=0.5;L=1e+200", "n=2;N=1;p=2;alpha=0.5;L=1e+200",
    ]
    assert all("overflows" in e["message"] for e in manifest["errors"])
    rows = list(csv.DictReader(out.open()))
    assert [row["p"] for row in rows] == ["1", "1"]
    assert all(float(row["theorem_value"]) < float("inf") for row in rows)


def test_search_near_miss_dumps_are_replayable(tmp_path):
    # every near-miss dump reloads to its family, whose exact moment and
    # closed-form maximum are the dump's values bit for bit, as README
    # "Ensemble JSON" promises; near alpha = 1 some cells' best families
    # are climbed ones, not the maximizer that restart 0 starts at
    out = tmp_path / "sweep.csv"
    assert run_cli([
        "search", "--n", "1,2", "--members", "1,2", "--p", "1,2,3", "--alpha", "0.5,0.999",
        "--L", "1.0", "--restarts", "3", "--steps", "20", "--seed", "0", "--out", str(out),
    ]) == 0
    count = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["near_misses"]
    assert count == 24
    climbed = 0
    for k in range(count):
        dump = json.loads(out.with_suffix(f".near{k}.json").read_text())
        assert set(dump) == {"cell", "gap", "best_value", "theorem_value", "family"}
        family = tracemax.family_from_json(dump["family"])
        p = int(re.fullmatch(r"n=\d+;N=\d+;p=(\d+);.*", dump["cell"]).group(1))
        assert tracemax.exact_trace_moment(family, p) == dump["best_value"], dump["cell"]
        assert tracemax.theorem_max_value(family.dim, family.params, p) == dump["theorem_value"]
        assert tracemax.family_to_json(family) == dump["family"]
        maximizer = tracemax.extremal_family(family.dim, family.params)
        climbed += tracemax.family_to_json(maximizer) != dump["family"]
    assert climbed > 0


def test_search_starts_one_pool(monkeypatch, tmp_path):
    # four cells of three restarts and a two-block audit are one parallel_map:
    # one round of two forked workers
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setenv("TMX_THREADS", "2")
    assert run_cli([
        "search", "--n", "1,2", "--members", "1,2", "--p", "2", "--restarts", "3",
        "--steps", "4", "--sampler-trials", "300", "--seed", "5",
        "--out", str(tmp_path / "sweep.csv"),
    ]) == 0
    assert len(forked) == 2


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
    # the closed-form maximum lowered by 1e-3 at odd powers, in the audit
    # and in the search: the p = 1 cells and some audit trials fail, and the
    # audit's dumps are numbered after the cells'
    real = checks.theorem_max_value

    def planted(n, params, p):
        value = real(n, params, p)
        return value * (1.0 - 1e-3) if p % 2 else value

    monkeypatch.setattr(checks, "theorem_max_value", planted)
    monkeypatch.setattr(search, "theorem_max_value", planted)
    monkeypatch.setenv("TMX_THREADS", "1")
    out = tmp_path / "sweep.csv"
    code = run_cli(_search_args(out) + ["--sampler-trials", "300"])
    captured = capsys.readouterr()
    assert code == 2
    assert "VIOLATION FOUND" in captured.out
    (passed,) = re.findall(r"^sampler audit: (\d+)/300 passed", captured.out, re.MULTILINE)
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["sampler_audit"]["passes"] == int(passed) < 300
    dumps = [
        json.loads(out.with_suffix(f".violation{k}.json").read_text())
        for k in range(manifest["violations"])
    ]
    assert [dump["cell"] for dump in dumps[:2]] == [
        "n=1;N=1;p=1;alpha=0.5;L=1.0", "n=2;N=1;p=1;alpha=0.5;L=1.0",
    ]
    assert all("digest" in dump for dump in dumps[2:])
    assert len(dumps) - 2 == 300 - int(passed)


# Every flag of a run but --seed and --out, with its --out file's name.
_MANIFEST_RUNS = {
    "verify-lemmas": (
        ["--trials", "2", "--dim-max", "2", "--p-max", "3", "--seed", "4", "--out", "lemmas.json"],
        "lemmas.json",
    ),
    "extremal": (
        ["--n", "2", "--L", "1.0,2.0", "--alpha", "0.5,0.25", "--p", "3", "--oracle",
         "--out", "extremal.json"],
        "extremal.json",
    ),
    "search": (
        ["--n", "1", "--members", "1", "--p", "2", "--alpha", "0.25", "--L", "2.0",
         "--restarts", "2", "--steps", "3", "--atoms", "2", "--sampler-trials", "3",
         "--seed", "4", "--out", "sweep.csv"],
        "sweep.csv.manifest.json",
    ),
    "corollary": (
        ["--p-max", "3", "--n-max", "3", "--out", "growth.csv"], "growth.csv.manifest.json",
    ),
}


def _subcommands() -> dict:
    """The subcommand parsers of tmx, by name."""
    actions = cli.build_parser()._actions
    (subparsers,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


def test_manifest_runs_cover_every_subcommand():
    assert set(_subcommands()) == set(_MANIFEST_RUNS)


@pytest.mark.parametrize("command", sorted(_MANIFEST_RUNS))
def test_manifest_records_every_flag(monkeypatch, tmp_path, command):
    # a flag the manifest does not record would make a run impossible to
    # reproduce from its manifest; extremal records its lists as parsed
    flags, written = _MANIFEST_RUNS[command]
    dests = {action.dest for action in _subcommands()[command]._actions} - {"help"}
    parsed = vars(cli.build_parser().parse_args([command, *flags]))
    if command == "extremal":
        parsed.update(L=[1.0, 2.0], alpha=[0.5, 0.25])
    monkeypatch.chdir(tmp_path)
    assert run_cli([command, *flags]) == 0
    manifest = json.loads((tmp_path / written).read_text())["manifest"]
    assert manifest["parameters"] == {
        dest: parsed[dest] for dest in dests - {"command", "handler", "seed", "out"}
    }
    assert manifest["command"] == command
    assert manifest["seed"] == parsed.get("seed")


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


def test_unknown_subcommand_exits_one(capsys):
    assert run_cli(["frobnicate"]) == 1
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify-lemmas", "--seed", "x"],
    ["extremal", "--n", "2", "--L", "1.0", "--alpha", "0.5", "--p", "2.5"],
])
def test_malformed_flags_exit_one(capsys, argv):
    # argparse exits 2 on a usage error, the code of a failed verification
    assert run_cli(argv) == 1
    assert "invalid int value" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: tmx")
