"""Acceptance gate: every advertised guarantee at its stated budget.

Each criterion runs exactly once and records one PASS/FAIL line; the
lines are echoed after the run via the terminal-summary hook in
conftest. Budgets assume a single-core runner.
"""

import csv
import itertools
import json
import math
import time

import numpy as np
import pytest

import conftest
from oracles import expand_trace_power
import tracemax.cli as cli
from tracemax import (
    BernoulliParams,
    bernoulli_sum_moment,
    exact_trace_moment,
    extremal_family,
    stream,
    theorem_max_value,
)

pytestmark = pytest.mark.acceptance


def _verdict(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, line


def test_criterion_1_lemma_sweep_full_budget(tmp_path):
    out = tmp_path / "lemmas.json"
    started = time.perf_counter()
    code = cli.main([
        "verify-lemmas", "--trials", "10000", "--dim-max", "5",
        "--p-max", "8", "--seed", "0", "--out", str(out),
    ])
    elapsed = time.perf_counter() - started
    doc = json.loads(out.read_text()) if out.exists() else {"lemmas": []}
    slacks = [entry["min_norm_slack"] for entry in doc["lemmas"]]
    ok = (
        code == 0
        and elapsed <= 300.0
        and len(slacks) == 6
        and all(s >= -1e-9 for s in slacks)
    )
    _verdict(
        1, ok,
        f"exit {code}, 10000 trials x 6 lemmas, "
        f"min normalized slack {min(slacks, default=math.nan):.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_moment_recursion_vs_enumeration():
    def enum_moment(caps, alphas, p):
        terms = []
        for outcome in itertools.product((0, 1), repeat=len(caps)):
            prob = math.prod(
                a if bit else 1.0 - a for bit, a in zip(outcome, alphas)
            )
            total = math.fsum(c for bit, c in zip(outcome, caps) if bit)
            terms.append(prob * total**p)
        return math.fsum(terms)

    rng = stream(2001)
    worst = 0.0
    for _ in range(100):
        count = int(rng.integers(1, 13))
        p = int(rng.integers(1, 11))
        caps = tuple(float(c) for c in rng.uniform(0.1, 3.0, size=count))
        alphas = tuple(float(a) for a in rng.uniform(0.0, 1.0, size=count))
        params = BernoulliParams(caps=caps, alphas=alphas)
        recursion = bernoulli_sum_moment(params, p)
        reference = enum_moment(caps, alphas, p)
        worst = max(worst, abs(recursion - reference) / abs(reference))
    _verdict(2, worst <= 1e-12, f"100 parameter sets, worst relative error {worst:.3e}")


def test_criterion_3_adversarial_sweep_finds_no_violation(tmp_path):
    out = tmp_path / "sweep.csv"
    started = time.perf_counter()
    code = cli.main([
        "search", "--n", "1,2,3", "--members", "1,2,3", "--p", "1,2,3,4,5,6",
        "--alpha", "0.5", "--L", "1.0", "--restarts", "20", "--steps", "500",
        "--atoms", "3", "--sampler-trials", "10000", "--seed", "0",
        "--out", str(out),
    ])
    elapsed = time.perf_counter() - started
    with out.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    gaps_ok = all(
        float(r["gap"]) >= -1e-9 * (1.0 + float(r["theorem_value"])) for r in rows
    )
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    audit = manifest.get("sampler_audit", {})
    ok = (
        code == 0
        and elapsed <= 1800.0
        and len(rows) == 54
        and gaps_ok
        and manifest["violations"] == 0
        and audit.get("passes") == 10000
    )
    min_gap = min((float(r["gap"]) for r in rows), default=math.nan)
    _verdict(
        3, ok,
        f"exit {code}, {len(rows)} cells, min gap {min_gap:.3e}, "
        f"audit {audit.get('passes')}/{audit.get('trials')}, {elapsed:.1f}s",
    )


def test_criterion_4_extremal_family_reproduces_the_maximum():
    worst = 0.0
    cases = 0
    for n in range(1, 5):
        for count in range(1, 4):
            rng = stream(4000, n, count)
            settings = [
                tuple(
                    (float(c), float(a))
                    for c, a in zip(
                        rng.uniform(0.3, 2.5, size=count),
                        rng.uniform(0.05, 0.95, size=count),
                    )
                )
                for _ in range(2)
            ]
            settings.append(tuple((1.0, 0.0) for _ in range(count)))
            settings.append(tuple((1.0, 1.0) for _ in range(count)))
            for pairs in settings:
                params = BernoulliParams(
                    caps=tuple(c for c, _ in pairs),
                    alphas=tuple(a for _, a in pairs),
                )
                family = extremal_family(n, params)
                for p in range(1, 9):
                    exact = exact_trace_moment(family, p)
                    target = theorem_max_value(n, params, p)
                    cases += 1
                    if target == 0.0:
                        worst = max(worst, abs(exact))
                    else:
                        worst = max(worst, abs(exact - target) / abs(target))
    _verdict(4, worst <= 1e-10, f"{cases} cases, worst relative error {worst:.3e}")


def test_criterion_5_trace_power_expansion_matches_direct():
    rng = stream(5001)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, 11))
        x = conftest.random_psd(n, rng, scale=float(rng.uniform(0.2, 2.0)))
        y = conftest.random_psd(n, rng, scale=float(rng.uniform(0.2, 2.0)))
        expanded = expand_trace_power(x, y, p)
        direct = float(np.trace(np.linalg.matrix_power(x.entries + y.entries, p)))
        worst = max(worst, abs(expanded - direct) / max(abs(direct), 1.0))
    _verdict(5, worst <= 1e-9, f"1000 pairs, worst relative error {worst:.3e}")


def test_criterion_6_growth_table_runs_fast_and_flattens(tmp_path):
    out = tmp_path / "growth.csv"
    started = time.perf_counter()
    code = cli.main(["corollary", "--p-max", "30", "--n-max", "50", "--out", str(out)])
    elapsed = time.perf_counter() - started
    with out.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    sup20 = max(float(r["ratio"]) for r in rows if r["p"] == "20")
    sup30 = max(float(r["ratio"]) for r in rows if r["p"] == "30")
    growth = (sup30 - sup20) / sup20
    supremum = json.loads(
        (tmp_path / "growth.csv.manifest.json").read_text()
    )["ratio_supremum"]
    # the supremum itself is reported, never pinned to a constant
    ok = code == 0 and elapsed <= 60.0 and growth < 0.05
    _verdict(
        6, ok,
        f"exit {code}, {len(rows)} rows, supremum {supremum:.6f} (reported), "
        f"p20->p30 growth {growth:+.2%}, {elapsed:.1f}s",
    )


def test_criterion_7_identical_flags_identical_bytes(tmp_path):
    # reduced-scale reruns of every writer; full-budget runs share the
    # exact same code paths and seeds
    specs = {
        "lemmas": lambda out: [
            "verify-lemmas", "--trials", "40", "--dim-max", "3", "--p-max", "6",
            "--seed", "0", "--out", out,
        ],
        "sweep": lambda out: [
            "search", "--n", "1,2", "--members", "1,2", "--p", "2,3",
            "--alpha", "0.5", "--L", "1.0", "--restarts", "2", "--steps", "25",
            "--sampler-trials", "50", "--seed", "0", "--out", out,
        ],
        "growth": lambda out: [
            "corollary", "--p-max", "6", "--n-max", "6", "--out", out,
        ],
    }
    outputs = {
        "lemmas": ["lemmas.json"],
        "sweep": ["sweep.csv", "sweep.csv.manifest.json", "sweep.near0.json"],
        "growth": ["growth.csv", "growth.csv.manifest.json"],
    }
    compared = 0
    identical = True
    for name, build in specs.items():
        target = tmp_path / outputs[name][0]
        assert cli.main(build(str(target))) == 0
        first = {f: (tmp_path / f).read_bytes() for f in outputs[name]}
        assert cli.main(build(str(target))) == 0
        for f in outputs[name]:
            compared += 1
            if (tmp_path / f).read_bytes() != first[f]:
                identical = False
    _verdict(7, identical, f"{compared} files byte-compared across reruns")
