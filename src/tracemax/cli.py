"""tmx: reproducible verification runs over the trace-moment testbed.

Four subcommands: verify-lemmas (randomized checker sweep), extremal
(closed-form maximum with its reduction trace), search (adversarial gap
sweep), corollary (binomial moment growth table). Randomized commands
require an explicit --seed, and identical command lines produce
byte-identical output files; manifests therefore carry no wall-clock
fields. JSON reports embed their manifest, CSV tables get a sibling
<out>.manifest.json. A manifest records every parsed flag but --seed and
--out, which it records as seed and outputs; a CSV row is the fields of a
SweepRow or CorollaryRow, in order.

Exit codes: 0 success, 1 validation, usage or I/O error, 2 inequality
violation or checker failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .checks import LemmaSummary, run_lemma_sweep
from .errors import TracemaxError
from .extremal import (
    BernoulliParams,
    bernoulli_sum_moment_enum,
    corollary_growth,
    partial_sum_moments,
    theorem_max_value,
)
from .search import SearchConfig, gap_sweep


def _manifest(args: argparse.Namespace, outputs: list[str], **parsed) -> dict:
    """The manifest of a run: every flag but --seed and --out as a parameter,
    with ``parsed`` values in place of the raw ones, and the files written."""
    skipped = ("command", "handler", "seed", "out")
    flags = {key: value for key, value in vars(args).items() if key not in skipped}
    return {
        "command": args.command,
        "parameters": {**flags, **parsed},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "outputs": outputs,
    }


def _tally(s: LemmaSummary) -> dict:
    return {key: value for key, value in asdict(s).items() if key != "lemma_id"}


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _cell(value) -> str:
    """A CSV field: repr of a scalar, or its elements' reprs joined by ';'."""
    return ";".join(map(repr, value)) if isinstance(value, tuple) else repr(value)


def _write_table(out: Path, header: str, rows: list, manifest_doc: dict) -> None:
    """The CSV table out, a line of fields per dataclass row, and its <out>.manifest.json."""
    lines = [",".join(_cell(value) for value in vars(row).values()) for row in rows]
    out.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    _write_json(out.with_suffix(out.suffix + ".manifest.json"), manifest_doc)


def _list(raw: str, kind=float) -> list:
    """The entries of a comma list flag; an empty entry raises ValueError."""
    entries = raw.split(",")
    if not all(entry.strip() for entry in entries):
        raise ValueError(f"empty entry in list argument: {raw!r}")
    return [kind(entry) for entry in entries]


def cmd_verify_lemmas(args: argparse.Namespace) -> int:
    summaries = run_lemma_sweep(args.trials, args.dim_max, args.p_max, args.seed)
    ordered = list(summaries.values())
    all_passed = all(s.all_passed for s in ordered)
    for s in ordered:
        print(
            f"{s.lemma_id.value}: {s.passes}/{s.trials} passed, "
            f"min slack {s.min_slack:.6e}, min normalized slack {s.min_norm_slack:.6e}, "
            f"worst {s.worst_digest}"
        )
    print("all lemmas passed" if all_passed else "LEMMA CHECK FAILED")
    if args.out:
        doc = {
            "manifest": _manifest(args, [args.out]),
            "lemmas": [{"lemma": s.lemma_id.value, **_tally(s)} for s in ordered],
            "all_passed": all_passed,
        }
        _write_json(Path(args.out), doc)
    return 0 if all_passed else 2


def cmd_extremal(args: argparse.Namespace) -> int:
    params = BernoulliParams(caps=_list(args.L), alphas=_list(args.alpha))
    value = theorem_max_value(args.n, params, args.p)
    history = partial_sum_moments(params, args.p)
    scalar_moment = history[-1][args.p]
    steps = []
    for k, (cap, alpha) in enumerate(zip(params.caps, params.alphas), start=1):
        partial = history[k][args.p]
        steps.append({"member": k, "cap": cap, "alpha": alpha, "partial_moment": partial})
        print(
            f"reduce member {k}: cap={cap!r} alpha={alpha!r} -> "
            f"E(f_1+...+f_{k})^{args.p} = {partial!r}"
        )
    print(f"maximum: n * E(f_1+...+f_{params.count})^{args.p} = {value!r}")
    oracle_value = None
    if args.oracle:
        oracle_value = args.n * bernoulli_sum_moment_enum(params, args.p)
        rel = abs(value - oracle_value) / max(abs(oracle_value), 1.0)
        print(f"enumeration oracle: {oracle_value!r} (relative difference {rel:.3e})")
    if args.out:
        doc = {
            "manifest": _manifest(args, [args.out], L=params.caps, alpha=params.alphas),
            "n": args.n,
            "p": args.p,
            "caps": params.caps,
            "alphas": params.alphas,
            "steps": steps,
            "scalar_moment": scalar_moment,
            "value": value,
        }
        if oracle_value is not None:
            doc["oracle_value"] = oracle_value
        _write_json(Path(args.out), doc)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    config = SearchConfig(
        restarts=args.restarts,
        steps_per_restart=args.steps,
        seed=args.seed,
        max_atoms=args.atoms,
    )
    outcome = gap_sweep(
        _list(args.n, int),
        _list(args.members, int),
        _list(args.p, int),
        _list(args.alpha),
        _list(args.L),
        config,
        sampler_trials=args.sampler_trials,
    )
    out = Path(args.out)
    outputs = [str(out)]
    for kind, dumps in (("violation", outcome.violations), ("near", outcome.near_misses)):
        for i, dump in enumerate(dumps):
            path = out.with_suffix(f".{kind}{i}.json")
            _write_json(path, dump)
            outputs.append(str(path))
            if kind == "violation":
                print(f"VIOLATION dumped to {path}", file=sys.stderr)
    manifest_doc = {
        "manifest": _manifest(args, outputs),
        "cells": len(outcome.rows),
        "violations": len(outcome.violations),
        "near_misses": len(outcome.near_misses),
        "errors": [{"cell": cell, "message": msg} for cell, msg in outcome.errors],
    }
    if outcome.audit is not None:
        manifest_doc["sampler_audit"] = _tally(outcome.audit)
    header = "n,N,p,alphas,Ls,best_value,theorem_value,gap,seed"
    _write_table(out, header, outcome.rows, manifest_doc)

    mins = min((r.gap for r in outcome.rows), default=math.inf)
    print(f"{len(outcome.rows)} cells, min gap {mins!r}")
    if outcome.audit is not None:
        print(
            f"sampler audit: {outcome.audit.passes}/{outcome.audit.trials} passed, "
            f"min normalized slack {outcome.audit.min_norm_slack:.6e}"
        )
    for cell, msg in outcome.errors:
        print(f"cell error {cell}: {msg}", file=sys.stderr)
    if outcome.violations:
        print("VIOLATION FOUND")
    elif outcome.errors:
        print(f"sweep incomplete: {len(outcome.errors)} cells errored")
    else:
        print("no violations")
    return 0 if outcome.clean else 2


def cmd_corollary(args: argparse.Namespace) -> int:
    if args.p_max < 2 or args.n_max < 2:
        raise TracemaxError(
            f"need p_max >= 2 and n_max >= 2, got {args.p_max}, {args.n_max}"
        )
    n_grid = list(range(2, args.n_max + 1))
    p_grid = list(range(2, args.p_max + 1))
    rows, supremum = corollary_growth(n_grid, p_grid)
    print(f"{len(rows)} grid points, ratio supremum {supremum!r}")
    if args.out:
        out = Path(args.out)
        manifest_doc = {
            "manifest": _manifest(args, [str(out)]),
            "ratio_supremum": supremum,
            "grid_points": len(rows),
        }
        _write_table(out, "n,p,value,ratio", rows, manifest_doc)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmx",
        description="Numerical testbed for the extremal trace-moment inequality.",
    )
    parser.add_argument("--version", action="version", version=f"tmx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify-lemmas", help="randomized sweep of all lemma checkers")
    verify.add_argument("--trials", type=int, default=10000)
    verify.add_argument("--dim-max", type=int, default=5)
    verify.add_argument("--p-max", type=int, default=8)
    verify.add_argument("--seed", type=int, required=True)
    verify.add_argument("--out", type=str, default="")
    verify.set_defaults(handler=cmd_verify_lemmas)

    extremal = sub.add_parser("extremal", help="closed-form maximum and reduction trace")
    extremal.add_argument("--n", type=int, required=True)
    extremal.add_argument("--L", type=str, required=True, help="comma list of caps")
    extremal.add_argument("--alpha", type=str, required=True, help="comma list of alphas")
    extremal.add_argument("--p", type=int, required=True)
    extremal.add_argument("--oracle", action="store_true",
                          help="cross-check against 2^N enumeration")
    extremal.add_argument("--out", type=str, default="")
    extremal.set_defaults(handler=cmd_extremal)

    search = sub.add_parser("search", help="adversarial gap sweep over a grid")
    search.add_argument("--n", type=str, required=True, help="comma list of dimensions")
    search.add_argument("--members", type=str, required=True, help="comma list of N values")
    search.add_argument("--p", type=str, required=True, help="comma list of powers")
    search.add_argument("--alpha", type=str, default="0.5", help="comma list")
    search.add_argument("--L", type=str, default="1.0", help="comma list")
    search.add_argument("--restarts", type=int, default=20)
    search.add_argument("--steps", type=int, default=500)
    search.add_argument("--atoms", type=int, default=3, help="max atoms per member")
    search.add_argument("--sampler-trials", type=int, default=0,
                        help="extra audit: sampled families checked against the maximum")
    search.add_argument("--seed", type=int, required=True)
    search.add_argument("--out", type=str, required=True, help="output CSV path")
    search.set_defaults(handler=cmd_search)

    corollary = sub.add_parser("corollary", help="binomial moment growth table")
    corollary.add_argument("--p-max", type=int, default=30)
    corollary.add_argument("--n-max", type=int, default=50)
    corollary.add_argument("--out", type=str, default="")
    corollary.set_defaults(handler=cmd_corollary)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help or --version, 2 on a usage error
        return 1 if exc.code else 0
    try:
        if getattr(args, "seed", 0) < 0:  # before any work, in the parent of a parallel run
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.handler(args)
    except (TracemaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
