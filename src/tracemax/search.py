"""Adversarial maximization of the expected trace moment.

Hill climbing with random restarts over admissible ensemble families,
trying to push E tr(sum X_k)^p above the closed-form maximum. Finding any
family that does would falsify the implementation (or the theorem), so
the search is tuned to probe, not to certify: strict-improvement
acceptance, small re-projected moves, and one restart pinned at the
conjectured maximizer to confirm it is a fixed point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .checks import LemmaId, LemmaSummary, check_theorem_max, holds
from .ensembles import (
    EnsembleFamily,
    FiniteEnsemble,
    exact_trace_moment,
    extremal_family,
    family_to_json,
    project_mean_shell,
    sample_with_retry,
)
from .errors import BudgetExceeded, ConstraintViolated, TracemaxError
from .extremal import BernoulliParams, theorem_max_value
from .linalg import SymMatrix, clip_spectrum
from .parallel import parallel_map
from .rng import stream, subseed

# A gap below this fraction of the theorem value is dumped for replay.
NEAR_MISS_TOL = 1e-6

_TIE_TOL = 1e-12

# Atom perturbations are normal with this standard deviation times the cap.
_PROPOSAL_SCALE = 0.25

# Largest problem maximize() accepts; theorem_max_value bounds the moment order.
_MAX_DIM = 8
_MAX_MEMBERS = 6

# Budget for the sampled-family audit, matching the central admissibility
# property: n <= 4, N <= 3, s <= 3, p <= 8.
_AUDIT_DIM = 4
_AUDIT_MEMBERS = 3
_AUDIT_ATOMS = 3
_AUDIT_POWER = 8


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 20
    steps_per_restart: int = 500
    seed: int = 0
    max_atoms: int = 3

    def __post_init__(self):
        counts = (self.restarts, self.steps_per_restart, self.max_atoms)
        if any(c < 1 for c in counts):
            raise ConstraintViolated(f"all search counts must be positive: {counts}")


@dataclass(frozen=True)
class SearchResult:
    best_value: float
    best_family: EnsembleFamily
    theorem_value: float
    gap: float


def _perturb_atoms(
    member: FiniteEnsemble, rng: np.random.Generator
) -> tuple[tuple[SymMatrix, ...], tuple[float, ...]]:
    i = int(rng.integers(member.support_size))
    noise = rng.normal(0.0, _PROPOSAL_SCALE * member.cap, size=(member.dim, member.dim))
    candidate = clip_spectrum(SymMatrix(member.atoms[i].entries + noise), 0.0, member.cap)
    atoms = member.atoms[:i] + (candidate,) + member.atoms[i + 1:]
    return atoms, member.probs


def _shift_probs(
    member: FiniteEnsemble, rng: np.random.Generator
) -> tuple[tuple[SymMatrix, ...], tuple[float, ...]]:
    i, j = (int(v) for v in rng.choice(member.support_size, size=2, replace=False))
    delta = float(rng.uniform(0.0, member.probs[i]))
    moved = list(member.probs)
    moved[i] -= delta
    moved[j] += delta
    total = math.fsum(moved)
    return member.atoms, tuple(q / total for q in moved)


def _propose(family: EnsembleFamily, rng: np.random.Generator) -> EnsembleFamily | None:
    """One perturbed family, re-projected onto the constraint set.

    Returns None when the projection or validation rejects the move; the
    caller just counts the step and tries again.
    """
    k = int(rng.integers(len(family.members)))
    member = family.members[k]
    if member.support_size >= 2 and rng.random() < 0.5:
        atoms, probs = _shift_probs(member, rng)
    else:
        atoms, probs = _perturb_atoms(member, rng)

    atoms = project_mean_shell(atoms, probs, member.cap, member.alpha)
    if atoms is None:
        return None
    try:
        moved = FiniteEnsemble(
            atoms=atoms, probs=probs, cap=member.cap, alpha=member.alpha
        )
    except ConstraintViolated:
        return None
    members = family.members[:k] + (moved,) + family.members[k + 1:]
    return EnsembleFamily(members=members)


def _initial_family(
    n: int,
    params: BernoulliParams,
    config: SearchConfig,
    rng: np.random.Generator,
) -> EnsembleFamily:
    members = tuple(
        sample_with_retry(n, int(rng.integers(1, config.max_atoms + 1)), cap, alpha, rng)
        for cap, alpha in zip(params.caps, params.alphas)
    )
    return EnsembleFamily(members=members)


def _run_restart(
    args: tuple[int, BernoulliParams, int, SearchConfig, int],
) -> tuple[float, EnsembleFamily]:
    n, params, p, config, restart = args
    rng = stream(config.seed, restart)
    if restart == 0:
        family = extremal_family(n, params)
    else:
        family = _initial_family(n, params, config, rng)
    value = exact_trace_moment(family, p)
    for _ in range(config.steps_per_restart):
        candidate = _propose(family, rng)
        if candidate is None:
            continue
        moved = exact_trace_moment(candidate, p)
        if moved > value:
            family, value = candidate, moved
    return value, family


def maximize(
    n: int,
    params: BernoulliParams,
    p: int,
    config: SearchConfig,
) -> SearchResult:
    """Hill-climb with restarts; restart 0 starts at the conjectured maximizer.

    Restarts own independent RNG streams keyed by (seed, restart) and run
    in parallel; the merge keeps the earlier restart on ties within 1e-12.
    """
    if n > _MAX_DIM or params.count > _MAX_MEMBERS:
        raise BudgetExceeded(
            f"search budget exceeded: n={n}, members={params.count}, p={p}"
        )
    theorem_value = theorem_max_value(n, params, p)
    tasks = [(n, params, p, config, r) for r in range(config.restarts)]
    best: tuple[float, EnsembleFamily] | None = None
    for outcome in parallel_map(_run_restart, tasks):
        if best is None or outcome[0] > best[0] + _TIE_TOL:
            best = outcome
    value, family = best
    return SearchResult(
        best_value=value,
        best_family=family,
        theorem_value=theorem_value,
        gap=theorem_value - value,
    )


# Grid sweep ----------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    n: int
    members: int
    p: int
    alphas: tuple[float, ...]
    caps: tuple[float, ...]
    best_value: float
    theorem_value: float
    gap: float
    seed: int


@dataclass(frozen=True)
class SweepOutcome:
    rows: tuple[SweepRow, ...]
    violations: tuple[dict, ...]
    near_misses: tuple[dict, ...]
    errors: tuple[tuple[str, str], ...]
    audit: LemmaSummary | None

    @property
    def clean(self) -> bool:
        # errored cells are undecided, so they block a clean verdict too
        no_audit_failure = self.audit is None or self.audit.all_passed
        return not self.violations and not self.errors and no_audit_failure


def _audit_sampled_families(seed: int, trials: int) -> tuple[LemmaSummary, list[dict]]:
    summary = LemmaSummary.empty(LemmaId.THEOREM_MAX)
    failures: list[dict] = []
    for t in range(trials):
        rng = stream(seed, 2, t)
        n = int(rng.integers(1, _AUDIT_DIM + 1))
        count = int(rng.integers(1, _AUDIT_MEMBERS + 1))
        p = int(rng.integers(1, _AUDIT_POWER + 1))
        members = tuple(
            sample_with_retry(
                n,
                int(rng.integers(1, _AUDIT_ATOMS + 1)),
                float(rng.uniform(0.5, 2.0)),
                float(rng.uniform()),
                rng,
            )
            for _ in range(count)
        )
        family = EnsembleFamily(members=members)
        report = check_theorem_max(family, p, digest=f"audit={t};n={n};N={count};p={p}")
        summary = summary.add(report)
        if not report.passed:
            failures.append(
                {
                    "digest": report.input_digest,
                    "lhs": report.lhs,
                    "rhs": report.rhs,
                    "p": p,
                    "family": family_to_json(family),
                }
            )
    return summary, failures


def gap_sweep(
    n_values: list[int],
    member_counts: list[int],
    p_values: list[int],
    alpha_values: list[float],
    cap_values: list[float],
    config: SearchConfig,
    sampler_trials: int = 0,
) -> SweepOutcome:
    """maximize() on every (n, N, p, alpha, cap) grid cell, plus an audit.

    Within a cell every member shares that cell's (alpha, cap). Each cell
    derives its own seed from config.seed and its grid indices, so rows
    only depend on the command line, not on execution order. Violations
    and near-misses carry full family JSON for replay.
    """
    rows: list[SweepRow] = []
    violations: list[dict] = []
    near_misses: list[dict] = []
    errors: list[tuple[str, str]] = []
    cells = itertools.product(
        enumerate(n_values),
        enumerate(member_counts),
        enumerate(p_values),
        enumerate(alpha_values),
        enumerate(cap_values),
    )
    for (i_n, n), (i_c, count), (i_p, p), (i_a, alpha), (i_l, cap) in cells:
        cell = f"n={n};N={count};p={p};alpha={alpha};L={cap}"
        cell_seed = subseed(stream(config.seed, 1, i_n, i_c, i_p, i_a, i_l))
        params = BernoulliParams(caps=(cap,) * count, alphas=(alpha,) * count)
        try:
            result = maximize(n, params, p, replace(config, seed=cell_seed))
        except TracemaxError as exc:
            errors.append((cell, str(exc)))
            continue
        row = SweepRow(
            n=n, members=count, p=p,
            alphas=params.alphas, caps=params.caps,
            best_value=result.best_value,
            theorem_value=result.theorem_value,
            gap=result.gap, seed=cell_seed,
        )
        rows.append(row)
        if not holds(result.best_value, result.theorem_value):
            dumps = violations
        elif result.gap < NEAR_MISS_TOL * result.theorem_value:
            dumps = near_misses
        else:
            continue
        dumps.append(
            {
                "cell": cell,
                "gap": result.gap,
                "best_value": result.best_value,
                "theorem_value": result.theorem_value,
                "family": family_to_json(result.best_family),
            }
        )

    audit = None
    if sampler_trials > 0:
        audit, audit_failures = _audit_sampled_families(config.seed, sampler_trials)
        violations.extend(audit_failures)
    return SweepOutcome(
        rows=tuple(rows),
        violations=tuple(violations),
        near_misses=tuple(near_misses),
        errors=tuple(errors),
        audit=audit,
    )
