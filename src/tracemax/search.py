"""Adversarial maximization of the expected trace moment.

Hill climbing with random restarts over admissible ensemble families,
trying to push E tr(sum X_k)^p above the closed-form maximum. Finding any
family that does would falsify the implementation (or the theorem), so
the search is tuned to probe, not to certify: strict-improvement
acceptance, small re-projected moves, and one restart pinned at the
conjectured maximizer to confirm it is a fixed point.

A cell's restarts run in blocks, and the restarts of a block step in
lockstep on stacked arrays. Each restart still draws every proposal from
its own stream (cell seed, restart), while the eigensolves of perturbed
atoms, the mean-shell projections and the exact moments of small supports
run batched over the block. Stacked eigh and matmul give every slice the
bits it gets alone, so each restart follows the trajectory it follows on
its own (the tests hold it to a one-restart oracle), and neither the block
partition nor the worker count changes any result. gap_sweep maps every cell's blocks and the audit's blocks through
one parallel_map, so a search starts at most one pool.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .checks import LemmaId, LemmaSummary, check_theorem_max, holds
from .ensembles import (
    FAILED,
    SAMPLER_ATTEMPTS,
    EnsembleFamily,
    FiniteEnsemble,
    _draw,
    _no_convergence,
    _project_batch,
    _require_support,
    _spectral_entries,
    _stacked_moments,
    _symmetrised,
    extremal_family,
    family_to_json,
    sample_with_retry,
)
from .errors import BudgetExceeded, ConstraintViolated, TracemaxError
from .extremal import BernoulliParams, theorem_max_value
from .linalg import SymMatrix
from .parallel import parallel_map, worker_count
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
_AUDIT_BLOCK = 256

# With several workers, a search is cut into about this many restart blocks
# per worker: enough to even out heavy-tailed restart costs (1 to 6^6
# outcomes per moment at n = 8, N = 6) on a single-cell grid, few enough
# that each block still steps several restarts together.
_BLOCKS_PER_WORKER = 4


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


class _Member(NamedTuple):
    """One member's atoms as arrays: (s,) probs, (s, n, n) eigenbases and entries, (s, n) spectra."""

    probs: np.ndarray
    vecs: np.ndarray
    spectra: np.ndarray
    entries: np.ndarray


def _member_arrays(probs: tuple[float, ...], atoms: tuple[SymMatrix, ...]) -> _Member:
    return _Member(
        np.asarray(probs, dtype=float),
        np.stack([a.eig.eigenvectors for a in atoms]),
        np.stack([a.eig.eigenvalues for a in atoms]),
        np.stack([a.entries for a in atoms]),
    )


def _padded(members: list[_Member], slots: int) -> tuple[np.ndarray, ...]:
    """(probs, vecs, spectra, entries, sizes) of the members, zero-padded to ``slots`` atoms."""
    n = members[0].entries.shape[-1]
    count = len(members)
    probs = np.zeros((count, slots))
    vecs = np.zeros((count, slots, n, n))
    spectra = np.zeros((count, slots, n))
    entries = np.zeros((count, slots, n, n))
    sizes = np.array([len(m.probs) for m in members])
    for b, (m, s) in enumerate(zip(members, sizes.tolist())):
        probs[b, :s], vecs[b, :s], spectra[b, :s], entries[b, :s] = m
    return probs, vecs, spectra, entries, sizes


def _sample_members(
    n: int,
    cap: float,
    alpha: float,
    max_atoms: int,
    rngs: dict[int, np.random.Generator],
    errors: dict[int, TracemaxError],
) -> dict[int, _Member]:
    """sample_with_retry for one member of every chain, with the projections batched.

    Each chain draws the member's support size (1 to max_atoms) and then
    its sampler seeds from its own stream, as a restart run alone does; a
    chain whose attempts all fail records the last SamplerFailed in
    ``errors``.
    """
    sizes = {c: int(rng.integers(1, max_atoms + 1)) for c, rng in rngs.items()}
    sampled: dict[int, _Member] = {}
    pending = list(rngs)
    for _ in range(SAMPLER_ATTEMPTS):
        drafts = []
        for c in pending:
            seed = subseed(rngs[c])
            try:
                drafts.append((c, seed, _member_arrays(*_draw(n, sizes[c], cap, alpha, seed))))
            except TracemaxError as exc:
                errors[c] = exc
        pending = []
        if alpha in (0.0, 1.0):  # drawn on the shell, never projected
            sampled.update((c, member) for c, _, member in drafts)
            break
        if not drafts:
            break
        probs, vecs, spectra, entries, counts = _padded([m for _, _, m in drafts], max_atoms)
        status, spectra, entries, *_ = _project_batch(
            vecs, spectra, entries, probs, counts, cap, alpha
        )
        for b, (c, seed, member) in enumerate(drafts):
            if status[b] == FAILED:
                errors[c] = _no_convergence(n, sizes[c], cap, alpha, seed)
                pending.append(c)
            else:
                s = sizes[c]
                sampled[c] = member._replace(spectra=spectra[b, :s], entries=entries[b, :s])
                errors.pop(c, None)
        if not pending:
            break
    return sampled


class _Chains:
    """Restarts [start, stop) of the cell (n, params, p), held as stacked
    arrays and stepped in lockstep; config.seed is the cell's seed.

    Member k of chain c has sizes[c, k] atoms: entries[c, k, i] and
    eigenbases vecs[c, k, i] (C, N, s, n, n), ascending spectra
    spectra[c, k, i] (C, N, s, n) and probabilities probs[c, k, i]
    (C, N, s). Later slots are zero padding with zero probability. A chain
    whose start raised keeps the error and takes no step.

    Every proposal that lands on the shell is admissible: spectra stay in
    [0, cap], probabilities stay nonnegative and sum to 1 within a few
    ulps, and the mean norm is within 1e-9 * alpha * cap of the target. So
    the FiniteEnsemble check that follows each projection can never reject
    one, and FiniteEnsemble is built, and checked, only for the results.
    """

    def __init__(
        self, n: int, params: BernoulliParams, p: int, config: SearchConfig, start: int, stop: int
    ):
        self.n, self.params, self.p = n, params, p
        chains = stop - start
        self.rngs = [stream(config.seed, r) for r in range(start, stop)]
        self.errors: dict[int, TracemaxError] = {}
        members: list[list[_Member]] = [[] for _ in range(chains)]
        random = range(1, chains) if start == 0 else range(chains)
        if start == 0:  # restart 0 starts at the conjectured maximizer
            family = extremal_family(n, params)
            members[0] = [_member_arrays(m.probs, m.atoms) for m in family.members]
        for cap, alpha in zip(params.caps, params.alphas):
            rngs = {c: self.rngs[c] for c in random if c not in self.errors}
            for c, member in _sample_members(
                n, cap, alpha, config.max_atoms, rngs, self.errors
            ).items():
                members[c].append(member)
        for c in range(chains):
            if c not in self.errors:
                try:
                    _require_support(tuple(len(m.probs) for m in members[c]))
                except BudgetExceeded as exc:
                    self.errors[c] = exc
        self.live = [c for c in range(chains) if c not in self.errors]

        slots = max(config.max_atoms, 2)  # the extremal members have two atoms
        self.probs = np.zeros((chains, params.count, slots))
        self.vecs = np.zeros((chains, params.count, slots, n, n))
        self.spectra = np.zeros((chains, params.count, slots, n))
        self.entries = np.zeros((chains, params.count, slots, n, n))
        self.sizes = np.zeros((chains, params.count), dtype=int)
        for c in self.live:
            arrays = _padded(members[c], slots)
            self.probs[c], self.vecs[c], self.spectra[c], self.entries[c], self.sizes[c] = arrays
        self.values = [0.0] * chains
        if self.live:
            live = np.array(self.live)
            moments = _stacked_moments(self.entries[live], self.probs[live], self.sizes[live], p)
            for c, value in zip(self.live, moments):
                self.values[c] = value

    def step(self) -> None:
        """One proposal per live chain, then keep each strict improvement.

        A proposal picks a member, then either moves probability mass
        between two of its atoms or perturbs one atom with Gaussian noise
        and clips its spectrum into [0, cap]; the member is then projected
        onto the mean-norm shell. Each chain draws from its own stream.
        """
        n, params = self.n, self.params
        rows, members, shifted, perturbed = [], [], {}, []
        for c in self.live:
            rng = self.rngs[c]
            k = int(rng.integers(params.count))
            s = int(self.sizes[c, k])
            if s >= 2 and rng.random() < 0.5:
                i, j = (int(v) for v in rng.choice(s, size=2, replace=False))
                moved = self.probs[c, k, :s].tolist()
                delta = float(rng.uniform(0.0, moved[i]))
                moved[i] -= delta
                moved[j] += delta
                total = math.fsum(moved)
                shifted[len(rows)] = [q / total for q in moved]
            else:
                i = int(rng.integers(s))
                noise = rng.normal(0.0, _PROPOSAL_SCALE * params.caps[k], size=(n, n))
                perturbed.append((len(rows), i, noise))
            rows.append(c)
            members.append(k)
        rows, members = np.array(rows), np.array(members)
        probs = self.probs[rows, members]
        vecs = self.vecs[rows, members]
        spectra = self.spectra[rows, members]
        entries = self.entries[rows, members]
        for b, moved in shifted.items():
            probs[b, : len(moved)] = moved
        if perturbed:
            # clip the perturbed atom's spectrum into [0, cap] in its own
            # eigenbasis; eigh ascends and clipping is monotone, so the
            # spectrum stays sorted as SymMatrix.from_eigensystem sorts it
            b, i, noise = (np.array(v) for v in zip(*perturbed))
            lam, q = np.linalg.eigh(_symmetrised(entries[b, i] + noise))
            lam = np.clip(lam, 0.0, np.array(params.caps)[members[b], None])
            vecs[b, i], spectra[b, i], entries[b, i] = q, lam, _spectral_entries(q, lam)

        status = np.empty(len(rows), dtype=int)
        sizes = self.sizes[rows, members]
        targets = list(zip(params.caps, params.alphas))
        for cap, alpha in set(targets):
            g = np.flatnonzero([targets[k] == (cap, alpha) for k in members.tolist()])
            status[g], spectra[g], entries[g], *_ = _project_batch(
                vecs[g], spectra[g], entries[g], probs[g], sizes[g], cap, alpha
            )

        landed = np.flatnonzero(status != FAILED)
        if landed.size == 0:
            return
        chains, changed = rows[landed], members[landed]
        family_entries = self.entries[chains]
        family_probs = self.probs[chains]
        family_entries[np.arange(landed.size), changed] = entries[landed]
        family_probs[np.arange(landed.size), changed] = probs[landed]
        moments = _stacked_moments(family_entries, family_probs, self.sizes[chains], self.p)
        better = []
        for b, value in zip(landed.tolist(), moments):
            if value > self.values[rows[b]]:
                self.values[rows[b]] = value
                better.append(b)
        if better:
            c, k = rows[better], members[better]
            self.probs[c, k], self.vecs[c, k] = probs[better], vecs[better]
            self.spectra[c, k], self.entries[c, k] = spectra[better], entries[better]

    def results(self) -> list[tuple[float, EnsembleFamily | None] | TracemaxError]:
        """Per restart, in order: (value, family), or the error its start raised.

        A restart that a later one of the block beats by more than 1e-12
        can never be the cell's best (see _search_result), so its family
        is left out (None) rather than built and checked.
        """
        outcomes: list[tuple[float, EnsembleFamily | None] | TracemaxError] = []
        later = -math.inf
        for c in reversed(range(len(self.values))):
            if c in self.errors:
                outcomes.append(self.errors[c])
                continue
            value = self.values[c]
            family = None if later > value + _TIE_TOL else self.family(c)
            outcomes.append((value, family))
            later = max(later, value)
        return outcomes[::-1]

    def family(self, c: int) -> EnsembleFamily:
        """The checked EnsembleFamily of chain c."""
        params = self.params
        return EnsembleFamily(
            members=tuple(
                FiniteEnsemble(
                    atoms=tuple(
                        SymMatrix.seeded(*atom)
                        for atom in zip(
                            self.entries[c, k, :s], self.vecs[c, k, :s], self.spectra[c, k, :s]
                        )
                    ),
                    probs=tuple(self.probs[c, k, :s].tolist()),
                    cap=cap,
                    alpha=alpha,
                )
                for k, (s, cap, alpha) in enumerate(
                    zip(self.sizes[c].tolist(), params.caps, params.alphas)
                )
            )
        )


def _run_block(
    n: int, params: BernoulliParams, p: int, config: SearchConfig, start: int, stop: int
) -> list[tuple[float, EnsembleFamily | None] | TracemaxError]:
    """Hill-climb restarts [start, stop) of the cell (n, params, p) in lockstep."""
    chains = _Chains(n, params, p, config, start, stop)
    for _ in range(config.steps_per_restart):
        if not chains.live:
            break
        chains.step()
    return chains.results()


def _restart_blocks(
    n: int, params: BernoulliParams, p: int, config: SearchConfig, cells: int
) -> list[tuple]:
    """_run_block tasks over a cell's restarts, in contiguous blocks: one
    per cell on one worker, else about _BLOCKS_PER_WORKER per worker over
    the ``cells`` cells of the search."""
    workers = worker_count()
    count = 1 if workers == 1 else min(config.restarts, -(-_BLOCKS_PER_WORKER * workers // cells))
    bounds = [config.restarts * i // count for i in range(count + 1)]
    return [(_run_block, (n, params, p, config, a, b)) for a, b in zip(bounds, bounds[1:])]


def _run_task(task: tuple):
    """One task of a search's single parallel_map: (function, arguments)."""
    function, args = task
    return function(*args)


def _theorem_value(n: int, params: BernoulliParams, p: int) -> float:
    if n > _MAX_DIM or params.count > _MAX_MEMBERS:
        raise BudgetExceeded(
            f"search budget exceeded: n={n}, members={params.count}, p={p}"
        )
    return theorem_max_value(n, params, p)


def _search_result(outcomes, theorem_value: float) -> SearchResult:
    """Merge per-restart outcomes in restart order; the first error is raised.

    A later restart replaces the best only when it is higher by more than 1e-12.
    """
    best: tuple[float, EnsembleFamily] | None = None
    for outcome in outcomes:
        if isinstance(outcome, TracemaxError):
            raise outcome
        if best is None or outcome[0] > best[0] + _TIE_TOL:
            best = outcome
    value, family = best
    return SearchResult(
        best_value=value,
        best_family=family,
        theorem_value=theorem_value,
        gap=theorem_value - value,
    )


def maximize(
    n: int,
    params: BernoulliParams,
    p: int,
    config: SearchConfig,
) -> SearchResult:
    """Hill-climb with restarts; restart 0 starts at the conjectured maximizer.

    Restarts own independent RNG streams keyed by (seed, restart) and run
    in blocks, in parallel; the merge keeps the earlier restart on ties
    within 1e-12.
    """
    theorem_value = _theorem_value(n, params, p)
    blocks = parallel_map(_run_task, _restart_blocks(n, params, p, config, cells=1))
    return _search_result(itertools.chain.from_iterable(blocks), theorem_value)


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


def _audit_sampled_families(
    seed: int, start: int, stop: int
) -> tuple[LemmaSummary, list[dict]]:
    """Audit trials [start, stop): sampled families against the closed-form maximum."""
    summary = LemmaSummary.empty(LemmaId.THEOREM_MAX)
    failures: list[dict] = []
    for t in range(start, stop):
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
    and near-misses carry full family JSON for replay. The restart blocks
    of every cell and the audit's blocks of trials run in one parallel_map.
    """
    cells = []  # (label, n, count, p, params, cell seed, theorem value or error)
    for (i_n, n), (i_c, count), (i_p, p), (i_a, alpha), (i_l, cap) in itertools.product(
        enumerate(n_values),
        enumerate(member_counts),
        enumerate(p_values),
        enumerate(alpha_values),
        enumerate(cap_values),
    ):
        cell_seed = subseed(stream(config.seed, 1, i_n, i_c, i_p, i_a, i_l))
        params = BernoulliParams(caps=(cap,) * count, alphas=(alpha,) * count)
        try:
            theorem: float | TracemaxError = _theorem_value(n, params, p)
        except TracemaxError as exc:
            theorem = exc
        label = f"n={n};N={count};p={p};alpha={alpha};L={cap}"
        cells.append((label, n, count, p, params, cell_seed, theorem))

    searched = sum(not isinstance(cell[-1], TracemaxError) for cell in cells)
    blocks = [
        _restart_blocks(n, params, p, replace(config, seed=cell_seed), searched)
        if not isinstance(theorem, TracemaxError) else []
        for _, n, _, p, params, cell_seed, theorem in cells
    ]
    audit_blocks = [
        (_audit_sampled_families, (config.seed, start, min(start + _AUDIT_BLOCK, sampler_trials)))
        for start in range(0, sampler_trials, _AUDIT_BLOCK)
    ]
    outcomes = iter(parallel_map(_run_task, [*itertools.chain(*blocks), *audit_blocks]))

    rows: list[SweepRow] = []
    violations: list[dict] = []
    near_misses: list[dict] = []
    errors: list[tuple[str, str]] = []
    for (label, n, count, p, params, cell_seed, theorem), cell_blocks in zip(cells, blocks):
        try:
            if isinstance(theorem, TracemaxError):
                raise theorem
            restarts = [next(outcomes) for _ in cell_blocks]
            result = _search_result(itertools.chain(*restarts), theorem)
        except TracemaxError as exc:
            errors.append((label, str(exc)))
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
                "cell": label,
                "gap": result.gap,
                "best_value": result.best_value,
                "theorem_value": result.theorem_value,
                "family": family_to_json(result.best_family),
            }
        )

    audit = None
    if sampler_trials > 0:
        audit = LemmaSummary.empty(LemmaId.THEOREM_MAX)
        for summary, failures in outcomes:
            audit = audit.merge(summary)
            violations.extend(failures)
    return SweepOutcome(
        rows=tuple(rows),
        violations=tuple(violations),
        near_misses=tuple(near_misses),
        errors=tuple(errors),
        audit=audit,
    )
