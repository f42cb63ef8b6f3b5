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
partition nor the worker count changes any result.

This module holds the adversary and the grid. The audit of sampled
families that --sampler-trials adds is a verdict tally like the lemma
sweep's, checks._theorem_tally, run in the sweep's blocks of trials
(checks._blocks). gap_sweep maps every cell's blocks and the audit's
blocks through one parallel_map, so a search starts at most one pool, and
merges the audit's block tallies in block order.

Each restart block derives its cell's seed from the search seed and the
cell's grid indices, and returns it with its outcomes; the row takes it
from the cell's first block. So the parent of a parallel search only plans
the cells, forks the workers and merges their results, and draws no random
number: numpy.random, with its secrets/OpenSSL import chain, loads only in
the processes that draw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .checks import LemmaSummary, _blocks, _theorem_tally, holds
from .ensembles import (
    EnsembleFamily,
    _admit,
    _ensembles,
    _project_batch,
    _require_support,
    _stack,
    _stacked_moments,
    extremal_family,
    family_to_json,
)
from .errors import BudgetExceeded, ConstraintViolated, TracemaxError
from .extremal import BernoulliParams, theorem_max_value
from .linalg import _spectral_entries, _symmetrised
from .parallel import parallel_map, worker_count
from .rng import stream, streams, subseed

# A gap below this fraction of the theorem value is dumped for replay.
NEAR_MISS_TOL = 1e-6

_TIE_TOL = 1e-12

# Atom perturbations are normal with this standard deviation times the cap.
_PROPOSAL_SCALE = 0.25

# Largest cell gap_sweep searches; theorem_max_value bounds the moment order.
_MAX_DIM = 8
_MAX_MEMBERS = 6

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


class _Chains:
    """Restarts [start, stop) of the cell (n, params, p), held as stacked
    arrays and stepped in lockstep; config.seed is the cell's seed.

    Member k of chain c has sizes[c, k] atoms: entries[c, k, i] and
    eigenbases vecs[c, k, i] (C, N, s, n, n), ascending spectra
    spectra[c, k, i] (C, N, s, n) and probabilities probs[c, k, i]
    (C, N, s), in the layout of ensembles._stack: zero-padded, with zero
    probability, to the block's longest support, which no climb changes.

    Every proposal that lands on the shell is admissible: spectra stay in
    [0, cap], probabilities stay nonnegative and sum to 1 within a few
    ulps, and the mean norm is within 1e-9 * alpha * cap of the target. So
    the admission check can never reject one, and it runs only on the
    results: ensembles._admit, the one place a member is made, admits the
    block's kept families in one families() call.
    """

    def __init__(
        self, n: int, params: BernoulliParams, p: int, config: SearchConfig, start: int, stop: int
    ):
        """Start every chain, or raise the error of the lowest-numbered
        restart whose start failed, as that restart raises it alone."""
        self.n, self.params, self.p = n, params, p
        self.rngs = list(streams([(config.seed, r) for r in range(start, stop)]))
        # restart 0 starts at the conjectured maximizer; each other chain
        # draws member k's support size (1 to max_atoms), then its sampler
        # seeds, from its own stream
        drawn = self.rngs[1:] if start == 0 else self.rngs

        def request(c: int, k: int) -> tuple:
            rng = drawn[c]
            size = int(rng.integers(1, config.max_atoms + 1))
            return n, size, params.caps[k], params.alphas[k], rng

        members = [extremal_family(n, params).members] if start == 0 else []
        members += _ensembles([params.count] * len(drawn), request)
        for family in members:  # every earlier chain has started
            if isinstance(family, TracemaxError):
                raise family
            _require_support(tuple(m.support_size for m in family))

        self.probs, self.vecs, self.spectra, self.entries, self.sizes = _stack(members)
        self.values = _stacked_moments(self.entries, self.probs, self.sizes, p)

    def step(self) -> None:
        """One proposal per chain, then keep each strict improvement.

        A proposal picks a member, then either moves probability mass
        between two of its atoms or perturbs one atom with Gaussian noise
        and clips its spectrum into [0, cap]; the member is then projected
        onto the mean-norm shell. Each chain draws from its own stream.
        """
        n, params = self.n, self.params
        members, shifted, perturbed = [], {}, []
        for c, rng in enumerate(self.rngs):
            k = int(rng.integers(params.count))
            s = int(self.sizes[c, k])
            if s >= 2 and rng.random() < 0.5:
                i, j = (int(v) for v in rng.choice(s, size=2, replace=False))
                moved = self.probs[c, k, :s].tolist()
                delta = float(rng.uniform(0.0, moved[i]))
                moved[i] -= delta
                moved[j] += delta
                total = math.fsum(moved)
                shifted[c] = [q / total for q in moved]
            else:
                i = int(rng.integers(s))
                noise = rng.normal(0.0, _PROPOSAL_SCALE * params.caps[k], size=(n, n))
                perturbed.append((c, i, noise))
            members.append(k)
        rows, members = np.arange(len(self.rngs)), np.array(members)
        probs = self.probs[rows, members]
        vecs = self.vecs[rows, members]
        spectra = self.spectra[rows, members]
        entries = self.entries[rows, members]
        for b, moved in shifted.items():
            probs[b, : len(moved)] = moved
        if perturbed:
            # clip the perturbed atom's spectrum into [0, cap] in its own
            # eigenbasis; eigh ascends and clipping is monotone, so the
            # spectrum stays ascending, as the members' eigensystems must be
            b, i, noise = (np.array(v) for v in zip(*perturbed))
            lam, q = np.linalg.eigh(_symmetrised(entries[b, i] + noise))
            lam = np.clip(lam, 0.0, np.array(params.caps)[members[b], None])
            vecs[b, i], spectra[b, i], entries[b, i] = q, lam, _spectral_entries(q, lam)

        caps = [params.caps[k] for k in members.tolist()]
        targets = [params.alphas[k] * params.caps[k] for k in members.tolist()]
        on_shell, spectra, entries = _project_batch(
            vecs, spectra, entries, probs, self.sizes[rows, members], caps, targets
        )

        landed = np.flatnonzero(on_shell)
        if landed.size == 0:
            return
        changed = members[landed]
        family_entries = self.entries[landed]
        family_probs = self.probs[landed]
        family_entries[np.arange(landed.size), changed] = entries[landed]
        family_probs[np.arange(landed.size), changed] = probs[landed]
        moments = _stacked_moments(family_entries, family_probs, self.sizes[landed], self.p)
        better = []
        for c, value in zip(landed.tolist(), moments):
            if value > self.values[c]:
                self.values[c] = value
                better.append(c)
        if better:
            k = members[better]
            self.probs[better, k], self.vecs[better, k] = probs[better], vecs[better]
            self.spectra[better, k], self.entries[better, k] = spectra[better], entries[better]

    def results(self) -> list[tuple[float, EnsembleFamily | None]]:
        """Per restart, in order: (value, family).

        A restart that a later one of the block beats by more than 1e-12
        can never be the cell's best (see _search_result), so its family
        is left out (None) rather than built and checked.
        """
        kept, later = [], -math.inf
        for c in reversed(range(len(self.values))):
            if not later > self.values[c] + _TIE_TOL:
                kept.insert(0, c)
            later = max(later, self.values[c])
        families = dict(zip(kept, self.families(kept)))
        return [(value, families.get(c)) for c, value in enumerate(self.values)]

    def families(self, chains: list[int]) -> list[EnsembleFamily]:
        """The checked EnsembleFamily of each of these chains, its members
        admitted together in one _admit call; the first error is raised."""
        def rows(array: np.ndarray) -> np.ndarray:  # one row per member of the chains
            return array[chains].reshape(-1, *array.shape[2:])

        caps, alphas = (targets * len(chains) for targets in (self.params.caps, self.params.alphas))
        members = _admit(
            *map(rows, (self.entries, self.probs, self.vecs, self.spectra)),
            rows(self.sizes).tolist(), caps, alphas,
        )
        if error := next((m for m in members if isinstance(m, ConstraintViolated)), None):
            raise error
        count = self.params.count
        return [EnsembleFamily(members=tuple(members[i : i + count]))
                for i in range(0, len(members), count)]


def _run_block(
    n: int, params: BernoulliParams, p: int, config: SearchConfig, start: int, stop: int
) -> list[tuple[float, EnsembleFamily | None] | TracemaxError]:
    """Hill-climb restarts [start, stop) of the cell (n, params, p) in
    lockstep: their outcomes, or [the error] if a start failed."""
    try:
        chains = _Chains(n, params, p, config, start, stop)
    except TracemaxError as exc:
        return [exc]
    for _ in range(config.steps_per_restart):
        chains.step()
    return chains.results()


def _cell_block(
    key: tuple[int, ...], n: int, params: BernoulliParams, p: int, config: SearchConfig,
    start: int, stop: int,
) -> tuple[int, list]:
    """_run_block over restarts [start, stop) of the grid cell at indices
    ``key``, seeded with the cell seed it derives from config.seed:
    (cell seed, outcomes)."""
    seed = subseed(stream(config.seed, 1, *key))
    return seed, _run_block(n, params, p, replace(config, seed=seed), start, stop)


def _restart_blocks(
    n: int, params: BernoulliParams, p: int, config: SearchConfig, cells: int,
    key: tuple[int, ...] = (),
) -> list[tuple]:
    """_cell_block tasks over the restarts of the grid cell at indices
    ``key``, in contiguous blocks: one per cell on one worker, else about
    _BLOCKS_PER_WORKER per worker over the ``cells`` cells of the search."""
    workers = worker_count()
    count = 1 if workers == 1 else min(config.restarts, -(-_BLOCKS_PER_WORKER * workers // cells))
    bounds = [config.restarts * i // count for i in range(count + 1)]
    return [(_cell_block, (key, n, params, p, config, a, b)) for a, b in zip(bounds, bounds[1:])]


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


def _search_result(outcomes) -> tuple[float, EnsembleFamily]:
    """Merge per-restart outcomes in restart order into (best_value,
    best_family); the first error is raised.

    A later restart replaces the best only when it is higher by more than 1e-12.
    """
    best: tuple[float, EnsembleFamily] | None = None
    for outcome in outcomes:
        if isinstance(outcome, TracemaxError):
            raise outcome
        if best is None or outcome[0] > best[0] + _TIE_TOL:
            best = outcome
    return best


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
        # violations hold every failed audit trial's dump; errored cells are
        # undecided, so they block a clean verdict too
        return not self.violations and not self.errors


def gap_sweep(
    n_values: list[int],
    member_counts: list[int],
    p_values: list[int],
    alpha_values: list[float],
    cap_values: list[float],
    config: SearchConfig,
    sampler_trials: int = 0,
) -> SweepOutcome:
    """Hill-climb every (n, N, p, alpha, cap) grid cell, plus an audit of
    ``sampler_trials`` sampled families.

    Within a cell every member shares that cell's (alpha, cap). Restart 0
    starts at the conjectured maximizer; each restart owns the stream
    (cell seed, restart), and the merge keeps the earlier restart on ties
    within 1e-12. Each cell derives its own seed from config.seed and its
    grid indices, so rows only depend on the command line, not on
    execution order. Violations and near-misses carry full family JSON for
    replay. The restart blocks of every cell and the audit's blocks of
    trials run in one parallel_map. A negative ``sampler_trials`` raises
    ConstraintViolated.
    """
    if sampler_trials < 0:
        raise ConstraintViolated(f"sampler_trials must be >= 0, got {sampler_trials}")
    cells = []  # (label, n, count, p, params, grid indices, theorem value or error)
    for (i_n, n), (i_c, count), (i_p, p), (i_a, alpha), (i_l, cap) in itertools.product(
        enumerate(n_values),
        enumerate(member_counts),
        enumerate(p_values),
        enumerate(alpha_values),
        enumerate(cap_values),
    ):
        params = BernoulliParams(caps=(cap,) * count, alphas=(alpha,) * count)
        try:
            theorem: float | TracemaxError = _theorem_value(n, params, p)
        except TracemaxError as exc:
            theorem = exc
        label = f"n={n};N={count};p={p};alpha={alpha};L={cap}"
        cells.append((label, n, count, p, params, (i_n, i_c, i_p, i_a, i_l), theorem))

    searched = sum(not isinstance(cell[-1], TracemaxError) for cell in cells)
    blocks = [
        _restart_blocks(n, params, p, config, searched, key)
        if not isinstance(theorem, TracemaxError) else []
        for _, n, _, p, params, key, theorem in cells
    ]
    audit_blocks = [(_theorem_tally, (config.seed, *block)) for block in _blocks(sampler_trials)]
    outcomes = iter(parallel_map(_run_task, [*itertools.chain(*blocks), *audit_blocks]))

    rows: list[SweepRow] = []
    violations: list[dict] = []
    near_misses: list[dict] = []
    errors: list[tuple[str, str]] = []
    for (label, n, count, p, params, _, theorem), cell_blocks in zip(cells, blocks):
        try:
            if isinstance(theorem, TracemaxError):
                raise theorem
            seeds, restarts = zip(*(next(outcomes) for _ in cell_blocks))
            best_value, best_family = _search_result(itertools.chain(*restarts))
        except TracemaxError as exc:
            errors.append((label, str(exc)))
            continue
        gap = theorem - best_value
        row = SweepRow(
            n=n, members=count, p=p,
            alphas=params.alphas, caps=params.caps,
            best_value=best_value, theorem_value=theorem,
            gap=gap, seed=seeds[0],
        )
        rows.append(row)
        if not holds(best_value, theorem):
            dumps = violations
        elif gap < NEAR_MISS_TOL * theorem:
            dumps = near_misses
        else:
            continue
        dumps.append(
            {
                "cell": label,
                "gap": gap,
                "best_value": best_value,
                "theorem_value": theorem,
                "family": family_to_json(best_family),
            }
        )

    audits = list(outcomes)  # the audit's block tallies come last, merged in block order
    return SweepOutcome(
        rows=tuple(rows),
        violations=(*violations, *(dump for _, failures in audits for dump in failures)),
        near_misses=tuple(near_misses),
        errors=tuple(errors),
        audit=reduce(LemmaSummary.merge, (tally for tally, _ in audits)) if audits else None,
    )
