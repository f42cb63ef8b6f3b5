"""Adversarial search: the conjectured maximizer must be a fixed point, random
restarts must never beat it, and sweep bookkeeping must be deterministic."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tracemax.ensembles as ensembles
import tracemax.search as search
from conftest import assert_close
from tracemax import (
    BernoulliParams,
    ConstraintViolated,
    EnsembleFamily,
    FiniteEnsemble,
    SearchConfig,
    SymMatrix,
    TracemaxError,
    exact_trace_moment,
    extremal_family,
    family_to_json,
    gap_sweep,
    stream,
    subseed,
    theorem_max_value,
)
from tracemax.checks import holds
from tracemax.ensembles import _project_batch, _sample
from tracemax.linalg import _spectral_entries

_FAST = dict(restarts=3, steps_per_restart=40, seed=0)


def _params(alpha=0.5, cap=1.0, members=2):
    return BernoulliParams(caps=(cap,) * members, alphas=(alpha,) * members)


# Config validation -------------------------------------------------------------

def test_config_rejects_nonpositive_counts():
    with pytest.raises(ConstraintViolated):
        SearchConfig(restarts=0)
    with pytest.raises(ConstraintViolated):
        SearchConfig(steps_per_restart=-5)
    with pytest.raises(ConstraintViolated):
        SearchConfig(max_atoms=0)


# one-cell sweeps ---------------------------------------------------------------------

def _best_family(outcome):
    """The family of a one-cell sweep's near-miss dump: its best family."""
    (dump,) = outcome.near_misses
    return dump["family"]


def test_extremal_start_is_a_fixed_point():
    params = _params(alpha=0.4, cap=1.5)
    outcome = gap_sweep([2], [2], [4], [0.4], [1.5], SearchConfig(**_FAST))
    (row,) = outcome.rows
    target = theorem_max_value(2, params, 4)
    assert_close(row.theorem_value, target, rel=1e-15)
    # restart 0 starts at the conjectured maximizer, so the search can
    # never fall below it and hill climbing must never escape above it
    assert row.best_value >= target - 1e-9 * (1.0 + target)
    assert row.gap >= -1e-9 * (1.0 + target)


def test_linear_case_has_zero_gap():
    # p = 1 collapses to tr(E sum X) <= n * sum alpha L with equality at
    # the extremal family
    outcome = gap_sweep([2], [3], [1], [0.3], [2.0], SearchConfig(**_FAST))
    (row,) = outcome.rows
    assert abs(row.gap) <= 1e-9 * (1.0 + row.theorem_value)


def test_maximize_is_deterministic():
    config = SearchConfig(restarts=2, steps_per_restart=30, seed=123)
    a = gap_sweep([2], [2], [3], [0.5], [1.0], config)
    b = gap_sweep([2], [2], [3], [0.5], [1.0], config)
    assert a.rows == b.rows
    assert _best_family(a) == _best_family(b)


def test_maximize_worker_count_does_not_change_results(monkeypatch):
    config = SearchConfig(restarts=3, steps_per_restart=30, seed=11)
    monkeypatch.setenv("TMX_THREADS", "1")
    serial = gap_sweep([2], [2], [3], [0.3], [1.0], config)
    monkeypatch.setenv("TMX_THREADS", "2")
    parallel = gap_sweep([2], [2], [3], [0.3], [1.0], config)
    assert serial.rows == parallel.rows
    assert _best_family(serial) == _best_family(parallel)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_each_row_carries_its_cell_seed(monkeypatch, threads):
    # the cells at L = 1e300 overflow and run no block, yet each searched
    # cell after them keeps the seed of its own grid indices
    monkeypatch.setenv("TMX_THREADS", threads)
    config = SearchConfig(restarts=3, steps_per_restart=5, seed=4)
    outcome = gap_sweep([1, 2], [2], [3], [0.5], [1e300, 1.0], config)
    assert [cell for cell, _ in outcome.errors] == [
        "n=1;N=2;p=3;alpha=0.5;L=1e+300", "n=2;N=2;p=3;alpha=0.5;L=1e+300",
    ]
    assert [row.seed for row in outcome.rows] == [
        subseed(stream(4, 1, i_n, 0, 0, 0, 1)) for i_n in range(2)
    ]


def test_random_starts_never_beat_the_theorem_value():
    params = _params(alpha=0.6, cap=1.2)
    config = SearchConfig(restarts=5, steps_per_restart=60, seed=5)
    outcome = gap_sweep([2], [2], [3], [0.6], [1.2], config)
    (row,) = outcome.rows
    target = theorem_max_value(2, params, 3)
    assert row.best_value <= target + 1e-9 * (1.0 + target)
    assert outcome.violations == ()


def test_budget_checks():
    config = SearchConfig(**_FAST)
    over_budget = [
        (9, 2, 2, "search budget exceeded"),
        (2, 7, 2, "search budget exceeded"),
        (2, 2, 31, "moment order 31 exceeds budget 30"),
    ]
    for n, members, p, message in over_budget:
        outcome = gap_sweep([n], [members], [p], [0.5], [1.0], config)
        assert outcome.rows == ()
        ((_, error),) = outcome.errors
        assert message in error


# lockstep restarts against a one-restart oracle -----------------------------------

def _oracle_propose(family, rng):
    """One proposal on ensemble objects: a probability shift or an atom
    perturbation, projected onto the shell and validated."""
    k = int(rng.integers(len(family.members)))
    member = family.members[k]
    vecs, spectra, atoms, probs = member.vecs, member.spectra, member.atoms, member.probs.tolist()
    if member.support_size >= 2 and rng.random() < 0.5:
        i, j = (int(v) for v in rng.choice(member.support_size, size=2, replace=False))
        delta = float(rng.uniform(0.0, probs[i]))
        moved = list(probs)
        moved[i] -= delta
        moved[j] += delta
        total = math.fsum(moved)
        probs = [q / total for q in moved]
    else:
        i = int(rng.integers(member.support_size))
        noise = rng.normal(0.0, 0.25 * member.cap, size=(member.dim, member.dim))
        e = SymMatrix(atoms[i] + noise).eig  # clip the spectrum, keep the basis
        q, lam = e.eigenvectors, np.clip(e.eigenvalues, 0.0, member.cap)
        vecs, spectra, atoms = vecs.copy(), spectra.copy(), atoms.copy()
        vecs[i], spectra[i], atoms[i] = q, lam, _spectral_entries(q, lam)
    # the member's projection onto its shell, as a batch of one
    landed, spectra, entries, *_ = _project_batch(
        vecs[None],
        spectra[None],
        atoms[None],
        np.array([probs]),
        [len(probs)],
        [member.cap],
        [member.alpha * member.cap],
    )
    if not landed[0]:
        return None
    try:
        moved = FiniteEnsemble(
            entries[0], probs, member.cap, member.alpha, eigensystems=(vecs, spectra[0])
        )
    except ConstraintViolated:
        return None
    return EnsembleFamily(members=family.members[:k] + (moved,) + family.members[k + 1:])


def _oracle_restart(n, params, p, config, restart):
    """One restart alone: start, then strict-improvement hill climbing."""
    rng = stream(config.seed, restart)
    if restart == 0:
        family = extremal_family(n, params)
    else:
        members = []
        for cap, alpha in zip(params.caps, params.alphas):
            # each member sampled alone, as a batch of one
            (member,) = _sample([(n, int(rng.integers(1, config.max_atoms + 1)), cap, alpha, rng)])
            if isinstance(member, TracemaxError):
                raise member
            members.append(member)
        family = EnsembleFamily(members=tuple(members))
    value = exact_trace_moment(family, p)
    for _ in range(config.steps_per_restart):
        candidate = _oracle_propose(family, rng)
        if candidate is None:
            continue
        moved = exact_trace_moment(candidate, p)
        if moved > value:
            family, value = candidate, moved
    return value, family


def _lockstep(n, params, p, config, start, stop):
    """Each restart's (value, family) from one block stepped in lockstep, or
    the error the block's start raised."""
    try:
        chains = search._Chains(n, params, p, config, start, stop)
    except TracemaxError as exc:
        return exc
    for _ in range(config.steps_per_restart):
        chains.step()
    return [(value, chains.family(c)) for c, value in enumerate(chains.values)]


def _assert_same_error(got, expected):
    assert isinstance(got, TracemaxError), got
    assert type(got) is type(expected) and str(got) == str(expected)


def _assert_lockstep_matches_oracle(n, params, p, config):
    """Hold every restart of the cell to the one-restart oracle.

    A block fails with the error of its lowest-numbered failing restart, so
    each failing restart's error must be that of the block from just past
    the previous failing restart to the last one. Every restart that starts
    is compared in the block of restarts between two failing ones. Returns
    each restart's outcome: (value, family), or the error.
    """
    oracle = []
    for restart in range(config.restarts):
        try:
            oracle.append(_oracle_restart(n, params, p, config, restart))
        except TracemaxError as exc:
            oracle.append(exc)
    failed = [r for r, outcome in enumerate(oracle) if isinstance(outcome, TracemaxError)]
    outcomes = [None] * config.restarts
    bounds = [-1, *failed, config.restarts]
    for before, failing in zip(bounds, failed):
        error = _lockstep(n, params, p, config, before + 1, config.restarts)
        _assert_same_error(error, oracle[failing])
        outcomes[failing] = error
    for before, after in zip(bounds, bounds[1:]):
        if after - before == 1:
            continue
        block = _lockstep(n, params, p, config, before + 1, after)
        assert not isinstance(block, TracemaxError), block
        for restart, outcome in zip(range(before + 1, after), block):
            value, family = oracle[restart]
            assert outcome[0] == value, (restart, outcome[0], value)
            assert family_to_json(outcome[1]) == family_to_json(family), restart
            outcomes[restart] = outcome
    assert None not in outcomes
    return outcomes


# (n, caps, alphas, p): every (n, N) with n, N <= 3, alphas at 0, 1, near 1
# (the projection's Newton fallback) and distinct per member
_ORACLE_CELLS = [
    (1, (1.0,), (0.5,), 2),
    (1, (0.7, 2.0), (0.0, 0.4), 5),
    (1, (1.0, 1.0, 1.0), (1.0, 0.5, 1.0), 3),
    (2, (1.5,), (0.999,), 6),
    (2, (1.0, 1.0), (0.5, 0.5), 4),
    (2, (0.5, 1.2, 2.0), (0.3, 0.9, 0.6), 1),
    (3, (1.0,), (0.2,), 6),
    (3, (2.0, 2.0), (0.999, 0.5), 3),
    (3, (1.0, 1.0, 1.0), (0.5, 0.5, 0.5), 6),
]


@pytest.mark.parametrize("n, caps, alphas, p", _ORACLE_CELLS)
def test_lockstep_restarts_follow_the_one_restart_oracle(n, caps, alphas, p):
    params = BernoulliParams(caps=caps, alphas=alphas)
    config = SearchConfig(restarts=6, steps_per_restart=40, seed=1000 + 10 * n + p)
    _assert_lockstep_matches_oracle(n, params, p, config)


def test_lockstep_restarts_follow_the_oracle_at_large_supports():
    # n = 8, N = 6, p = 30: supports past one enumeration chunk (128
    # outcomes here) are enumerated chain by chain, the rest together
    params = BernoulliParams(caps=(1.0,) * 6, alphas=(0.5,) * 6)
    config = SearchConfig(restarts=4, steps_per_restart=6, seed=72)
    outcomes = _assert_lockstep_matches_oracle(8, params, 30, config)
    supports = sorted(math.prod(m.support_size for m in f.members) for _, f in outcomes)
    assert supports[0] <= 128 < supports[-1], supports


def test_lockstep_restarts_follow_the_oracle_through_projection_failures(monkeypatch):
    # failing three in four Newton solves, by a hash of their input spectra,
    # makes the sampler retry, rejects proposals and makes one restart's
    # sampler give up; the rule reads only the solve's input, so both
    # searches see the same failures
    solve = ensembles._solve_scale

    def flaky(vecs, lam, *args):
        if int(np.sum(lam) * 1e6) % 4:
            return None
        return solve(vecs, lam, *args)

    monkeypatch.setattr(ensembles, "_solve_scale", flaky)
    params = BernoulliParams(caps=(1.0, 1.5), alphas=(0.9995, 0.999))
    config = SearchConfig(restarts=8, steps_per_restart=30, seed=5, max_atoms=3)
    outcomes = _assert_lockstep_matches_oracle(2, params, 4, config)
    failed = [type(o).__name__ for o in outcomes if isinstance(o, TracemaxError)]
    assert failed == ["SamplerFailed"]


def test_a_block_fails_with_its_lowest_numbered_failing_restart(monkeypatch):
    # restart 1's support exceeds the budget and restart 2's sampler gives
    # up: the sampler error comes first in member-major order, the budget
    # check after every member, yet the block reports restart 1's error
    solve = ensembles._solve_scale

    def flaky(vecs, lam, *args):
        if int(np.sum(lam) * 1e6) % 4:
            return None
        return solve(vecs, lam, *args)

    monkeypatch.setattr(ensembles, "_solve_scale", flaky)
    monkeypatch.setattr(ensembles, "SUPPORT_BUDGET", 4)
    params = BernoulliParams(caps=(1.0, 1.5), alphas=(0.9995, 0.999))
    config = SearchConfig(restarts=6, steps_per_restart=10, seed=23, max_atoms=3)
    outcomes = _assert_lockstep_matches_oracle(2, params, 4, config)
    kinds = [type(o).__name__ if isinstance(o, TracemaxError) else None for o in outcomes]
    assert kinds == [None, "BudgetExceeded", "SamplerFailed", "BudgetExceeded", None, None]
    (error,) = search._run_block(2, params, 4, config, 0, 6)
    _assert_same_error(error, outcomes[1])


def test_block_partition_does_not_change_any_restart(monkeypatch):
    params = BernoulliParams(caps=(1.0, 2.0), alphas=(0.4, 0.7))
    config = SearchConfig(restarts=5, steps_per_restart=30, seed=31)
    whole = _lockstep(2, params, 4, config, 0, 5)
    single = [outcome for r in range(5) for outcome in _lockstep(2, params, 4, config, r, r + 1)]
    assert [v for v, _ in whole] == [v for v, _ in single]
    assert [family_to_json(f) for _, f in whole] == [family_to_json(f) for _, f in single]

    # a one-cell sweep: one lockstep block on one worker, one block per
    # restart on many (the map itself stays serial)
    monkeypatch.setenv("TMX_THREADS", "1")
    one_block = gap_sweep([2], [2], [4], [0.4], [1.0], config)
    monkeypatch.setattr(search, "worker_count", lambda: 64)
    assert len(search._restart_blocks(2, params, 4, config, cells=1)) == 5
    per_restart = gap_sweep([2], [2], [4], [0.4], [1.0], config)
    assert one_block.rows == per_restart.rows
    assert _best_family(one_block) == _best_family(per_restart)


# violation rule ------------------------------------------------------------------

def _is_violation(gap, theorem_value):
    # gap_sweep's rule: a cell violates when its best value fails holds()
    return not holds(theorem_value - gap, theorem_value)


def test_violation_threshold():
    assert _is_violation(-1.0, 10.0)
    assert not _is_violation(-1e-9 * 11.0, 10.0)
    assert _is_violation(-1.2e-8, 10.0)
    assert not _is_violation(0.0, 10.0)
    assert not _is_violation(5.0, 10.0)


# gap_sweep -----------------------------------------------------------------------

def test_sweep_grid_shape_and_gaps():
    config = SearchConfig(restarts=2, steps_per_restart=25, seed=0)
    outcome = gap_sweep([1, 2], [1, 2], [1, 3], [0.5], [1.0], config)
    assert len(outcome.rows) == 8
    assert outcome.errors == ()
    assert outcome.violations == ()
    assert outcome.clean
    for row in outcome.rows:
        assert row.gap >= -1e-9 * (1.0 + row.theorem_value)
        assert row.alphas == (0.5,) * row.members
        assert row.caps == (1.0,) * row.members


def test_sweep_rows_in_grid_order():
    config = SearchConfig(restarts=1, steps_per_restart=10, seed=0)
    outcome = gap_sweep([1, 2], [1], [2, 4], [0.5], [1.0], config)
    labels = [(row.n, row.members, row.p) for row in outcome.rows]
    assert labels == [(1, 1, 2), (1, 1, 4), (2, 1, 2), (2, 1, 4)]


def test_sweep_is_deterministic():
    config = SearchConfig(restarts=2, steps_per_restart=20, seed=7)
    a = gap_sweep([2], [2], [3], [0.4], [1.5], config)
    b = gap_sweep([2], [2], [3], [0.4], [1.5], config)
    assert a.rows == b.rows
    assert a.near_misses == b.near_misses


def test_sweep_near_misses_record_extremal_hits():
    # the pinned extremal restart puts every decided cell within the
    # near-miss band, and the dump carries a replayable family
    config = SearchConfig(restarts=1, steps_per_restart=5, seed=0)
    outcome = gap_sweep([2], [1], [2], [0.5], [1.0], config)
    assert len(outcome.near_misses) == 1
    dump = outcome.near_misses[0]
    assert dump["cell"] == "n=2;N=1;p=2;alpha=0.5;L=1.0"
    assert "family" in dump and dump["family"]["dim"] == 2


def test_sweep_records_cell_errors_and_continues():
    config = SearchConfig(restarts=1, steps_per_restart=5, seed=0)
    outcome = gap_sweep([2], [1], [2, 31], [0.5], [1.0], config)
    assert len(outcome.rows) == 1
    assert len(outcome.errors) == 1
    cell, message = outcome.errors[0]
    assert cell == "n=2;N=1;p=31;alpha=0.5;L=1.0"
    assert message
    assert not outcome.clean


def test_block_results_keep_every_family_that_can_win():
    # values in restart order; a family is left out only where a later
    # restart of the block is higher by more than the 1e-12 tie tolerance
    params = BernoulliParams(caps=(1.0,), alphas=(0.5,))
    chains = search._Chains(1, params, 2, SearchConfig(restarts=6), 0, 6)
    chains.values = [3.0, 5.0, 5.0 + 1e-13, 2.0, 5.0 - 1e-13, 1.0]
    kept = [family is not None for _, family in chains.results()]
    assert kept == [False, True, True, False, True, True]


def test_sweep_error_in_a_block_leaves_the_next_cell_intact(monkeypatch):
    # every stalled projection fails: near alpha = 1 the sampler gives up on
    # every random restart, while the alpha = 0.5 cell still lands
    monkeypatch.setattr(ensembles, "_solve_scale", lambda *args: None)
    monkeypatch.setenv("TMX_THREADS", "1")
    config = SearchConfig(restarts=3, steps_per_restart=5, seed=3)
    one_block = gap_sweep([2], [2], [3], [0.9995, 0.5], [1.0], config)
    monkeypatch.setattr(search, "worker_count", lambda: 64)  # one block per restart
    per_restart = gap_sweep([2], [2], [3], [0.9995, 0.5], [1.0], config)
    assert [cell for cell, _ in one_block.errors] == ["n=2;N=2;p=3;alpha=0.9995;L=1.0"]
    assert "did not converge" in one_block.errors[0][1]
    assert per_restart.errors == one_block.errors
    assert len(one_block.rows) == 1
    assert per_restart.rows == one_block.rows


def test_sweep_audit_runs_requested_trials():
    config = SearchConfig(restarts=1, steps_per_restart=5, seed=0)
    outcome = gap_sweep([1], [1], [2], [0.5], [1.0], config, sampler_trials=6)
    assert outcome.audit is not None
    assert outcome.audit.trials == 6
    assert outcome.audit.passes == 6
    assert outcome.audit.min_norm_slack >= -1e-9
    assert outcome.clean


def test_sweep_without_audit_reports_none():
    config = SearchConfig(restarts=1, steps_per_restart=5, seed=0)
    outcome = gap_sweep([1], [1], [2], [0.5], [1.0], config)
    assert outcome.audit is None
