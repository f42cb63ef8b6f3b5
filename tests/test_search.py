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
    BudgetExceeded,
    ConstraintViolated,
    EnsembleFamily,
    FiniteEnsemble,
    SearchConfig,
    SearchResult,
    SymMatrix,
    TracemaxError,
    exact_trace_moment,
    extremal_family,
    family_to_json,
    gap_sweep,
    maximize,
    project_mean_shell,
    sample_with_retry,
    stream,
    theorem_max_value,
)
from tracemax.checks import holds

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


# maximize ------------------------------------------------------------------------

def test_extremal_start_is_a_fixed_point():
    params = _params(alpha=0.4, cap=1.5)
    result = maximize(2, params, 4, SearchConfig(**_FAST))
    target = theorem_max_value(2, params, 4)
    assert isinstance(result, SearchResult)
    assert_close(result.theorem_value, target, rel=1e-15)
    # restart 0 starts at the conjectured maximizer, so the search can
    # never fall below it and hill climbing must never escape above it
    assert result.best_value >= target - 1e-9 * (1.0 + target)
    assert result.gap >= -1e-9 * (1.0 + target)


def test_linear_case_has_zero_gap():
    # p = 1 collapses to tr(E sum X) <= n * sum alpha L with equality at
    # the extremal family
    params = _params(alpha=0.3, cap=2.0, members=3)
    result = maximize(2, params, 1, SearchConfig(**_FAST))
    assert abs(result.gap) <= 1e-9 * (1.0 + result.theorem_value)


def test_maximize_is_deterministic():
    config = SearchConfig(restarts=2, steps_per_restart=30, seed=123)
    a = maximize(2, _params(), 3, config)
    b = maximize(2, _params(), 3, config)
    assert a.best_value == b.best_value
    assert family_to_json(a.best_family) == family_to_json(b.best_family)
    assert a.gap == b.gap


def test_maximize_worker_count_does_not_change_results(monkeypatch):
    config = SearchConfig(restarts=3, steps_per_restart=30, seed=11)
    monkeypatch.setenv("TMX_THREADS", "1")
    serial = maximize(2, _params(alpha=0.3), 3, config)
    monkeypatch.setenv("TMX_THREADS", "2")
    parallel = maximize(2, _params(alpha=0.3), 3, config)
    assert serial.best_value == parallel.best_value
    assert family_to_json(serial.best_family) == family_to_json(parallel.best_family)


def test_random_starts_never_beat_the_theorem_value():
    params = _params(alpha=0.6, cap=1.2)
    config = SearchConfig(restarts=5, steps_per_restart=60, seed=5)
    result = maximize(2, params, 3, config)
    target = theorem_max_value(2, params, 3)
    assert result.best_value <= target + 1e-9 * (1.0 + target)


def test_budget_checks():
    config = SearchConfig(**_FAST)
    with pytest.raises(BudgetExceeded):
        maximize(9, _params(), 2, config)
    with pytest.raises(BudgetExceeded):
        maximize(2, _params(members=7), 2, config)
    with pytest.raises(BudgetExceeded):
        maximize(2, _params(), 31, config)


# lockstep restarts against a one-restart oracle -----------------------------------

def _oracle_propose(family, rng):
    """One proposal on ensemble objects: a probability shift or an atom
    perturbation, projected onto the shell and validated."""
    k = int(rng.integers(len(family.members)))
    member = family.members[k]
    atoms, probs = member.atoms, member.probs
    if member.support_size >= 2 and rng.random() < 0.5:
        i, j = (int(v) for v in rng.choice(member.support_size, size=2, replace=False))
        delta = float(rng.uniform(0.0, probs[i]))
        moved = list(probs)
        moved[i] -= delta
        moved[j] += delta
        total = math.fsum(moved)
        probs = tuple(q / total for q in moved)
    else:
        i = int(rng.integers(member.support_size))
        noise = rng.normal(0.0, 0.25 * member.cap, size=(member.dim, member.dim))
        e = SymMatrix(atoms[i].entries + noise).eig  # clip the spectrum, keep the basis
        atom = SymMatrix.from_eigensystem(e.eigenvectors, np.clip(e.eigenvalues, 0.0, member.cap))
        atoms = atoms[:i] + (atom,) + atoms[i + 1:]
    atoms = project_mean_shell(atoms, probs, member.cap, member.alpha)
    if atoms is None:
        return None
    try:
        moved = FiniteEnsemble(atoms=atoms, probs=probs, cap=member.cap, alpha=member.alpha)
    except ConstraintViolated:
        return None
    return EnsembleFamily(members=family.members[:k] + (moved,) + family.members[k + 1:])


def _oracle_restart(n, params, p, config, restart):
    """One restart alone: start, then strict-improvement hill climbing."""
    rng = stream(config.seed, restart)
    if restart == 0:
        family = extremal_family(n, params)
    else:
        family = EnsembleFamily(members=tuple(
            sample_with_retry(n, int(rng.integers(1, config.max_atoms + 1)), cap, alpha, rng)
            for cap, alpha in zip(params.caps, params.alphas)
        ))
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
    """Each restart's (value, family) or error, from one block stepped in lockstep."""
    chains = search._Chains(n, params, p, config, start, stop)
    for _ in range(config.steps_per_restart):
        chains.step()
    return [
        chains.errors[c] if c in chains.errors else (value, chains.family(c))
        for c, value in enumerate(chains.values)
    ]


def _assert_lockstep_matches_oracle(n, params, p, config):
    outcomes = _lockstep(n, params, p, config, 0, config.restarts)
    assert len(outcomes) == config.restarts
    for restart, outcome in enumerate(outcomes):
        try:
            value, family = _oracle_restart(n, params, p, config, restart)
        except TracemaxError as exc:
            assert type(outcome) is type(exc) and str(outcome) == str(exc)
            continue
        assert not isinstance(outcome, TracemaxError), outcome
        assert outcome[0] == value, (restart, outcome[0], value)
        assert family_to_json(outcome[1]) == family_to_json(family), restart
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


def test_block_partition_does_not_change_any_restart(monkeypatch):
    params = BernoulliParams(caps=(1.0, 2.0), alphas=(0.4, 0.7))
    config = SearchConfig(restarts=5, steps_per_restart=30, seed=31)
    whole = _lockstep(2, params, 4, config, 0, 5)
    single = [outcome for r in range(5) for outcome in _lockstep(2, params, 4, config, r, r + 1)]
    assert [v for v, _ in whole] == [v for v, _ in single]
    assert [family_to_json(f) for _, f in whole] == [family_to_json(f) for _, f in single]

    # maximize: one lockstep block on one worker, one block per restart on
    # many (the map itself stays serial)
    monkeypatch.setenv("TMX_THREADS", "1")
    one_block = maximize(2, params, 4, config)
    monkeypatch.setattr(search, "worker_count", lambda: 64)
    assert len(search._restart_blocks(2, params, 4, config, cells=1)) == 5
    per_restart = maximize(2, params, 4, config)
    assert one_block.best_value == per_restart.best_value
    assert family_to_json(one_block.best_family) == family_to_json(per_restart.best_family)


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
