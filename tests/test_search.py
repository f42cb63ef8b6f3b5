"""Adversarial search: the conjectured maximizer must be a fixed point, random
restarts must never beat it, and sweep bookkeeping must be deterministic."""

import pytest
from hypothesis import given, strategies as st

from conftest import assert_close
from tracemax import (
    BernoulliParams,
    BudgetExceeded,
    ConstraintViolated,
    SearchConfig,
    SearchResult,
    family_to_json,
    gap_sweep,
    maximize,
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
